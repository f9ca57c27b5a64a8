//! Qualitative reproduction checks for the paper's headline results, at a
//! reduced scale that still exhibits the effects (full scale runs in the
//! bench harnesses).

use splicecast_core::{run_averaged, AveragedMetrics, ExperimentConfig, SplicingSpec, VideoSpec};

fn averaged(bandwidth: f64, splicing: SplicingSpec) -> AveragedMetrics {
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(bandwidth)
        .with_splicing(splicing)
        .with_leechers(8);
    config.video = VideoSpec {
        duration_secs: 60.0,
    };
    config.swarm.max_sim_secs = 900.0;
    run_averaged(&config, &[1, 2])
}

#[test]
fn gop_splicing_stalls_more_than_duration_splicing() {
    // The paper's main result (§VI-A, Fig. 2): at the tight operating
    // point, GOP-based splicing stalls more than 4 s duration splicing.
    let gop = averaged(192_000.0, SplicingSpec::Gop);
    let four = averaged(192_000.0, SplicingSpec::Duration(4.0));
    assert!(
        gop.stalls > four.stalls,
        "gop {} should exceed 4s {}",
        gop.stalls,
        four.stalls
    );
    assert!(
        gop.stall_secs > four.stall_secs,
        "gop stall time {} should exceed 4s {}",
        gop.stall_secs,
        four.stall_secs
    );
}

#[test]
fn two_second_segments_underperform_four_second_at_low_bandwidth() {
    // Fig. 2's low-bandwidth observation: many small transfers lose to
    // fewer medium ones when the link is tight.
    let two = averaged(160_000.0, SplicingSpec::Duration(2.0));
    let four = averaged(160_000.0, SplicingSpec::Duration(4.0));
    assert!(
        two.stalls > four.stalls,
        "2s {} should exceed 4s {} at 160 kB/s",
        two.stalls,
        four.stalls
    );
}

#[test]
fn more_bandwidth_means_fewer_stalls() {
    for splicing in [SplicingSpec::Gop, SplicingSpec::Duration(4.0)] {
        let low = averaged(160_000.0, splicing);
        let high = averaged(640_000.0, splicing);
        assert!(
            high.stalls < low.stalls,
            "{splicing:?}: {} at 640 kB/s should beat {} at 160 kB/s",
            high.stalls,
            low.stalls
        );
        assert!(high.stall_secs < low.stall_secs);
    }
}

#[test]
fn larger_segments_start_slower() {
    // Fig. 4's robust shape: startup grows with segment duration.
    let two = averaged(256_000.0, SplicingSpec::Duration(2.0));
    let eight = averaged(256_000.0, SplicingSpec::Duration(8.0));
    assert!(
        eight.startup_secs > two.startup_secs,
        "8s startup {} should exceed 2s startup {}",
        eight.startup_secs,
        two.startup_secs
    );
}

#[test]
fn startup_falls_with_bandwidth() {
    let low = averaged(128_000.0, SplicingSpec::Duration(4.0));
    let high = averaged(512_000.0, SplicingSpec::Duration(4.0));
    assert!(
        high.startup_secs < low.startup_secs,
        "startup {} at 512 kB/s should beat {} at 128 kB/s",
        high.startup_secs,
        low.startup_secs
    );
}

#[test]
fn splicing_overhead_orders_by_segment_duration() {
    let video = VideoSpec::default().build();
    let ratios: Vec<f64> = [1.0, 2.0, 4.0, 8.0]
        .iter()
        .map(|&d| SplicingSpec::Duration(d).splice(&video).overhead_ratio())
        .collect();
    for pair in ratios.windows(2) {
        assert!(
            pair[0] > pair[1],
            "shorter segments must carry more overhead: {ratios:?}"
        );
    }
    assert_eq!(SplicingSpec::Gop.splice(&video).overhead_ratio(), 0.0);
}
