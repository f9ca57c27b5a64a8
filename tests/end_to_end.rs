//! End-to-end pipeline: synthesize video → splice → manifest → swarm →
//! playback metrics, checking cross-crate invariants on the way.

use splicecast_core::{run_once, ExperimentConfig, SplicingSpec, VideoSpec};
use splicecast_media::{Manifest, Splicer};

fn small_config(splicing: SplicingSpec) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(512_000.0)
        .with_splicing(splicing)
        .with_leechers(5);
    config.video = VideoSpec {
        duration_secs: 30.0,
    };
    config.swarm.max_sim_secs = 600.0;
    config
}

#[test]
fn full_pipeline_streams_and_accounts() {
    for splicing in [
        SplicingSpec::Gop,
        SplicingSpec::Duration(4.0),
        SplicingSpec::Bytes(250_000),
    ] {
        let config = small_config(splicing);
        let video = config.video.build();
        let segments = config.splicing.splice(&video);
        segments.validate(&video).unwrap();

        let result = run_once(&config, 1);
        let metrics = &result.metrics;
        assert_eq!(metrics.reports.len(), 5, "{splicing:?}");
        for report in &metrics.reports {
            assert!(
                report.finished,
                "{splicing:?}: peer {} unfinished",
                report.peer
            );
            assert!(report.qoe.startup_secs.unwrap() > 0.0);
            // Every viewer moved at least the whole video's bytes.
            assert!(
                report.bytes_downloaded >= segments.total_bytes(),
                "{splicing:?}: peer {} downloaded only {} of {}",
                report.peer,
                report.bytes_downloaded,
                segments.total_bytes()
            );
            // Stall intervals are well-formed, disjoint, and within the run.
            let mut last_end = 0.0;
            for stall in &report.stalls {
                assert!(stall.start_secs >= last_end - 1e-9);
                assert!(stall.end_secs >= stall.start_secs);
                assert!(stall.end_secs <= metrics.sim_end_secs + 1e-9);
                last_end = stall.end_secs;
            }
            let total: f64 = report.stalls.iter().map(|s| s.duration_secs()).sum();
            assert!((total - report.qoe.total_stall_secs).abs() < 1e-6);
            assert_eq!(report.stalls.len(), report.qoe.stall_count);
            // Wall-clock accounting: startup + media + stalls ≈ finish time.
            let expected_finish = report.qoe.startup_secs.unwrap()
                + video.duration().as_secs_f64()
                + report.qoe.total_stall_secs;
            let finish = report.qoe.finished_secs.unwrap();
            assert!(
                (finish - expected_finish).abs() < 0.5,
                "{splicing:?}: finish {finish} vs startup+media+stalls {expected_finish}"
            );
        }
        // Segment deliveries add up.
        let delivered: usize = metrics
            .reports
            .iter()
            .map(|r| r.segments_from_peers + r.segments_from_seeder + r.segments_from_cdn)
            .sum();
        assert_eq!(delivered, 5 * result.segment_count, "{splicing:?}");
        // Network accounting is sane: the swarm delivered at least one copy
        // of the video per viewer, and wire bytes exceed payload (loss +
        // retransmissions) without being absurd.
        assert!(metrics.net.payload_bytes_delivered >= 5 * segments.total_bytes());
        let expansion = metrics.wire_expansion();
        assert!(
            (1.0..2.5).contains(&expansion),
            "{splicing:?}: wire expansion {expansion}"
        );
    }
}

#[test]
fn manifest_round_trips_through_the_wire_format() {
    let config = small_config(SplicingSpec::Duration(2.0));
    let video = config.video.build();
    let segments = config.splicing.splice(&video);
    let manifest = Manifest::from_segments("clip", &segments);
    let parsed = Manifest::parse_m3u8(&manifest.to_m3u8()).unwrap();
    assert_eq!(parsed.len(), segments.len());
    assert_eq!(parsed.total_bytes(), segments.total_bytes());
}

#[test]
fn gop_splicing_transfers_fewer_bytes_than_duration_splicing() {
    let video = VideoSpec::default().build();
    let gop = SplicingSpec::Gop.splice(&video);
    for d in [1.0, 2.0, 4.0, 8.0] {
        let duration = SplicingSpec::Duration(d).splice(&video);
        assert!(
            duration.total_bytes() > gop.total_bytes(),
            "{d}s splicing should carry I-frame overhead"
        );
    }
}

#[test]
fn splicers_from_core_match_media_crate_directly() {
    let video = VideoSpec::default().build();
    let via_spec = SplicingSpec::Gop.splice(&video);
    let direct = splicecast_media::GopSplicer.splice(&video);
    assert_eq!(via_spec, direct);
}
