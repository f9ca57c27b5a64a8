//! Full-scale figure-shape assertions: the claims EXPERIMENTS.md makes,
//! as executable checks against the paper-scale configuration.
//!
//! These run the 19-peer, 2-minute experiments (minutes of CPU in debug
//! builds, seconds in release), so they are `#[ignore]`d in the default
//! debug suite and CI's `build-and-test` job runs them in release:
//!
//! ```sh
//! cargo test --release -p splicecast-integration --test figure_shapes -- --ignored
//! ```

use splicecast_core::{run_averaged, ExperimentConfig, PolicyConfig, SplicingSpec};

const SEEDS: [u64; 3] = [101, 202, 303];

fn stalls(bandwidth: f64, splicing: SplicingSpec) -> f64 {
    let config = ExperimentConfig::paper_baseline()
        .with_bandwidth(bandwidth)
        .with_splicing(splicing);
    run_averaged(&config, &SEEDS).stalls.mean
}

#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn fig2_gop_splicing_is_worst_at_every_bandwidth() {
    for bandwidth in [128_000.0, 256_000.0, 512_000.0, 768_000.0] {
        let gop = stalls(bandwidth, SplicingSpec::Gop);
        for d in [2.0, 4.0, 8.0] {
            let duration = stalls(bandwidth, SplicingSpec::Duration(d));
            assert!(
                gop > duration,
                "at {bandwidth} B/s: gop {gop} must exceed {d}s {duration}"
            );
        }
    }
}

#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn fig2_two_second_splicing_converges_to_four_second() {
    let low_gap = stalls(128_000.0, SplicingSpec::Duration(2.0))
        / stalls(128_000.0, SplicingSpec::Duration(4.0));
    let high_gap = stalls(768_000.0, SplicingSpec::Duration(2.0))
        / stalls(768_000.0, SplicingSpec::Duration(4.0));
    assert!(
        low_gap > 1.3,
        "2s must clearly lose at 128 kB/s (ratio {low_gap})"
    );
    assert!(
        high_gap < low_gap,
        "the gap must shrink with bandwidth ({high_gap} vs {low_gap})"
    );
}

#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn fig3_gop_splicing_has_longest_stall_duration() {
    for bandwidth in [128_000.0, 256_000.0, 768_000.0] {
        let config = |s| {
            ExperimentConfig::paper_baseline()
                .with_bandwidth(bandwidth)
                .with_splicing(s)
        };
        let gop = run_averaged(&config(SplicingSpec::Gop), &SEEDS)
            .stall_secs
            .mean;
        let four = run_averaged(&config(SplicingSpec::Duration(4.0)), &SEEDS)
            .stall_secs
            .mean;
        assert!(
            gop > four,
            "at {bandwidth} B/s: gop {gop} s must exceed 4s {four} s"
        );
    }
}

#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn fig4_startup_orders_by_segment_size_and_bandwidth() {
    let startup = |bandwidth: f64, d: f64| {
        let mut config = ExperimentConfig::paper_baseline()
            .with_bandwidth(bandwidth)
            .with_splicing(SplicingSpec::Duration(d));
        config.swarm.seeder_one_way_latency_secs = 0.5;
        run_averaged(&config, &SEEDS).startup_secs.mean
    };
    for bandwidth in [128_000.0, 1_024_000.0] {
        assert!(startup(bandwidth, 2.0) < startup(bandwidth, 4.0));
        assert!(startup(bandwidth, 4.0) < startup(bandwidth, 8.0));
    }
    for d in [2.0, 4.0, 8.0] {
        assert!(startup(1_024_000.0, d) < startup(128_000.0, d));
    }
}

#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn fig5_adaptive_pooling_starts_fastest() {
    for bandwidth in [128_000.0, 768_000.0] {
        let startup = |policy| {
            let config = ExperimentConfig::paper_baseline()
                .with_bandwidth(bandwidth)
                .with_policy(policy);
            run_averaged(&config, &SEEDS).startup_secs.mean
        };
        let adaptive = startup(PolicyConfig::Adaptive);
        for k in [2, 4, 8] {
            let fixed = startup(PolicyConfig::Fixed(k));
            assert!(
                adaptive < fixed,
                "at {bandwidth} B/s: adaptive startup {adaptive} must beat pool-{k} {fixed}"
            );
        }
    }
}
