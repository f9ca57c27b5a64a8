//! The §III downloading policy: Eq. 1's properties and the behaviour of
//! adaptive vs fixed pools in a live swarm.

use splicecast_core::{optimal_pool_size, run_averaged, ExperimentConfig, VideoSpec};
use splicecast_swarm::PolicyConfig;

#[test]
fn eq1_reference_values() {
    // Worked examples straight from the formula.
    assert_eq!(optimal_pool_size(128_000.0, 0.0, 512_000), 1); // start of streaming
    assert_eq!(optimal_pool_size(128_000.0, 4.0, 512_000), 1); // B·T = W
    assert_eq!(optimal_pool_size(128_000.0, 8.0, 512_000), 2);
    assert_eq!(optimal_pool_size(512_000.0, 8.0, 512_000), 8);
    assert_eq!(optimal_pool_size(64_000.0, 1.0, 512_000), 1); // B·T < W
}

#[test]
fn eq1_monotonicity_grid() {
    let bs = [32_000.0, 128_000.0, 512_000.0, 2_048_000.0];
    let ts = [0.0, 1.0, 4.0, 16.0, 64.0];
    let ws = [64_000u64, 256_000, 1_024_000];
    for w in ws {
        for t in ts {
            let mut last = 0;
            for b in bs {
                let k = optimal_pool_size(b, t, w);
                assert!(k >= 1);
                assert!(k >= last, "k must grow with B");
                last = k;
            }
        }
        for b in bs {
            let mut last = 0;
            for t in ts {
                let k = optimal_pool_size(b, t, w);
                assert!(k >= last, "k must grow with T");
                last = k;
            }
        }
    }
}

#[test]
fn policy_objects_agree_with_the_free_function() {
    for (b, t, w) in [
        (128_000.0, 6.0, 256_000u64),
        (1e6, 30.0, 100_000),
        (5.0, 0.1, 10),
    ] {
        assert_eq!(
            PolicyConfig::Adaptive.pool_size(b, t, w),
            optimal_pool_size(b, t, w)
        );
    }
    assert_eq!(PolicyConfig::Fixed(6).pool_size(1.0, 0.0, 1), 6);
}

fn swarm_with(policy: PolicyConfig, bandwidth: f64) -> splicecast_core::AveragedMetrics {
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(bandwidth)
        .with_policy(policy)
        .with_leechers(8);
    config.video = VideoSpec {
        duration_secs: 60.0,
    };
    config.swarm.max_sim_secs = 900.0;
    run_averaged(&config, &[4, 5, 6])
}

#[test]
fn adaptive_starts_faster_than_large_fixed_pools() {
    // The robust adaptive-pooling advantage: k = 1 until the buffer grows,
    // so the first segment gets the whole pipe.
    let adaptive = swarm_with(PolicyConfig::Adaptive, 192_000.0);
    let big = swarm_with(PolicyConfig::Fixed(8), 192_000.0);
    assert!(
        adaptive.startup_secs < big.startup_secs,
        "adaptive startup {} should beat pool-8 startup {}",
        adaptive.startup_secs,
        big.startup_secs
    );
}

#[test]
fn adaptive_beats_sequential_downloading_at_high_bandwidth() {
    // "If users have sufficient bandwidth, the pool size should be large
    // to maximize the bandwidth utilization" (§VI-B): a pool stuck at 1
    // wastes a fat link; adaptive grows its pool as the buffer builds.
    let adaptive = swarm_with(PolicyConfig::Adaptive, 640_000.0);
    let sequential = swarm_with(PolicyConfig::Fixed(1), 640_000.0);
    assert!(
        adaptive.stall_secs <= sequential.stall_secs * 1.25 + 1.0,
        "adaptive stall time {} should not materially lose to sequential {}",
        adaptive.stall_secs,
        sequential.stall_secs
    );
}

#[test]
fn every_policy_still_completes_the_stream() {
    for policy in [
        PolicyConfig::Adaptive,
        PolicyConfig::Fixed(1),
        PolicyConfig::Fixed(8),
    ] {
        let avg = swarm_with(policy, 256_000.0);
        assert_eq!(avg.completion_rate, 1.0, "{policy:?}");
    }
}
