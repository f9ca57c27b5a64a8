//! The paper's Eq. 1 in action: how many segments should a peer download
//! simultaneously, and how the adaptive policy compares to fixed pools.
//!
//! ```sh
//! cargo run --release -p splicecast-examples --example adaptive_pooling
//! ```

use splicecast_core::{optimal_pool_size, run_averaged, ExperimentConfig, PolicyConfig, VideoSpec};

fn main() {
    // The formula itself: k = max(⌊B·T/W⌋, 1).
    println!("Eq. 1 — optimal simultaneous downloads (W = 512 kB segments):");
    println!("  T buffered:   0s  2s  4s  8s  16s");
    for (label, b) in [("128 kB/s", 128_000.0), ("512 kB/s", 512_000.0)] {
        let row: Vec<usize> = [0.0, 2.0, 4.0, 8.0, 16.0]
            .iter()
            .map(|&t| optimal_pool_size(b, t, 512_000))
            .collect();
        println!("  B={label}: {row:?}");
    }

    // And in a live swarm.
    println!("\nstreaming a 60 s clip to 8 peers at 256 kB/s:");
    for (name, policy) in [
        ("adaptive (Eq. 1)", PolicyConfig::Adaptive),
        ("fixed pool of 2", PolicyConfig::Fixed(2)),
        ("fixed pool of 8", PolicyConfig::Fixed(8)),
    ] {
        let mut config = ExperimentConfig::paper_baseline()
            .with_bandwidth(256_000.0)
            .with_policy(policy)
            .with_leechers(8);
        config.video = VideoSpec {
            duration_secs: 60.0,
        };
        let avg = run_averaged(&config, &[7, 8]);
        println!(
            "  {name:18} startup {:5.1} s   stalls {:5.1}   stall time {:6.1} s",
            avg.startup_secs, avg.stalls, avg.stall_secs
        );
    }
}
