//! Quickstart: splice a synthetic video two ways and stream each through a
//! small P2P swarm.
//!
//! ```sh
//! cargo run -p splicecast-examples --example quickstart
//! ```

use splicecast_core::{run_once, ExperimentConfig, SplicingSpec, VideoSpec};

fn main() {
    // A 1-minute, 1 Mbps synthetic MPEG-4 clip with mixed content.
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(256_000.0)
        .with_leechers(8);
    config.video = VideoSpec {
        duration_secs: 60.0,
    };

    println!("streaming a 60 s / 1 Mbps clip to 8 peers at 256 kB/s\n");
    for splicing in [SplicingSpec::Gop, SplicingSpec::Duration(4.0)] {
        let result = run_once(&config.clone().with_splicing(splicing), 42);
        let metrics = &result.metrics;
        println!("{} splicing:", splicing.label());
        println!("  segments:        {}", result.segment_count);
        println!("  byte overhead:   {:.1}%", result.overhead_ratio * 100.0);
        println!("  mean startup:    {:.1} s", metrics.mean_startup_secs());
        println!("  mean stalls:     {:.1}", metrics.mean_stalls());
        println!("  mean stall time: {:.1} s", metrics.mean_stall_secs());
        println!(
            "  peer offload:    {:.0}%",
            metrics.peer_offload_ratio() * 100.0
        );
        println!();
    }
}
