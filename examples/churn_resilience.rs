//! Peer churn (§III's motivation): peers leave mid-stream; prefetched
//! segments keep the remaining viewers going.
//!
//! ```sh
//! cargo run --release -p splicecast-examples --example churn_resilience
//! ```

use splicecast_core::{run_once, ChurnConfig, ExperimentConfig, VideoSpec};

fn main() {
    println!("streaming a 60 s clip to 10 peers at 256 kB/s under churn:\n");
    for volatile in [0.0, 0.3, 0.6] {
        let mut config = ExperimentConfig::paper_baseline()
            .with_bandwidth(256_000.0)
            .with_leechers(10);
        config.video = VideoSpec {
            duration_secs: 60.0,
        };
        if volatile > 0.0 {
            config.swarm.churn = Some(ChurnConfig::new(volatile, 30.0));
        }
        let result = run_once(&config, 11);
        let m = &result.metrics;
        let departed = m.reports.iter().filter(|r| r.departed).count();
        println!(
            "  volatile {:3.0}%: {departed:2} peers left early; stayers saw {:4.1} stalls / {:5.1} s stalled (completion {:3.0}%)",
            volatile * 100.0,
            m.mean_stalls(),
            m.mean_stall_secs(),
            m.completion_rate() * 100.0,
        );
    }
    println!("\nthe swarm degrades gracefully: departures remove upload capacity");
    println!("and replicas, but the seeder backstop keeps stayers streaming.");
}
