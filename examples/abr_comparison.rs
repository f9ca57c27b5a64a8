//! Bitrate adaptation (the §I industry baseline) vs full-quality
//! streaming, on the same CDN substrate.
//!
//! ```sh
//! cargo run --release -p splicecast-examples --example abr_comparison
//! ```

use splicecast_core::{run_abr, AbrAlgorithm, AbrConfig, Ladder};

fn main() {
    let ladder = Ladder::builder().duration_secs(60.0).build();
    println!(
        "ladder: {} renditions × {} segments of ~4 s\n",
        Ladder::BITRATES_BPS.len(),
        ladder.segment_count()
    );

    for bandwidth in [120_000.0, 200_000.0, 320_000.0] {
        println!("clients at {:.0} kB/s:", bandwidth / 1e3);
        for algorithm in [
            AbrAlgorithm::BufferBased {
                low_secs: 4.0,
                high_secs: 16.0,
            },
            AbrAlgorithm::RateBased { safety: 0.8 },
            AbrAlgorithm::FixedRendition(2),
        ] {
            let config = AbrConfig {
                n_clients: 6,
                client_bandwidth_bytes_per_sec: bandwidth,
                algorithm,
                max_sim_secs: 600.0,
            };
            let metrics = run_abr(&ladder, &config, 42);
            println!(
                "  {:12}  stalls {:4.1}   stall time {:5.1} s   delivered {:.2} Mbps",
                algorithm.name(),
                metrics.mean_stalls(),
                metrics.mean_stall_secs(),
                metrics.mean_bitrate_bps() / 1e6,
            );
        }
        println!();
    }
    println!("the adaptive arms trade quality for smoothness; the fixed arm");
    println!("holds 1 Mbps and pays in stalls when the link is thin — the");
    println!("trade-off the paper's splicing approach is designed to escape.");
}
