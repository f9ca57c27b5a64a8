//! Hybrid CDN mode (§IV): a CDN joins the star and serves segments one at
//! a time per peer; the segment size must respect the B·T bound.
//!
//! ```sh
//! cargo run --release -p splicecast-examples --example hybrid_cdn
//! ```

use splicecast_core::{
    max_cdn_segment_bytes, max_cdn_segment_secs, run_once, CdnConfig, ExperimentConfig,
    SplicingSpec, VideoSpec,
};

fn main() {
    println!("§IV segment-size bound for CDN-served streaming:");
    for (label, b) in [("128 kB/s", 128_000.0), ("256 kB/s", 256_000.0)] {
        let bytes = max_cdn_segment_bytes(b, 4.0);
        let secs = max_cdn_segment_secs(b, 4.0, 1_000_000.0);
        println!(
            "  B = {label}, T = 4 s  →  W ≤ {} kB (≈ {secs:.1} s of 1 Mbps video)",
            bytes / 1000
        );
    }

    let cdn = CdnConfig {
        bandwidth_bytes_per_sec: 4_000_000.0,
        one_way_latency_secs: 0.1,
        upload_slots: 32,
    };

    println!("\nstreaming a 60 s clip to 8 peers at 192 kB/s:");
    for (label, p2p, with_cdn) in [
        ("pure P2P            ", true, false),
        ("hybrid P2P + CDN    ", true, true),
        ("CDN only (§IV mode) ", false, true),
    ] {
        let mut config = ExperimentConfig::paper_baseline()
            .with_bandwidth(192_000.0)
            .with_splicing(SplicingSpec::Duration(4.0))
            .with_leechers(8);
        config.video = VideoSpec {
            duration_secs: 60.0,
        };
        config.swarm.p2p = p2p;
        config.swarm.cdn = with_cdn.then_some(cdn);
        let result = run_once(&config, 3);
        let m = &result.metrics;
        println!(
            "  {label} startup {:5.1} s   stalls {:5.1}   from peers {:3.0}%   from CDN {:3.0}%",
            m.mean_startup_secs(),
            m.mean_stalls(),
            m.peer_offload_ratio() * 100.0,
            100.0 * m.reports.iter().map(|r| r.segments_from_cdn).sum::<usize>() as f64
                / m.reports
                    .iter()
                    .map(|r| r.segments_from_cdn + r.segments_from_peers + r.segments_from_seeder)
                    .sum::<usize>()
                    .max(1) as f64,
        );
    }
}
