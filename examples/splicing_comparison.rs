//! GOP-based vs duration-based splicing across bandwidths — a scaled-down
//! version of the paper's Figures 2 and 3, as one [`Grid`].
//!
//! ```sh
//! cargo run --release -p splicecast-examples --example splicing_comparison
//! ```

use splicecast_core::{ExperimentConfig, Grid, SplicingSpec, VideoSpec};

fn main() {
    let bandwidths = [
        ("128 kB/s", 128_000.0),
        ("256 kB/s", 256_000.0),
        ("512 kB/s", 512_000.0),
    ];
    let variants = [
        ("gop", SplicingSpec::Gop),
        ("2s", SplicingSpec::Duration(2.0)),
        ("4s", SplicingSpec::Duration(4.0)),
        ("8s", SplicingSpec::Duration(8.0)),
    ];
    let mut base = ExperimentConfig::paper_baseline().with_leechers(10);
    base.video = VideoSpec {
        duration_secs: 60.0,
    };

    let grid = Grid::new(
        "bandwidth",
        &bandwidths,
        &variants,
        |&bandwidth, &splicing| {
            base.clone()
                .with_bandwidth(bandwidth)
                .with_splicing(splicing)
        },
    );
    let result = grid.run(&[1, 2], 2);
    let stalls = result.table("Stalls per viewer (10 peers, 60 s clip)", |m| m.stalls, 1);
    let durations = result.table("Total stall seconds per viewer", |m| m.stall_secs, 1);
    println!("{stalls}");
    println!("{durations}");
    println!("expected shape: the gop column dominates, and everything");
    println!("shrinks as bandwidth grows (cf. the paper's Figs. 2-3).");
}
