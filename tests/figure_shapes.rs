//! Full-scale figure-shape assertions: the claims EXPERIMENTS.md makes,
//! as executable checks against the registered Figure 2–5 grids — on the
//! paper stack, where every claim must hold, and on `with_scale_profile()`,
//! where the claims that fail today are listed and asserted as an equality,
//! so a fidelity fix must shrink the list.
//!
//! The last test pins EXPERIMENTS.md's Figure 2–5 tables to the output
//! of `splicecast figure figN`, so the document cannot drift from the code.
//!
//! These run the 19-peer, 2-minute experiments (minutes of CPU in debug
//! builds, seconds in release), so they are `#[ignore]`d in the default
//! debug suite and CI's `build-and-test` job runs them in release:
//!
//! ```sh
//! cargo test --release -p splicecast-integration --test figure_shapes -- --ignored
//! ```

use std::sync::OnceLock;

use splicecast_core::figures::figure;
use splicecast_core::{ExperimentConfig, GridResult};

const SEEDS: [u64; 3] = [101, 202, 303];

/// The grids the claims read (Figure 3 reads Figure 2's).
const GRIDS: [&str; 3] = ["fig2", "fig4", "fig5"];

/// One run of a registered grid per stack, shared by every claim on it.
fn cells(name: &str, scale: bool) -> &'static GridResult {
    static RUNS: [OnceLock<GridResult>; 6] = [const { OnceLock::new() }; 6];
    let grid = GRIDS.iter().position(|g| *g == name).expect("a grid above");
    RUNS[2 * grid + usize::from(scale)].get_or_init(|| {
        let base = ExperimentConfig::paper_baseline();
        let base = if scale {
            base.with_scale_profile()
        } else {
            base
        };
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        let figure = figure(name).expect("a registered figure");
        figure.grid(&base).run(&SEEDS, workers)
    })
}

/// The claims that fail, by name; the compared values go to the captured
/// output, which the harness prints when the test fails.
#[derive(Default)]
struct Failed(Vec<String>);

impl Failed {
    /// Claims `smaller < larger`.
    fn claim_less(&mut self, what: String, smaller: f64, larger: f64) {
        let holds = smaller < larger; // false for a NaN, as it should be
        if !holds {
            eprintln!("{what}: {smaller} is not below {larger}");
            self.0.push(what);
        }
    }
}

const NONE: [&str; 0] = [];
const KBPS: [u32; 4] = [128, 256, 512, 768];

#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn fig2_gop_splicing_is_worst_at_every_bandwidth() {
    let failed = |scale| {
        let (g, mut failed) = (cells("fig2", scale), Failed::default());
        for (row, kbps) in KBPS.iter().enumerate() {
            for (series, d) in ["2s", "4s", "8s"].iter().enumerate() {
                failed.claim_less(
                    format!("gop > {d} @{kbps}"),
                    g.at(row, series + 1).stalls,
                    g.at(row, 0).stalls,
                );
            }
        }
        failed.0
    };
    assert_eq!(failed(false), NONE);
    assert_eq!(failed(true), ["gop > 2s @256", "gop > 4s @256"]);
}

#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn fig2_two_second_splicing_converges_to_four_second() {
    for scale in [false, true] {
        let g = cells("fig2", scale);
        let gap = |row| g.at(row, 1).stalls / g.at(row, 2).stalls;
        let (low_gap, high_gap) = (gap(0), gap(3));
        assert!(
            low_gap > 1.3,
            "2s must clearly lose at 128 kB/s (ratio {low_gap}, scale stack: {scale})"
        );
        assert!(
            high_gap < low_gap,
            "the gap must shrink with bandwidth ({high_gap} vs {low_gap}, scale stack: {scale})"
        );
    }
}

#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn fig3_gop_splicing_has_longest_stall_duration() {
    let failed = |scale| {
        let (g, mut failed) = (cells("fig2", scale), Failed::default());
        for row in [0, 1, 3] {
            failed.claim_less(
                format!("gop longer than 4s @{}", KBPS[row]),
                g.at(row, 2).stall_secs,
                g.at(row, 0).stall_secs,
            );
        }
        failed.0
    };
    assert_eq!(failed(false), NONE);
    assert_eq!(
        failed(true),
        ["gop longer than 4s @128", "gop longer than 4s @256"]
    );
}

#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn fig4_startup_orders_by_segment_size_and_bandwidth() {
    for scale in [false, true] {
        let (g, mut failed) = (cells("fig4", scale), Failed::default());
        // Rows 128 / 256 / 512 / 1024 kB/s, series 2 s / 4 s / 8 s.
        let startup = |row, series| g.at(row, series).startup_secs;
        for (row, kbps) in [(0, 128), (3, 1024)] {
            failed.claim_less(
                format!("2s before 4s @{kbps}"),
                startup(row, 0),
                startup(row, 1),
            );
            failed.claim_less(
                format!("4s before 8s @{kbps}"),
                startup(row, 1),
                startup(row, 2),
            );
        }
        for (series, d) in ["2s", "4s", "8s"].iter().enumerate() {
            failed.claim_less(
                format!("{d} sooner @1024 than @128"),
                startup(3, series),
                startup(0, series),
            );
        }
        assert_eq!(failed.0, NONE, "scale stack: {scale}");
    }
}

#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn fig5_adaptive_pooling_starts_fastest() {
    for scale in [false, true] {
        let (g, mut failed) = (cells("fig5", scale), Failed::default());
        for row in [0, 3] {
            for (series, k) in [2, 4, 8].iter().enumerate() {
                failed.claim_less(
                    format!("adaptive before pool-{k} @{}", KBPS[row]),
                    g.at(row, 0).startup_secs,
                    g.at(row, series + 1).startup_secs,
                );
            }
        }
        assert_eq!(failed.0, NONE, "scale stack: {scale}");
    }
}

/// Every table `splicecast figure fig2` … `fig5` prints (default seeds,
/// paper stack) appears verbatim in EXPERIMENTS.md, so the ✓ / ✗ prose
/// beside them is checked against today's numbers.
#[test]
#[ignore = "paper-scale run: use --release -- --ignored"]
fn experiments_md_tables_are_the_figure_output() {
    let doc = include_str!("../EXPERIMENTS.md");
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    for name in ["fig2", "fig3", "fig4", "fig5"] {
        let tables = figure(name).expect("a registered figure").run(
            &ExperimentConfig::paper_baseline(),
            &SEEDS,
            workers,
        );
        for table in tables {
            let text = table.to_string();
            assert!(
                doc.contains(&text),
                "EXPERIMENTS.md lacks {name}'s table; re-capture it with `splicecast figure {name}` and re-check its claims:\n{text}"
            );
        }
    }
}
