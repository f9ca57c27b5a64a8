//! Rows × series experiment grids and the registry of named figures.
//!
//! Every figure of the paper's evaluation (and every ablation this
//! repository adds) is one [`Grid`]: an x-axis of rows, a set of series,
//! and one [`ExperimentConfig`] per cell. [`Grid::new`] is the only place
//! the cells are laid out row-major and [`GridResult::at`] the only place
//! they are indexed. [`FIGURES`] names the grids the repository reports;
//! each is a function of a *base* configuration, so the same figure runs
//! on the paper stack, on `with_scale_profile()`, or on any swarm the CLI
//! can describe. Absolute values come from the simulated substrate, so
//! only the *shape* (orderings, trends, crossovers) is expected to match
//! the paper; `EXPERIMENTS.md` records both.

use splicecast_media::{Ladder, PAPER_BITRATE_BPS};
use splicecast_swarm::{
    run_abr, AbrAlgorithm, AbrConfig, CdnConfig, ChurnConfig, CrossTrafficConfig, PolicyConfig,
};

use crate::config::ExperimentConfig;
use crate::experiment::{run_all, AveragedMetrics};
use crate::formula::max_cdn_segment_secs;
use crate::report::Table;
use crate::runner::PreparedExperiment;
use crate::splicing::SplicingSpec;

/// A rows × series grid of experiments.
#[derive(Debug, Clone)]
pub struct Grid {
    x_label: String,
    rows: Vec<String>,
    series: Vec<String>,
    /// Row-major: the cell of (row, series) is `cells[row * series.len() + series]`.
    cells: Vec<ExperimentConfig>,
}

impl Grid {
    /// Lays out one experiment per (row, series) pair: `cell` maps a row's
    /// value and a series' value to the configuration of their cell.
    pub fn new<R, S>(
        x_label: &str,
        rows: &[(impl AsRef<str>, R)],
        series: &[(impl AsRef<str>, S)],
        cell: impl Fn(&R, &S) -> ExperimentConfig,
    ) -> Self {
        Grid {
            x_label: x_label.to_owned(),
            rows: rows.iter().map(|(l, _)| l.as_ref().to_owned()).collect(),
            series: series.iter().map(|(l, _)| l.as_ref().to_owned()).collect(),
            cells: rows
                .iter()
                .flat_map(|(_, r)| series.iter().map(|(_, s)| cell(r, s)))
                .collect(),
        }
    }

    /// The first rule any cell's configuration breaks, if any.
    pub fn check(&self) -> Result<(), String> {
        self.cells.iter().try_for_each(ExperimentConfig::check)
    }

    /// Runs every cell once per seed on up to `workers` threads (a one-cell
    /// grid still uses a worker per seed) and averages each cell over its
    /// seeds. Results are identical for any count ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty, `workers` is zero, or a run panics
    /// (the message names the cell and the seed).
    pub fn run(&self, seeds: &[u64], workers: usize) -> GridResult {
        // Build each cell's media up front, serially: cells that stream the
        // identical video with the identical splicing (a bandwidth or policy
        // axis) share one built segment list instead of re-encoding per cell.
        let mut prepared: Vec<PreparedExperiment> = Vec::with_capacity(self.cells.len());
        for config in &self.cells {
            let p = prepared
                .iter()
                .find_map(|q| q.try_share(config))
                .unwrap_or_else(|| PreparedExperiment::new(config));
            prepared.push(p);
        }
        let n = self.series.len();
        let cells = run_all(&prepared, seeds, workers, |i| {
            format!("grid cell '{} @ {}'", self.series[i % n], self.rows[i / n])
        })
        .iter()
        .map(|runs| AveragedMetrics::from_runs(runs))
        .collect();
        GridResult {
            x_label: self.x_label.clone(),
            rows: self.rows.clone(),
            series: self.series.clone(),
            cells,
        }
    }
}

/// The seed-averaged metrics of every cell of a [`Grid`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridResult {
    x_label: String,
    rows: Vec<String>,
    series: Vec<String>,
    cells: Vec<AveragedMetrics>,
}

impl GridResult {
    /// The metrics of one cell.
    ///
    /// # Panics
    ///
    /// Panics when `row` or `series` is out of range.
    pub fn at(&self, row: usize, series: usize) -> &AveragedMetrics {
        assert!(series < self.series.len(), "no series {series}");
        &self.cells[row * self.series.len() + series]
    }

    /// One metric of every cell as a figure-shaped table.
    pub fn table(
        &self,
        title: &str,
        metric: impl Fn(&AveragedMetrics) -> f64,
        precision: usize,
    ) -> Table {
        let series: Vec<&str> = self.series.iter().map(String::as_str).collect();
        let mut table = Table::new(title, &self.x_label, &series);
        table.precision(precision);
        for (r, label) in self.rows.iter().enumerate() {
            let row: Vec<f64> = (0..series.len()).map(|s| metric(self.at(r, s))).collect();
            table.push_row(label, &row);
        }
        table
    }
}

/// One named figure: a grid over a base configuration and the tables read
/// off its result, the headline table first.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `splicecast figure <name>` takes.
    pub name: &'static str,
    /// What the figure shows.
    pub caption: &'static str,
    grid: fn(&ExperimentConfig) -> Grid,
    tables: fn(&GridResult, &ExperimentConfig, &[u64]) -> Vec<Table>,
}

impl Figure {
    /// The figure's grid over `base`: bandwidth, splicing, policy and
    /// whatever else the figure varies are overwritten per cell, every
    /// other setting (stack, swarm size, clip, faults) is `base`'s.
    pub fn grid(&self, base: &ExperimentConfig) -> Grid {
        (self.grid)(base)
    }

    /// Runs the grid and reads the figure's tables off it.
    ///
    /// # Panics
    ///
    /// Panics where [`Grid::run`] does.
    pub fn run(&self, base: &ExperimentConfig, seeds: &[u64], workers: usize) -> Vec<Table> {
        (self.tables)(&self.grid(base).run(seeds, workers), base, seeds)
    }
}

/// The figure registered under `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

type Metric = fn(&AveragedMetrics) -> f64;
const STALLS: Metric = |m| m.stalls.mean;
const ROUNDED_STALLS: Metric = |m| m.rounded_stalls as f64;
const STALL_SECS: Metric = |m| m.stall_secs.mean;
const STARTUP_SECS: Metric = |m| m.startup_secs.mean;

/// Every figure the repository reports: the paper's Figures 2–5, then the
/// ablations its §I, §III, §IV and §VIII ask for.
pub static FIGURES: [Figure; 10] = [
    Figure {
        name: "fig2",
        caption: "Figure 2: total number of stalls for different bandwidths",
        grid: fig2_grid,
        tables: |r, _, _| {
            let title = "Total number of stalls (rounded mean per viewer)";
            vec![r.table(title, ROUNDED_STALLS, 0)]
        },
    },
    Figure {
        name: "fig3",
        caption: "Figure 3: total stall duration for different bandwidths",
        grid: fig2_grid,
        tables: |r, _, _| {
            let title = "Total stall duration, seconds (mean per viewer)";
            vec![r.table(title, STALL_SECS, 1)]
        },
    },
    Figure {
        name: "fig4",
        caption: "Figure 4: startup time for different bandwidths",
        grid: |base| {
            let mut bandwidths = BANDWIDTHS;
            bandwidths[3] = ("1024 kB/s", 1_024_000.0); // its x-axis tops out higher
            let mut base = paper_cap(base);
            // The one experiment the paper runs with the seeder 500 ms away.
            base.swarm.seeder_one_way_latency_secs = 0.5;
            Grid::new("bandwidth", &bandwidths, &SPLICINGS[1..], |&bw, &s| {
                base.clone().with_bandwidth(bw).with_splicing(s)
            })
        },
        tables: |r, _, _| {
            let title = "Startup time, seconds (mean per viewer)";
            vec![r.table(title, STARTUP_SECS, 1)]
        },
    },
    Figure {
        name: "fig5",
        caption: "Figure 5: total number of stalls for different pool sizes",
        grid: |base| {
            let policies = [
                ("adaptive", PolicyConfig::Adaptive),
                ("pool-2", PolicyConfig::Fixed(2)),
                ("pool-4", PolicyConfig::Fixed(4)),
                ("pool-8", PolicyConfig::Fixed(8)),
            ];
            let base = paper_cap(base);
            Grid::new("bandwidth", &BANDWIDTHS, &policies, |&bw, &p| {
                base.clone().with_bandwidth(bw).with_policy(p)
            })
        },
        // Big pools pay up front: the supplementary tables show the
        // overload the raw stall count partly hides (EXPERIMENTS.md).
        tables: |r, _, _| {
            let stalls = "Total number of stalls (rounded mean per viewer)";
            let delay = "Total delay = startup + stall duration, seconds (supplementary)";
            vec![
                r.table(stalls, ROUNDED_STALLS, 0),
                r.table("Startup time, seconds (supplementary)", STARTUP_SECS, 1),
                r.table(delay, |m| m.startup_secs.mean + m.stall_secs.mean, 1),
            ]
        },
    },
    Figure {
        name: "cdn",
        caption: "§IV ablation: CDN-served streaming vs segment duration",
        // A CDN client downloads one segment at a time, so a segment must
        // fit B·T bytes (Eq. 1 with k = 1) or the buffer drains first;
        // `splicecast formula --buffered 4` prints the bound.
        grid: |base| {
            let durations = [1.0, 2.0, 4.0, 8.0, 16.0].map(|d: f64| (format!("{d}s"), d));
            let base = cdn_only(base, 0.1);
            Grid::new("bandwidth", &BANDWIDTHS[..2], &durations, |&bw, &d| {
                base.clone()
                    .with_bandwidth(bw)
                    .with_splicing(SplicingSpec::Duration(d))
            })
        },
        tables: |r, _, _| {
            let title = "Total number of stalls, CDN-only delivery (mean per viewer)";
            vec![r.table(title, STALLS, 1)]
        },
    },
    Figure {
        name: "churn",
        caption: "Churn ablation: stalls of staying viewers vs departure rate at 256 kB/s",
        grid: |base| {
            let fractions = [0.0, 0.2, 0.4, 0.6].map(|f: f64| (format!("{f}"), f));
            let policies = [
                ("adaptive", PolicyConfig::Adaptive),
                ("pool-1", PolicyConfig::Fixed(1)),
                ("pool-4", PolicyConfig::Fixed(4)),
            ];
            let base = base.clone().with_bandwidth(256_000.0);
            Grid::new("volatile fraction", &fractions, &policies, |&f, &p| {
                let mut config = base.clone().with_policy(p);
                config.swarm.churn = (f > 0.0).then(|| ChurnConfig::new(f, 45.0));
                config
            })
        },
        tables: |r, _, _| {
            let stalls = "Total number of stalls among staying viewers (mean)";
            vec![
                r.table(stalls, STALLS, 1),
                r.table("Total stall duration, seconds (mean)", STALL_SECS, 1),
            ]
        },
    },
    Figure {
        name: "varbw",
        caption: "§VIII ablation: stalls under peer links oscillating around 256 kB/s",
        grid: |base| {
            let mean_bw = 256_000.0;
            let amplitudes = [
                ("constant", 0.0),
                ("±64 kB/s", 64_000.0),
                ("±128 kB/s", 128_000.0),
            ];
            let base = base.clone().with_bandwidth(mean_bw);
            Grid::new("bandwidth profile", &amplitudes, &SPLICINGS, |&amp, &s| {
                let mut config = base.clone().with_splicing(s);
                if amp > 0.0 {
                    // Square-wave oscillation with a 10-second half period.
                    config.swarm.bandwidth_schedule = (0..120)
                        .map(|i| {
                            let sign = if i % 2 == 0 { -1.0 } else { 1.0 };
                            (10.0 * f64::from(i + 1), mean_bw + sign * amp)
                        })
                        .collect();
                }
                config
            })
        },
        tables: |r, _, _| {
            let secs = "Total stall duration, seconds (mean per viewer)";
            vec![
                r.table("Total number of stalls (mean per viewer)", STALLS, 1),
                r.table(secs, STALL_SECS, 1),
            ]
        },
    },
    Figure {
        name: "ramp",
        caption: "§VIII ablation: ramped segment durations vs fixed durations",
        // The ramp should start nearly as fast as 2 s splicing while its
        // steady state approaches 8 s splicing's efficiency.
        grid: |base| {
            let ramp = SplicingSpec::Ramp {
                initial: 1.0,
                max: 8.0,
            };
            let splicings = [SPLICINGS[1], SPLICINGS[3], ("ramp 1→8s", ramp)];
            Grid::new("bandwidth", &BANDWIDTHS, &splicings, |&bw, &s| {
                base.clone().with_bandwidth(bw).with_splicing(s)
            })
        },
        tables: |r, _, _| {
            vec![
                r.table("Startup time, seconds", STARTUP_SECS, 1),
                r.table("Stalls per viewer", STALLS, 1),
                r.table("Total stall duration, seconds", STALL_SECS, 1),
            ]
        },
    },
    Figure {
        name: "competing",
        caption: "§VIII ablation: splicing under competing flows at 256 kB/s",
        // A background bulk server keeps long-lived downloads running
        // toward every viewer, so the stream shares each access link:
        // every column should rise and the ordering (gop worst) survive.
        grid: |base| {
            let loads = [("no load", 0usize), ("1 flow/peer", 1), ("2 flows/peer", 2)];
            let base = base.clone().with_bandwidth(256_000.0);
            Grid::new("cross traffic", &loads, &SPLICINGS, |&flows, &s| {
                let mut config = base.clone().with_splicing(s);
                config.swarm.cross_traffic = (flows > 0).then_some(CrossTrafficConfig {
                    flows_per_peer: flows,
                });
                config
            })
        },
        tables: |r, _, _| {
            vec![
                r.table("Stalls per viewer under background load", STALLS, 1),
                r.table("Total stall duration, seconds", STALL_SECS, 1),
            ]
        },
    },
    Figure {
        name: "abr",
        caption: "§I ablation: bitrate adaptation vs duration-adaptive splicing",
        // The paper's alternative to a bitrate ladder: keep full quality,
        // pick the segment duration from the §IV bound (T = 4 s of buffer
        // as the design point), stream CDN-only like the ABR baseline.
        grid: |base| {
            let base = cdn_only(base, 0.05);
            let bitrate = PAPER_BITRATE_BPS as f64;
            let series = [("dur-adapt", ())];
            Grid::new("bandwidth", &ABR_BANDWIDTHS, &series, |&bw, _| {
                let d = max_cdn_segment_secs(bw, 4.0, bitrate).clamp(1.0, 8.0);
                base.clone()
                    .with_bandwidth(bw)
                    .with_splicing(SplicingSpec::Duration(d))
            })
        },
        tables: abr_tables,
    },
];

/// The x-axis of Figs. 2, 3 and 5, bytes per second.
const BANDWIDTHS: [(&str, f64); 4] = [
    ("128 kB/s", 128_000.0),
    ("256 kB/s", 256_000.0),
    ("512 kB/s", 512_000.0),
    ("768 kB/s", 768_000.0),
];

/// Thin links, where a 1 Mbps stream is at or past the edge.
const ABR_BANDWIDTHS: [(&str, f64); 3] = [
    ("96 kB/s", 96_000.0),
    ("160 kB/s", 160_000.0),
    ("256 kB/s", 256_000.0),
];

/// The splicing schemes compared in Figs. 2 and 3.
const SPLICINGS: [(&str, SplicingSpec); 4] = [
    ("gop", SplicingSpec::Gop),
    ("2s", SplicingSpec::Duration(2.0)),
    ("4s", SplicingSpec::Duration(4.0)),
    ("8s", SplicingSpec::Duration(8.0)),
];

/// `base` with the simulated-time cap Figs. 2–5 run under. On the scale
/// stack Fig. 4's "2 s at 128 kB/s" ends after 1810–1820 simulated
/// seconds, just past the default cap of 1800; a run that ends sooner is
/// bit-identical under either cap.
fn paper_cap(base: &ExperimentConfig) -> ExperimentConfig {
    let mut base = base.clone();
    base.swarm.max_sim_secs = 3600.0;
    base
}

/// Bandwidth × splicing scheme: the grid Figs. 2 and 3 both read.
fn fig2_grid(base: &ExperimentConfig) -> Grid {
    let base = paper_cap(base);
    Grid::new("bandwidth", &BANDWIDTHS, &SPLICINGS, |&bw, &s| {
        base.clone().with_bandwidth(bw).with_splicing(s)
    })
}

/// `base` served by a fat edge cache alone (§IV: no P2P exchange).
fn cdn_only(base: &ExperimentConfig, one_way_latency_secs: f64) -> ExperimentConfig {
    let mut base = base.clone();
    base.swarm.p2p = false;
    base.swarm.cdn = Some(CdnConfig {
        bandwidth_bytes_per_sec: 8_000_000.0,
        one_way_latency_secs,
        upload_slots: 64,
    });
    base
}

/// The ABR arms (CDN-served clients on a 250k/500k/1M ladder: few stalls,
/// degraded quality on thin links; or pinned to the top rung, which stalls
/// instead) beside the grid's duration-adaptive column, which holds full
/// quality and pays in stall time only when the link cannot carry it.
fn abr_tables(dur_adapt: &GridResult, base: &ExperimentConfig, seeds: &[u64]) -> Vec<Table> {
    let ladder = Ladder::builder()
        .duration_secs(base.video.duration_secs)
        .build();
    let buffer_based = AbrAlgorithm::BufferBased {
        low_secs: 4.0,
        high_secs: 16.0,
    };
    let rate_based = AbrAlgorithm::RateBased { safety: 0.8 };
    let arms = [buffer_based, rate_based, AbrAlgorithm::FixedRendition(2)];
    let series = ["buffer-abr", "rate-abr", "fixed-1Mbps", "dur-adapt"];
    let mut tables = [
        ("Stalls per viewer (CDN-served)", 1),
        ("Total stall duration, seconds", 1),
        ("Delivered quality, Mbps (1.0 = full)", 2),
    ]
    .map(|(title, precision)| {
        let mut table = Table::new(title, "bandwidth", &series);
        table.precision(precision);
        table
    });
    for (row, (label, bandwidth)) in ABR_BANDWIDTHS.iter().enumerate() {
        // Per series, one value for each table: stalls, stall seconds, Mbps.
        let mut columns: Vec<[f64; 3]> = Vec::new();
        for algorithm in arms {
            let config = AbrConfig {
                n_clients: base.swarm.n_leechers,
                client_bandwidth_bytes_per_sec: *bandwidth,
                algorithm,
                ..AbrConfig::default()
            };
            let mut sums = [0.0; 3];
            for &seed in seeds {
                let m = run_abr(&ladder, &config, seed);
                let run = [m.mean_stalls(), m.mean_stall_secs(), m.mean_bitrate_bps()];
                for (sum, value) in sums.iter_mut().zip(run) {
                    *sum += value;
                }
            }
            let [stalls, stall_secs, bps] = sums.map(|sum| sum / seeds.len() as f64);
            columns.push([stalls, stall_secs, bps / 1e6]);
        }
        let cell = dur_adapt.at(row, 0);
        let full_quality = PAPER_BITRATE_BPS as f64 / 1e6;
        columns.push([cell.stalls.mean, cell.stall_secs.mean, full_quality]);
        for (k, table) in tables.iter_mut().enumerate() {
            let values: Vec<f64> = columns.iter().map(|column| column[k]).collect();
            table.push_row(label, &values);
        }
    }
    tables.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VideoSpec;

    /// What `--peers 5 --clip-secs 24` asks for.
    fn quick_base() -> ExperimentConfig {
        let mut base = ExperimentConfig::paper_baseline().with_leechers(5);
        base.video = VideoSpec {
            duration_secs: 24.0,
        };
        base
    }

    #[test]
    fn every_registered_figure_runs_and_fills_its_tables() {
        let base = quick_base();
        for f in &FIGURES {
            assert_eq!(figure(f.name).map(|g| g.name), Some(f.name));
            assert_eq!(f.grid(&base).check(), Ok(()), "{}", f.name);
            let tables = f.run(&base, &[1], 2);
            assert!(!tables.is_empty(), "{}", f.name);
            for table in &tables {
                assert!(!table.is_empty(), "{}: {}", f.name, table.title());
                assert!(!table.series_names().is_empty(), "{}", f.name);
            }
        }
        assert!(figure("fig6").is_none());
    }

    #[test]
    fn cells_are_row_major_and_tables_follow_them() {
        let rows = [("lo", 256_000.0), ("hi", 512_000.0)];
        let series = [("3", 3usize), ("4", 4), ("5", 5)];
        let base = quick_base();
        let grid = Grid::new("bandwidth", &rows, &series, |&bw, &n| {
            base.clone().with_bandwidth(bw).with_leechers(n)
        });
        let cell = |r: usize, s: usize| &grid.cells[r * 3 + s].swarm;
        assert_eq!(cell(0, 2).n_leechers, 5);
        assert_eq!(cell(1, 0).n_leechers, 3);
        assert_eq!(cell(1, 0).peer_bandwidth_bytes_per_sec, 512_000.0);
        let result = grid.run(&[1], 2);
        let table = result.table("t", |m| m.startup_secs.mean, 1);
        assert_eq!(table.len(), 2);
        assert_eq!(table.row_label(1).as_deref(), Some("hi"));
        assert_eq!(table.series_names(), ["3", "4", "5"]);
        assert_eq!(table.value(1, 2), Some(result.at(1, 2).startup_secs.mean));
    }
}
