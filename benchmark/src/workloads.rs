//! The six workloads: what each one runs and why it is here.
//!
//! A workload is a list of experiment configurations (one for a `swarm_*`
//! workload, the 44 Figure 2–5 points for a grid) and the swarm seeds each
//! configuration runs with. One *pass* runs every configuration with every
//! seed, serially, through `PreparedExperiment::{new, run}` — the path the
//! CLI's `run` takes.

use splicecast_core::{
    ChurnConfig, CrashChurnConfig, DefenseConfig, DiscoveryMode, ExperimentConfig, FaultPlanConfig,
    PolicyConfig, SplicingSpec,
};

/// Every workload, in the order they are run and reported.
pub const NAMES: [&str; 6] = [
    "paper_grid",
    "paper_grid_scale",
    "swarm_fat",
    "swarm_thin",
    "swarm_gop",
    "swarm_churn",
];

/// Smoke mode caps: small enough that all six workloads and every driver
/// finish in a few seconds, large enough that every code path still runs.
const SMOKE_LEECHERS: usize = 12;
const SMOKE_CLIP_SECS: f64 = 24.0;

/// One configuration of a workload. `fig`/`variant`/`kbps` name a grid
/// point for the shape predicates; a `swarm_*` workload has one point.
#[derive(Debug, Clone)]
pub struct Point {
    pub fig: &'static str,
    pub variant: String,
    pub kbps: u32,
    pub config: ExperimentConfig,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub points: Vec<Point>,
    /// Swarm seeds every point runs with.
    pub seeds: Vec<u64>,
    /// Whether the Figure 2–5 shape predicates apply.
    pub is_grid: bool,
}

impl Workload {
    /// Builds workload `name` for run seed `seed` (default 5). A `swarm_*`
    /// workload uses `seed` as its swarm seed; a grid uses the paper's
    /// three-run methodology with seeds `101·k + (seed − 5)`, k = 1..3, so
    /// the default reproduces 101/202/303.
    pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let name = *NAMES.iter().find(|n| **n == name)?;
        let is_grid = name.starts_with("paper_grid");
        let mut points = match name {
            "paper_grid" => grid_points(false),
            "paper_grid_scale" => grid_points(true),
            "swarm_fat" => vec![swarm_point(name, swarm_fat())],
            "swarm_thin" => vec![swarm_point(name, thin_links(250, 256_000.0))],
            "swarm_gop" => vec![swarm_point(
                name,
                thin_links(80, 256_000.0).with_splicing(SplicingSpec::Gop),
            )],
            "swarm_churn" => vec![swarm_point(name, swarm_churn())],
            _ => unreachable!("NAMES is exhaustive"),
        };
        if smoke {
            for point in &mut points {
                let swarm = &mut point.config.swarm;
                swarm.n_leechers = swarm.n_leechers.min(SMOKE_LEECHERS);
                point.config.video.duration_secs = SMOKE_CLIP_SECS;
            }
        }
        let seeds = if is_grid {
            (1..=3u64)
                .map(|k| (101 * k).wrapping_add(seed).wrapping_sub(5))
                .collect()
        } else {
            vec![seed]
        };
        Some(Workload {
            points,
            seeds,
            is_grid,
        })
    }

    /// The same workload at half the leechers, for `core.scaling_alpha`.
    pub fn half_size(&self) -> Workload {
        let mut half = self.clone();
        for point in &mut half.points {
            let n = &mut point.config.swarm.n_leechers;
            *n = (*n / 2).max(1);
        }
        half
    }

    /// Swarm runs in one pass.
    pub fn runs_per_pass(&self) -> usize {
        self.points.len() * self.seeds.len()
    }

    pub fn clip_secs(&self) -> f64 {
        self.points[0].config.video.duration_secs
    }
}

fn swarm_point(name: &'static str, config: ExperimentConfig) -> Point {
    Point {
        fig: name,
        variant: String::new(),
        kbps: (config.swarm.peer_bandwidth_bytes_per_sec / 1000.0) as u32,
        config,
    }
}

/// The 44 points of Figures 2–5 (Figures 2 and 3 share their 16), on the
/// paper stack or — `scale` — on the scale stack.
fn grid_points(scale: bool) -> Vec<Point> {
    let base = |kbps: u32| {
        let mut cfg = ExperimentConfig::paper_baseline().with_bandwidth(f64::from(kbps) * 1000.0);
        // On the scale stack the Figure 4 point "2 s at 128 kB/s" ends
        // after 1810-1820 simulated seconds for most seeds, just past the
        // default cap of 1800, which would cut viewers off mid-clip. A
        // run that ends sooner is bit-identical under either cap.
        cfg.swarm.max_sim_secs = 3600.0;
        if scale {
            cfg.with_scale_profile()
        } else {
            cfg
        }
    };
    let splicings = [
        ("gop", SplicingSpec::Gop),
        ("2s", SplicingSpec::Duration(2.0)),
        ("4s", SplicingSpec::Duration(4.0)),
        ("8s", SplicingSpec::Duration(8.0)),
    ];
    let mut points = Vec::new();
    for kbps in [128, 256, 512, 768] {
        for (label, splicing) in splicings {
            points.push(Point {
                fig: "fig2",
                variant: label.to_owned(),
                kbps,
                config: base(kbps).with_splicing(splicing),
            });
        }
    }
    // Figure 4: startup time with the seeder 500 ms away.
    for kbps in [128, 256, 512, 1024] {
        for (label, splicing) in &splicings[1..] {
            let mut config = base(kbps).with_splicing(*splicing);
            config.swarm.seeder_one_way_latency_secs = 0.5;
            points.push(Point {
                fig: "fig4",
                variant: (*label).to_owned(),
                kbps,
                config,
            });
        }
    }
    // Figure 5: adaptive pooling against fixed pools, 4 s splicing.
    for kbps in [128, 256, 512, 768] {
        for (label, policy) in [
            ("adaptive", PolicyConfig::Adaptive),
            ("fixed2", PolicyConfig::Fixed(2)),
            ("fixed4", PolicyConfig::Fixed(4)),
            ("fixed8", PolicyConfig::Fixed(8)),
        ] {
            points.push(Point {
                fig: "fig5",
                variant: label.to_owned(),
                kbps,
                config: base(kbps).with_policy(policy),
            });
        }
    }
    points
}

/// The operating point of every existing big-swarm number: links so fat
/// that flows sit at their loss ceiling and no link saturates.
fn swarm_fat() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_baseline()
        .with_splicing(SplicingSpec::Duration(2.0))
        .with_leechers(200)
        .with_scale_profile();
    cfg.swarm.peer_bandwidth_bytes_per_sec = 16_000_000.0;
    cfg.swarm.seeder_bandwidth_bytes_per_sec = 64_000_000.0;
    cfg.swarm.seeder_upload_slots = 32;
    cfg.swarm.end_to_end_loss = 0.01;
    cfg
}

/// Scale stack, 2 s splicing, thin access links: the seeder gets 8× a
/// peer's bandwidth and 16 slots, loss stays at the paper's 5 %.
fn thin_links(n_leechers: usize, peer_bytes_per_sec: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_baseline()
        .with_splicing(SplicingSpec::Duration(2.0))
        .with_leechers(n_leechers)
        .with_scale_profile();
    cfg.swarm.peer_bandwidth_bytes_per_sec = peer_bytes_per_sec;
    cfg.swarm.seeder_bandwidth_bytes_per_sec = 8.0 * peer_bytes_per_sec;
    cfg.swarm.seeder_upload_slots = 16;
    cfg.swarm.max_sim_secs = 3600.0;
    cfg
}

/// Tracker discovery, graceful churn, crash-stop faults, lossy and delayed
/// control messages, and the peer-side defenses: the write/evict side of
/// the state the other workloads only read.
fn swarm_churn() -> ExperimentConfig {
    let mut cfg = thin_links(250, 512_000.0)
        .with_faults(FaultPlanConfig {
            crash: Some(CrashChurnConfig::new(0.1, 45.0)),
            message_loss: 0.02,
            message_delay_prob: 0.05,
            message_delay_max_secs: 1.5,
            ..FaultPlanConfig::default()
        })
        .with_defense(DefenseConfig::default());
    cfg.swarm.discovery = DiscoveryMode::Tracker;
    cfg.swarm.churn = Some(ChurnConfig::new(0.3, 45.0));
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_44_points_and_the_paper_seeds() {
        for name in ["paper_grid", "paper_grid_scale"] {
            let w = Workload::build(name, 5, false).unwrap();
            assert_eq!(w.points.len(), 44);
            assert_eq!(w.seeds, [101, 202, 303]);
            assert_eq!(w.runs_per_pass(), 132);
        }
        let w = Workload::build("paper_grid", 0, false).unwrap();
        assert_eq!(w.seeds, [96, 197, 298]);
    }

    #[test]
    fn smoke_mode_caps_every_workload() {
        for name in NAMES {
            let w = Workload::build(name, 5, true).unwrap();
            for p in &w.points {
                assert!(p.config.swarm.n_leechers <= 12);
                assert_eq!(p.config.video.duration_secs, 24.0);
                p.config.swarm.validate();
            }
        }
        assert!(Workload::build("nope", 5, true).is_none());
    }
}
