//! # splicecast-core
//!
//! The experiment layer and public façade of **splicecast**, a from-scratch
//! Rust reproduction of *"Video Splicing Techniques for P2P Video
//! Streaming"* (Islam & Khan, ICDCS 2015).
//!
//! The paper studies how the way a video is cut into segments (GOP-based vs
//! duration-based splicing) affects stalls in TCP-based P2P streaming, and
//! proposes Eq. 1 — `k = max(⌊B·T/W⌋, 1)` — for how many segments a peer
//! should download simultaneously. This crate bundles the substrate crates
//! and exposes the experiment workflow:
//!
//! - [`ExperimentConfig`] / [`VideoSpec`] / [`SplicingSpec`]: describe an
//!   experiment (defaults = the paper's GENI setup);
//! - [`run_once`] → [`RunResult`]: one seeded, deterministic swarm run;
//! - [`run_averaged`]: the paper's three-run rounded-average methodology;
//! - [`run_all`]: every (experiment, seed) run on the one worker pool;
//! - [`Grid`] / [`figures::FIGURES`]: rows × series grids of experiments
//!   and the named figures built from them;
//! - [`optimal_pool_size`] / [`max_cdn_segment_bytes`]: the paper's
//!   formulas, standalone;
//! - [`Table`]: figure-shaped text reports.
//!
//! ## Quickstart
//!
//! ```no_run
//! use splicecast_core::{run_averaged, ExperimentConfig, SplicingSpec, DEFAULT_SEEDS};
//!
//! let gop = ExperimentConfig::paper_baseline().with_splicing(SplicingSpec::Gop);
//! let four = ExperimentConfig::paper_baseline().with_splicing(SplicingSpec::Duration(4.0));
//! let (g, f) = (run_averaged(&gop, &DEFAULT_SEEDS), run_averaged(&four, &DEFAULT_SEEDS));
//! println!("gop: {} stalls, 4s: {} stalls", g.rounded_stalls, f.rounded_stalls);
//! ```
//!
//! The substrate crates are re-exported as modules for direct access:
//! [`media`], [`netsim`], [`player`], [`protocol`], [`swarm`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chart;
mod config;
mod experiment;
pub mod figures;
mod formula;
mod report;
mod runner;
mod splicing;
mod stats;

/// One line of a `check()`: `Err(message)` unless `ok`.
fn rule(ok: bool, message: impl Into<String>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message.into())
    }
}

pub use config::{ExperimentConfig, VideoSpec};
pub use experiment::{run_all, run_averaged, AveragedMetrics, DEFAULT_SEEDS};
pub use figures::{Grid, GridResult};
pub use formula::{max_cdn_segment_bytes, max_cdn_segment_secs, optimal_pool_size};
pub use report::Table;
pub use runner::{run_once, PreparedExperiment, RunResult};
pub use splicing::SplicingSpec;
pub use stats::rounded_mean;

pub use splicecast_media as media;
pub use splicecast_netsim as netsim;
pub use splicecast_player as player;
pub use splicecast_protocol as protocol;
pub use splicecast_swarm as swarm;

// Commonly-used types, re-exported flat for convenience.
pub use splicecast_media::{ContentProfile, Ladder, SegmentList, Video};
pub use splicecast_swarm::{
    run_abr, AbrAlgorithm, AbrConfig, AbrMetrics, CdnConfig, CdnOutageConfig, ChurnConfig,
    ControlPlane, ControlPlaneStats, CrashChurnConfig, DefenseConfig, DiscoveryMode,
    DisseminationStats, EstimatorKind, FaultPlanConfig, LinkFlapConfig, PeerFaultStats,
    PeerMemStats, PolicyConfig, SchedulerStats, SwarmConfig, SwarmMetrics,
};
