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
//! - [`optimal_pool_size`] / [`max_cdn_segment_bytes`] /
//!   [`max_cdn_segment_secs`]: the paper's formulas, standalone;
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
mod report;
mod runner;
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
pub use experiment::{run_abr_all, run_all, run_averaged, AveragedMetrics, DEFAULT_SEEDS};
pub use figures::{Grid, GridResult};
pub use report::Table;
pub use runner::{run_once, PreparedExperiment, RunResult};
pub use stats::rounded_mean;

pub use splicecast_media as media;
pub use splicecast_netsim as netsim;
pub use splicecast_player as player;
pub use splicecast_protocol as protocol;
pub use splicecast_swarm as swarm;

// Commonly-used types, re-exported flat for convenience.
pub use splicecast_media::{ContentProfile, Ladder, SegmentList, SplicingSpec, Video};
pub use splicecast_swarm::{
    max_cdn_segment_bytes, max_cdn_segment_secs, optimal_pool_size, run_abr, AbrAlgorithm,
    AbrConfig, AbrMetrics, CdnConfig, CdnOutageConfig, ChurnConfig, ControlPlane,
    ControlPlaneStats, CrashChurnConfig, DefenseConfig, DiscoveryMode, DisseminationStats,
    EstimatorKind, FaultPlanConfig, LinkFlapConfig, PeerFaultStats, PeerMemStats, PolicyConfig,
    SchedulerStats, SwarmConfig, SwarmMetrics,
};

/// An experiment's splicing is media's [`SplicingSpec`], re-exported:
/// these tests pin what core's configs and reports see of it.
#[cfg(test)]
mod splicing {
    mod tests {
        use crate::{ExperimentConfig, PreparedExperiment, SplicingSpec, VideoSpec};

        #[test]
        fn specs_build_and_label() {
            assert_eq!(SplicingSpec::Gop.label(), "gop");
            assert_eq!(SplicingSpec::Duration(2.0).label(), "2s");
            assert_eq!(SplicingSpec::Bytes(1024).label(), "1024B");
        }

        #[test]
        fn ramp_spec_builds() {
            let ramp = SplicingSpec::Ramp {
                initial: 1.0,
                max: 8.0,
            };
            assert_eq!(ramp.label(), "ramp(1→8s)");
            let video = VideoSpec { duration_secs: 8.0 }.build();
            ramp.splice(&video).validate(&video).unwrap();
        }

        /// An experiment's `check()` fails exactly where preparing its
        /// media panics on the splicing.
        #[test]
        fn check_agrees_with_build() {
            let config = |splicing| {
                ExperimentConfig {
                    video: VideoSpec { duration_secs: 4.0 },
                    ..ExperimentConfig::default()
                }
                .with_splicing(splicing)
            };
            let ramp = |initial, max| SplicingSpec::Ramp { initial, max };
            let bad = [
                SplicingSpec::Duration(0.0),
                SplicingSpec::Duration(-2.0),
                SplicingSpec::Duration(f64::NAN),
                SplicingSpec::Duration(f64::INFINITY),
                SplicingSpec::Bytes(0),
                ramp(8.0, 1.0),
                ramp(0.0, 1.0),
                // Under half a 90 kHz tick: zero ticks, an endless boundary walk.
                SplicingSpec::Duration(1e-6),
                ramp(1e-6, 1.0),
            ];
            for spec in bad {
                let config = config(spec);
                assert!(config.check().is_err(), "{spec:?}");
                assert!(
                    std::panic::catch_unwind(|| PreparedExperiment::new(&config)).is_err(),
                    "{spec:?}"
                );
            }
            for spec in [
                SplicingSpec::Gop,
                SplicingSpec::Duration(0.5),
                SplicingSpec::Duration(1e-5),
                SplicingSpec::Bytes(1),
                ramp(2.0, 2.0),
            ] {
                let config = config(spec);
                assert_eq!(config.check(), Ok(()), "{spec:?}");
                PreparedExperiment::new(&config);
            }
        }
    }
}
