//! # splicecast-swarm
//!
//! The **P2P video-streaming application** of *"Video Splicing Techniques
//! for P2P Video Streaming"* (ICDCS 2015): a seeder and a set of leechers
//! exchanging spliced MPEG-4 segments over a BitTorrent-like protocol on a
//! simulated star network.
//!
//! - [`SeederNode`] / [`LeecherNode`]: the node behaviours (manifest
//!   exchange, handshakes, bitfields, requests, bulk transfers, playback);
//! - [`PolicyConfig`]: the §III download policies (Eq. 1 adaptive
//!   pooling or a fixed pool), with [`optimal_pool_size`] implementing
//!   Eq. 1 directly;
//! - [`ChurnConfig`]: peers leaving mid-stream; [`CdnConfig`]: the §IV
//!   hybrid-CDN mode with its sizing bounds, [`max_cdn_segment_bytes`] and
//!   [`max_cdn_segment_secs`];
//! - [`FaultPlanConfig`] / [`DefenseConfig`]: deterministic fault injection
//!   (crash-stop churn, control-message loss/delay, link flaps, CDN
//!   outages) and the peer-side defense it exercises (source backoff
//!   bans);
//! - [`DiscoveryMode`]: full-knowledge or tracker-based peer discovery
//!   (the seeder doubles as the tracker);
//! - [`run_abr`]: the §I adaptive-bitrate baseline (CDN-served ladder
//!   clients) the paper motivates against;
//! - [`run_swarm`]: build, run, and measure one swarm deterministically.
//!
//! ## Example
//!
//! ```no_run
//! use splicecast_media::{GopSplicer, Splicer, Video};
//! use splicecast_swarm::{run_swarm, SwarmConfig};
//!
//! let video = Video::builder().seed(1).build(); // the paper's 2-min clip
//! let segments = GopSplicer.splice(&video);
//! let metrics = run_swarm(&segments, &SwarmConfig::default(), 42);
//! println!("stalls per viewer: {:.1}", metrics.mean_stalls());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod abr;
mod cdn;
mod churn;
mod cross;
mod fault;
mod leecher;
mod metrics;
mod policy;
mod scheduler;
mod seeder;
mod swarm;
mod upload;
mod views;

/// One configuration rule: `Err(message)` unless `ok`. Every config's
/// `check()` chains these with `?`, and its `validate()` panics with the
/// same message.
fn rule(ok: bool, message: impl Into<String>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message.into())
    }
}

/// The longest time a churn or fault knob may name, seconds: a day, like
/// the clip itself. Past it (or at infinity) a sampled instant no longer
/// fits the simulator's clock.
const MAX_KNOB_SECS: f64 = 86_400.0;

/// The rule for a knob that is a length of time: `0 < secs ≤` a day, which
/// is false for NaN and the infinities.
fn positive_secs(what: &str, secs: f64) -> Result<(), String> {
    rule(
        secs > 0.0 && secs <= MAX_KNOB_SECS,
        format!("{what} must be positive and at most {MAX_KNOB_SECS} s, got {secs}"),
    )
}

/// Whether `bytes_per_sec` is a rate netsim can build a link for:
/// positive, and finite in bits per second (the unit links take), which
/// is false for NaN, the infinities and the last factor of 8 below
/// `f64::MAX`.
fn link_rate(bytes_per_sec: f64) -> bool {
    bytes_per_sec > 0.0 && (bytes_per_sec * 8.0).is_finite()
}

/// The body of every `validate()`: panics with `check()`'s message.
#[track_caller]
fn must(checked: Result<(), String>) {
    if let Err(message) = checked {
        panic!("{message}");
    }
}

pub use abr::{run_abr, AbrAlgorithm, AbrConfig, AbrMetrics, AbrReport};
pub use cdn::{max_cdn_segment_bytes, max_cdn_segment_secs, CdnConfig};
pub use churn::ChurnConfig;
pub use cross::{CrossTrafficConfig, CrossTrafficNode};
pub use fault::{
    CdnOutageConfig, CrashChurnConfig, DefenseConfig, FaultPlanConfig, LinkFlapConfig,
};
pub use leecher::{LeecherConfig, LeecherNode};
pub use metrics::{
    ControlPlaneStats, DisseminationStats, MetricsSink, PeerFaultStats, PeerMemStats, PeerReport,
    SchedulerStats, SwarmMetrics,
};
pub use policy::{optimal_pool_size, BandwidthEstimator, EstimatorKind, PolicyConfig, WEstimate};
pub use scheduler::{pick_source, HolderIndex, SourceCandidate};
pub use seeder::{info_hash_of, SeederNode};
pub use swarm::{
    auto_coalesce_secs, run_swarm, run_swarm_shared, ControlPlane, DiscoveryMode,
    DisseminationMode, SchedulerMode, SwarmConfig,
};
