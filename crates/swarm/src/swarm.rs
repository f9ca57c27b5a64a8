//! Wiring a swarm: builds the star network, the seeder, the leechers, and
//! runs the simulation to completion.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use splicecast_media::SegmentList;
use splicecast_netsim::{
    star, FlowModel, LinkSpec, NullBehavior, SimDuration, SimTime, Simulator, TcpConfig,
};

use crate::cdn::CdnConfig;
use crate::churn::ChurnConfig;
use crate::fault::{DefenseConfig, FaultPlanConfig};
use crate::leecher::{LeecherConfig, LeecherNode};
use crate::metrics::SwarmMetrics;
use crate::policy::{BandwidthEstimator, EstimatorKind, PolicyConfig};
use crate::seeder::SeederNode;
use crate::{link_rate, must, rule};

/// How leechers learn the addresses of their peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiscoveryMode {
    /// Every leecher knows the full membership up front (a configured
    /// experiment, like the paper's RSpec-provisioned hosts).
    Full,
    /// Leechers know only the seeder and learn peers from its tracker
    /// endpoint (`PeerListRequest`/`PeerList`).
    Tracker,
}

/// Which control-plane implementation drives availability dissemination
/// and the maintenance pump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlPlane {
    /// Every completion broadcasts an immediate `Have` and a fixed-cadence
    /// pump timer polls for work: O(peers²) messages per run.
    #[default]
    Legacy,
    /// Completions coalesce into `HaveBundle`s flushed on a short window,
    /// pumps fire on armed deadlines with a low-rate fallback heartbeat,
    /// and completed peers unsubscribe from announcements.
    Eventful,
}

impl std::str::FromStr for ControlPlane {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw {
            "legacy" => Ok(ControlPlane::Legacy),
            "eventful" => Ok(ControlPlane::Eventful),
            other => Err(format!(
                "unknown control plane `{other}` (legacy | eventful)"
            )),
        }
    }
}

/// Retired. Every leecher finds a segment's sources the same way — one walk
/// of its neighbour views, with a pass that provably cannot issue a
/// request skipped — and nothing reads this type any more: it and the two
/// config fields of its type stay only because `benchmark/src/traced.rs`
/// copies one field into the other (ROADMAP 5(d)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerMode {
    /// Was: rescan every neighbour view on every pass, no skip.
    Scan,
    /// Was: walk a per-segment holder index, skipping passes.
    #[default]
    Indexed,
}

/// Retired. Every leecher reads announced availability the same way, and
/// nothing reads this type any more: it and the two config fields of its
/// type stay only because `benchmark/src/traced.rs` copies one field into
/// the other (ROADMAP 5(d)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisseminationMode {
    /// Was: index every announcement on arrival.
    #[default]
    Full,
    /// Was: a deferred holder-index fold plus a 64-segment request
    /// lookahead.
    Windowed,
}

/// Configuration of one swarm run. The defaults are the paper's GENI
/// setup: 20 nodes (one seeder + 19 peers) in a star, 50 ms latency and
/// 5 % loss between peers, 500 ms latency to the seeder, 128 kB/s links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwarmConfig {
    /// Number of leechers (viewers).
    pub n_leechers: usize,
    /// Access-link capacity of each leecher, bytes per second.
    pub peer_bandwidth_bytes_per_sec: f64,
    /// Access-link capacity of the seeder, bytes per second.
    pub seeder_bandwidth_bytes_per_sec: f64,
    /// One-way latency between two peers, seconds (paper: 50 ms).
    pub peer_one_way_latency_secs: f64,
    /// One-way latency between a peer and the seeder, seconds. The paper
    /// uses 50 ms for the main experiments and calls out 500 ms only for
    /// the startup-time measurement (Fig. 4).
    pub seeder_one_way_latency_secs: f64,
    /// End-to-end packet loss between two peers (paper: 5 %).
    pub end_to_end_loss: f64,
    /// Concurrent uploads each leecher serves.
    pub peer_upload_slots: usize,
    /// Concurrent uploads the seeder serves.
    pub seeder_upload_slots: usize,
    /// The download-pool policy (§III).
    pub policy: PolicyConfig,
    /// How the policy's `B` is estimated.
    pub estimator: EstimatorKind,
    /// Peer churn, if any.
    pub churn: Option<ChurnConfig>,
    /// Hybrid-CDN mode, if any.
    pub cdn: Option<CdnConfig>,
    /// Competing background flows on the viewers' access links, if any
    /// (the §VIII congestion experiment).
    pub cross_traffic: Option<crate::cross::CrossTrafficConfig>,
    /// When false, segments come only from the CDN (requires `cdn`).
    pub p2p: bool,
    /// Peers join uniformly at random within this window, seconds.
    pub join_stagger_secs: f64,
    /// Maintenance-timer cadence, seconds.
    pub pump_interval_secs: f64,
    /// Unserved-request timeout, seconds.
    pub request_timeout_secs: f64,
    /// Media that must be buffered before resuming from a stall, seconds
    /// (the player's re-buffering threshold).
    pub resume_buffer_secs: f64,
    /// How the pooling policy's `W` is estimated (Eq. 1 assumes uniform
    /// segments; the paper's client knows only the mean).
    pub w_estimate: crate::policy::WEstimate,
    /// How leechers learn about each other.
    pub discovery: DiscoveryMode,
    /// Scheduled changes of every *peer* access link's capacity:
    /// `(at_secs, bytes_per_sec)` pairs, applied to both directions. Models
    /// the variable-bandwidth environment of the paper's future work
    /// (§VIII). The seeder and CDN links are unaffected.
    pub bandwidth_schedule: Vec<(f64, f64)>,
    /// Which network model drives the transfers: per-RTT rounds (the
    /// default, full window dynamics) or the event-driven fluid rate model
    /// (scales to hundreds of leechers).
    #[serde(default)]
    pub flow_model: FlowModel,
    /// Which control plane disseminates availability and schedules pumps.
    #[serde(default)]
    pub control_plane: ControlPlane,
    /// Retired: read by nothing, see [`SchedulerMode`].
    #[serde(default)]
    pub scheduler: SchedulerMode,
    /// Retired: read by nothing, see [`DisseminationMode`].
    #[serde(default)]
    pub dissemination: DisseminationMode,
    /// Coalescing window of the eventful control plane, seconds: how long
    /// completions may wait before a `HaveBundle` flush. When unset the
    /// window is auto-tuned to the mean segment duration, clamped to
    /// one-to-four pump intervals (see [`auto_coalesce_secs`]).
    #[serde(default)]
    pub have_coalesce_secs: Option<f64>,
    /// Deterministic fault injection (crash-stop churn, control-message
    /// loss/delay, link flaps, CDN outages), if any.
    #[serde(default)]
    pub faults: Option<FaultPlanConfig>,
    /// Peer-side failure defenses (source backoff bans), if any.
    #[serde(default)]
    pub defense: Option<DefenseConfig>,
    /// Retired: read by nothing since no leecher keeps a holder index. It
    /// and [`LeecherConfig::sparse_holders`](crate::LeecherConfig::sparse_holders)
    /// stay only because `benchmark/src/traced.rs` copies one into the
    /// other, like [`SchedulerMode`].
    #[serde(default)]
    pub sparse_holders: bool,
    /// Hard cap on simulated time, seconds.
    pub max_sim_secs: f64,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            n_leechers: 19,
            peer_bandwidth_bytes_per_sec: 128_000.0,
            seeder_bandwidth_bytes_per_sec: 128_000.0,
            peer_one_way_latency_secs: 0.050,
            seeder_one_way_latency_secs: 0.050,
            end_to_end_loss: 0.05,
            peer_upload_slots: 4,
            seeder_upload_slots: 4,
            policy: PolicyConfig::Adaptive,
            estimator: EstimatorKind::Oracle,
            churn: None,
            cdn: None,
            cross_traffic: None,
            p2p: true,
            join_stagger_secs: 1.0,
            pump_interval_secs: 0.5,
            request_timeout_secs: 6.0,
            resume_buffer_secs: 0.25,
            w_estimate: crate::policy::WEstimate::MeanSegment,
            discovery: DiscoveryMode::Full,
            bandwidth_schedule: Vec::new(),
            flow_model: FlowModel::Rounds,
            control_plane: ControlPlane::Legacy,
            scheduler: SchedulerMode::default(),
            dissemination: DisseminationMode::default(),
            have_coalesce_secs: None,
            faults: None,
            defense: None,
            sparse_holders: false,
            max_sim_secs: 1_800.0,
        }
    }
}

impl SwarmConfig {
    /// Checks the configuration: the first inconsistent setting (no
    /// peers, non-positive rates, CDN-only mode without a CDN, a seeder
    /// closer than half the peer-to-peer latency, a time or rate the
    /// simulator's constructors would refuse, ...) is an `Err` naming
    /// the rule. The one place the rules live: the CLI reports the message,
    /// [`Self::validate`] panics with it.
    pub fn check(&self) -> Result<(), String> {
        rule(self.n_leechers >= 1, "a swarm needs at least one leecher")?;
        rule(
            self.peer_bandwidth_bytes_per_sec > 0.0,
            "peer bandwidth must be positive",
        )?;
        rule(
            self.seeder_bandwidth_bytes_per_sec > 0.0,
            "seeder bandwidth must be positive",
        )?;
        rule(
            (0.0..1.0).contains(&self.end_to_end_loss),
            "loss must be in [0,1)",
        )?;
        rule(
            self.seeder_one_way_latency_secs >= self.peer_one_way_latency_secs / 2.0,
            "seeder latency cannot be below half the peer-to-peer latency in a star",
        )?;
        rule(
            link_rate(self.peer_bandwidth_bytes_per_sec)
                && link_rate(self.seeder_bandwidth_bytes_per_sec),
            "bandwidths must be finite",
        )?;
        rule(
            self.peer_one_way_latency_secs.is_finite()
                && self.seeder_one_way_latency_secs.is_finite(),
            "latencies must be finite",
        )?;
        rule(
            self.p2p || self.cdn.is_some(),
            "CDN-only mode requires a CDN",
        )?;
        self.policy.check()?;
        if let Some(churn) = &self.churn {
            churn.check()?;
        }
        if let Some(cdn) = &self.cdn {
            cdn.check()?;
        }
        if let Some(cross) = &self.cross_traffic {
            cross.check()?;
        }
        let positive = |v: f64| v > 0.0 && v.is_finite();
        let non_negative = |v: f64| v >= 0.0 && v.is_finite();
        rule(
            positive(self.pump_interval_secs),
            "pump interval must be positive and finite",
        )?;
        rule(
            positive(self.request_timeout_secs),
            "request timeout must be positive and finite",
        )?;
        if let Some(window) = self.have_coalesce_secs {
            rule(
                window.is_finite() && window >= 0.0,
                "coalesce window must be a non-negative number",
            )?;
        }
        if let Some(faults) = &self.faults {
            faults.check(self.cdn.is_some())?;
        }
        // The rest is what a constructor further down refuses with a panic:
        // `UploadManager`, `BandwidthEstimator`, `gen_range`, `SimTime`.
        rule(
            self.peer_upload_slots >= 1 && self.seeder_upload_slots >= 1,
            "peer and seeder upload slots must be positive",
        )?;
        if let EstimatorKind::Ewma { alpha } = self.estimator {
            rule(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0,1]")?;
        }
        rule(
            non_negative(self.join_stagger_secs),
            "join stagger must be non-negative",
        )?;
        rule(
            non_negative(self.resume_buffer_secs),
            "resume buffer must be non-negative",
        )?;
        for &(at_secs, bytes_per_sec) in &self.bandwidth_schedule {
            rule(non_negative(at_secs), "schedule times must be non-negative")?;
            rule(
                link_rate(bytes_per_sec),
                "scheduled bandwidth must be positive",
            )?;
        }
        rule(
            positive(self.max_sim_secs),
            "sim cap must be positive and finite",
        )
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`Self::check`]'s message when it fails.
    pub fn validate(&self) {
        must(self.check());
    }

    /// Per-access-link loss so that the end-to-end (two-link) loss matches
    /// the configured value: `1 - sqrt(1 - loss)`.
    pub fn per_link_loss(&self) -> f64 {
        1.0 - (1.0 - self.end_to_end_loss).sqrt()
    }
}

/// Runs one swarm to completion and returns the collected metrics.
///
/// Fully deterministic for a given `(segments, config, seed)` triple.
///
/// # Panics
///
/// Panics if the configuration is invalid or `segments` is empty.
///
/// # Examples
///
/// ```no_run
/// use splicecast_media::{DurationSplicer, Splicer, Video};
/// use splicecast_swarm::{run_swarm, SwarmConfig};
///
/// let video = Video::builder().duration_secs(30.0).seed(1).build();
/// let segments = DurationSplicer::new(4.0).splice(&video);
/// let config = SwarmConfig { n_leechers: 5, ..SwarmConfig::default() };
/// let metrics = run_swarm(&segments, &config, 42);
/// println!("mean stalls: {}", metrics.mean_stalls());
/// ```
pub fn run_swarm(segments: &SegmentList, config: &SwarmConfig, seed: u64) -> SwarmMetrics {
    // One deep copy for the whole swarm: every node shares the same
    // immutable segment metadata through the `Arc`.
    run_swarm_shared(&std::sync::Arc::new(segments.clone()), config, seed)
}

/// The eventful plane's `HaveBundle` coalescing window when the config
/// does not pin one (`have_coalesce_secs: None`): the mean segment
/// duration, clamped to one-to-four pump intervals.
///
/// Completions arrive roughly once per segment duration per active
/// download, so a window much shorter than that coalesces nothing (every
/// completion flushes its own bundle), while one much longer delays
/// availability news past the point peers could have used it. Tracking the
/// segment duration keeps the bundles-per-have ratio stable across
/// splicing configurations instead of degrading at fine splicings.
pub fn auto_coalesce_secs(mean_segment_secs: f64, pump_interval_secs: f64) -> f64 {
    if !mean_segment_secs.is_finite() {
        return pump_interval_secs;
    }
    mean_segment_secs.clamp(pump_interval_secs, 4.0 * pump_interval_secs)
}

/// Like [`run_swarm`], but the caller supplies the segment list already
/// wrapped in an [`Arc`](std::sync::Arc), so repeated runs over the same
/// media (averaging seeds, sweep points) share one allocation instead of
/// deep-copying per run.
pub fn run_swarm_shared(
    segments: &std::sync::Arc<SegmentList>,
    config: &SwarmConfig,
    seed: u64,
) -> SwarmMetrics {
    config.validate();
    assert!(!segments.is_empty(), "cannot stream an empty segment list");
    let segments = std::sync::Arc::clone(segments);

    let per_link_loss = config.per_link_loss();
    let peer_link_latency = SimDuration::from_secs_f64(config.peer_one_way_latency_secs / 2.0);
    let seeder_link_latency = SimDuration::from_secs_f64(
        config.seeder_one_way_latency_secs - config.peer_one_way_latency_secs / 2.0,
    );

    // Leaf order: seeder, then leechers, then the CDN (if any).
    let mut leaf_specs = vec![LinkSpec::from_bytes_per_sec(
        config.seeder_bandwidth_bytes_per_sec,
        seeder_link_latency,
        per_link_loss,
    )];
    leaf_specs.extend(std::iter::repeat_n(
        LinkSpec::from_bytes_per_sec(
            config.peer_bandwidth_bytes_per_sec,
            peer_link_latency,
            per_link_loss,
        ),
        config.n_leechers,
    ));
    if let Some(cdn) = &config.cdn {
        let cdn_link_latency = SimDuration::from_secs_f64(
            (cdn.one_way_latency_secs - config.peer_one_way_latency_secs / 2.0).max(0.0),
        );
        leaf_specs.push(LinkSpec::from_bytes_per_sec(
            cdn.bandwidth_bytes_per_sec,
            cdn_link_latency,
            per_link_loss,
        ));
    }
    if config.cross_traffic.is_some() {
        // The background server has a fat pipe: the congestion it causes
        // must land on the viewers' access links, not its own.
        leaf_specs.push(LinkSpec::from_bytes_per_sec(
            16_000_000.0,
            peer_link_latency,
            per_link_loss,
        ));
    }
    let star = star(&leaf_specs);
    let peer_links = star.links[1..=config.n_leechers].to_vec();
    let seeder_id = star.leaves[0];
    let leecher_ids: Vec<_> = star.leaves[1..=config.n_leechers].to_vec();
    let cdn_id = config.cdn.map(|_| star.leaves[config.n_leechers + 1]);

    // Setup randomness (join jitter, churn) is derived from the same seed
    // but a distinct stream from the simulator's own RNG.
    let mut setup_rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED_5EED_5EED);
    let join_delays: Vec<f64> = (0..config.n_leechers)
        .map(|_| setup_rng.gen_range(0.0..=config.join_stagger_secs))
        .collect();
    let departures: Vec<Option<f64>> = match &config.churn {
        Some(churn) => churn.sample_departures(config.n_leechers, &mut setup_rng),
        None => vec![None; config.n_leechers],
    };
    // Fault sampling comes *after* every existing draw and each knob is
    // gated on its own presence, so a zero-knob plan consumes no setup
    // randomness and the run stays bit-identical to a plan-less one.
    let crashes: Vec<Option<f64>> = match config.faults.and_then(|f| f.crash) {
        Some(crash) => crash.sample_crashes(config.n_leechers, &mut setup_rng),
        None => vec![None; config.n_leechers],
    };
    let flaps: Vec<(usize, f64)> = match config.faults.and_then(|f| f.link_flaps) {
        Some(flaps) => flaps.sample_flaps(config.n_leechers, &mut setup_rng),
        None => Vec::new(),
    };
    let outages: Vec<f64> = match config.faults.and_then(|f| f.cdn_outages) {
        Some(windows) => windows.sample_outages(&mut setup_rng),
        None => Vec::new(),
    };

    let sink = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulator::new(star.network, seed);
    sim.set_tcp_config(TcpConfig {
        flow_model: config.flow_model,
    });
    sim.add_node(Box::new(NullBehavior)); // the hub
    sim.add_node(Box::new(SeederNode::new(
        segments.clone(),
        0,
        config.seeder_upload_slots,
    )));
    for index in 0..config.n_leechers {
        let mut others = leecher_ids.clone();
        others.remove(index);
        let leecher = LeecherNode::new(LeecherConfig {
            index,
            seeder: seeder_id,
            cdn: cdn_id,
            others,
            segments: segments.clone(),
            policy: config.policy.build(),
            estimator: BandwidthEstimator::new(
                config.estimator,
                config.peer_bandwidth_bytes_per_sec,
            ),
            upload_slots: config.peer_upload_slots,
            join_delay: SimDuration::from_secs_f64(join_delays[index]),
            depart_after: departures[index].map(SimDuration::from_secs_f64),
            crash_after: crashes[index].map(SimDuration::from_secs_f64),
            defense: config.defense,
            pump_interval: SimDuration::from_secs_f64(config.pump_interval_secs),
            request_timeout: SimDuration::from_secs_f64(config.request_timeout_secs),
            resume_buffer_secs: config.resume_buffer_secs,
            w_estimate: config.w_estimate,
            p2p: config.p2p,
            discovery: config.discovery,
            control_plane: config.control_plane,
            scheduler: config.scheduler,
            dissemination: config.dissemination,
            coalesce_window: SimDuration::from_secs_f64(config.have_coalesce_secs.unwrap_or_else(
                || {
                    auto_coalesce_secs(
                        segments.total_duration().as_secs_f64() / segments.len() as f64,
                        config.pump_interval_secs,
                    )
                },
            )),
            sparse_holders: config.sparse_holders,
            sink: sink.clone(),
        });
        sim.add_node(Box::new(leecher));
    }
    if cdn_id.is_some() {
        let cdn_cfg = config.cdn.as_ref().expect("cdn config");
        // The CDN is an origin with a fat pipe: reuse the seeder behaviour.
        sim.add_node(Box::new(SeederNode::new(
            segments.clone(),
            u64::MAX,
            cdn_cfg.upload_slots,
        )));
    }
    if let Some(cross) = config.cross_traffic {
        sim.add_node(Box::new(crate::cross::CrossTrafficNode::new(
            leecher_ids.clone(),
            cross,
        )));
    }

    if let Some(plan) = config.faults {
        // The message-fault plane has its own RNG stream; zero knobs mean
        // no plane at all (`set_message_faults` ignores an inactive
        // config), keeping fault-free runs draw-for-draw identical.
        sim.set_message_faults(splicecast_netsim::MessageFaults {
            seed: seed ^ 0xFA17_FA17_FA17_FA17,
            loss: plan.message_loss,
            delay_prob: plan.message_delay_prob,
            delay_max: SimDuration::from_secs_f64(plan.message_delay_max_secs),
        });
        if let Some(flap) = plan.link_flaps {
            for &(leecher, start_secs) in &flaps {
                let link = peer_links[leecher];
                for (at_secs, bytes_per_sec) in [
                    (start_secs, flap.degraded_bytes_per_sec),
                    (
                        start_secs + flap.duration_secs,
                        config.peer_bandwidth_bytes_per_sec,
                    ),
                ] {
                    sim.schedule_capacity(
                        SimTime::from_secs_f64(at_secs),
                        splicecast_netsim::DirLinkId::new_forward(link),
                        bytes_per_sec * 8.0,
                    );
                    sim.schedule_capacity(
                        SimTime::from_secs_f64(at_secs),
                        splicecast_netsim::DirLinkId::new_backward(link),
                        bytes_per_sec * 8.0,
                    );
                }
            }
        }
        if let Some(windows) = plan.cdn_outages {
            let cdn = cdn_id.expect("validated: CDN outages require a CDN");
            for &start_secs in &outages {
                sim.schedule_offline_window(
                    cdn,
                    SimTime::from_secs_f64(start_secs),
                    SimTime::from_secs_f64(start_secs + windows.duration_secs),
                );
            }
        }
    }

    for &(at_secs, bytes_per_sec) in &config.bandwidth_schedule {
        assert!(bytes_per_sec > 0.0, "scheduled bandwidth must be positive");
        for &link in &peer_links {
            sim.schedule_capacity(
                SimTime::from_secs_f64(at_secs),
                splicecast_netsim::DirLinkId::new_forward(link),
                bytes_per_sec * 8.0,
            );
            sim.schedule_capacity(
                SimTime::from_secs_f64(at_secs),
                splicecast_netsim::DirLinkId::new_backward(link),
                bytes_per_sec * 8.0,
            );
        }
    }

    let end = sim.run_until_idle(SimTime::from_secs_f64(config.max_sim_secs));

    let net = sim.stats();
    let injected = sim.fault_stats();
    let mut reports = sink.take();
    reports.sort_by_key(|r| r.peer);
    SwarmMetrics {
        reports,
        sim_end_secs: end.as_secs_f64(),
        net,
        injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splicecast_media::{DurationSplicer, GopSplicer, Splicer, Video, PAPER_CONTENT_SEED};

    fn tiny_segments() -> SegmentList {
        let video = Video::builder().duration_secs(16.0).seed(5).build();
        DurationSplicer::new(4.0).splice(&video)
    }

    fn tiny_config() -> SwarmConfig {
        SwarmConfig {
            n_leechers: 3,
            peer_bandwidth_bytes_per_sec: 500_000.0,
            seeder_bandwidth_bytes_per_sec: 500_000.0,
            end_to_end_loss: 0.01,
            max_sim_secs: 300.0,
            ..SwarmConfig::default()
        }
    }

    #[test]
    fn small_swarm_streams_to_completion() {
        let metrics = run_swarm(&tiny_segments(), &tiny_config(), 7);
        assert_eq!(metrics.reports.len(), 3);
        for report in &metrics.reports {
            assert!(
                report.finished,
                "peer {} did not finish: {:?}",
                report.peer, report.qoe
            );
            assert!(report.qoe.startup_secs.is_some());
            assert!(report.bytes_downloaded > 0);
        }
        assert_eq!(metrics.completion_rate(), 1.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let segments = tiny_segments();
        let config = tiny_config();
        let a = run_swarm(&segments, &config, 11);
        let b = run_swarm(&segments, &config, 11);
        assert_eq!(a, b);
        let c = run_swarm(&segments, &config, 12);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    /// FNV-1a over an explicit list of the run's output fields, each as
    /// one little-endian `u64` word: adding a diagnostic counter to a
    /// stats struct leaves the digest alone, changing what a run
    /// produces does not.
    fn output_digest(metrics: &SwarmMetrics) -> u64 {
        let mut words = Vec::new();
        let opt_bits = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        for r in &metrics.reports {
            words.extend([
                r.peer as u64,
                opt_bits(r.qoe.startup_secs),
                r.qoe.stall_count as u64,
                r.qoe.total_stall_secs.to_bits(),
                opt_bits(r.qoe.finished_secs),
                r.stalls.len() as u64,
            ]);
            for stall in &r.stalls {
                words.extend([stall.start_secs.to_bits(), stall.end_secs.to_bits()]);
            }
            words.extend([
                r.bytes_downloaded,
                r.bytes_uploaded,
                r.segments_from_seeder as u64,
                r.segments_from_peers as u64,
                r.segments_from_cdn as u64,
                u64::from(r.finished) | u64::from(r.departed) << 1,
                r.control.haves_sent,
                r.control.haves_suppressed,
                r.control.have_bundles_sent,
                r.control.haves_coalesced,
                r.control.pumps_armed,
                r.control.pumps_heartbeat,
            ]);
        }
        let net = &metrics.net;
        words.extend([
            metrics.sim_end_secs.to_bits(),
            net.messages_sent,
            net.flows_started,
            net.flows_completed,
            net.flows_failed,
            net.payload_bytes_delivered,
            net.wire_bytes_sent,
        ]);
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        digest
    }

    /// Pins the legacy control plane's exact output. Any change to
    /// legacy-mode behaviour — message order, timer cadence, RNG draws —
    /// shows up here as a digest mismatch, keeping the default path
    /// bit-identical while the eventful plane evolves beside it.
    #[test]
    fn legacy_output_digest_is_pinned() {
        let metrics = run_swarm(&tiny_segments(), &tiny_config(), 11);
        assert_eq!(
            output_digest(&metrics),
            0xccf7_8d61_42ee_67fe,
            "legacy run output changed; if intentional, update the pinned digest"
        );
    }

    /// Pins the scale stack's exact output the way the legacy pin guards
    /// the paper stack: eventful plane, fluid flows, the skipped passes,
    /// tracker discovery, graceful and crash churn, lossy control
    /// messages and the defenses, over a 120-segment splice. A leecher
    /// refactor that is meant to keep behaviour must leave this digest
    /// alone.
    #[test]
    fn scale_output_digest_is_pinned() {
        let video = Video::builder().duration_secs(60.0).seed(6).build();
        let segments = DurationSplicer::new(0.5).splice(&video);
        let config = SwarmConfig {
            n_leechers: 16,
            // Joins spread over half the clip on fast links, so early
            // peers run far ahead of late ones.
            join_stagger_secs: 30.0,
            peer_bandwidth_bytes_per_sec: 4_000_000.0,
            seeder_bandwidth_bytes_per_sec: 4_000_000.0,
            control_plane: ControlPlane::Eventful,
            flow_model: FlowModel::Fluid,
            discovery: DiscoveryMode::Tracker,
            churn: Some(ChurnConfig::new(0.3, 20.0)),
            faults: Some(FaultPlanConfig {
                crash: Some(crate::fault::CrashChurnConfig::new(0.2, 15.0)),
                message_loss: 0.02,
                ..FaultPlanConfig::default()
            }),
            defense: Some(DefenseConfig),
            ..tiny_config()
        };
        let metrics = run_swarm(&segments, &config, 11);
        assert_eq!(
            output_digest(&metrics),
            0x25f8_56b5_fbd2_4616,
            "scale-stack run output changed; if intentional, update the pinned digest"
        );
    }

    /// Pins a paper-stack run that shares every access link with the
    /// default background load, the one path the two pins above and the
    /// benchmark never reach.
    #[test]
    fn cross_traffic_output_digest_is_pinned() {
        let config = SwarmConfig {
            cross_traffic: Some(crate::cross::CrossTrafficConfig::default()),
            ..tiny_config()
        };
        let metrics = run_swarm(&tiny_segments(), &config, 11);
        assert_eq!(
            output_digest(&metrics),
            0x751b_ef8b_12be_67f4,
            "cross-traffic run output changed; if intentional, update the pinned digest"
        );
    }

    /// Background transfers are not video: a viewer sharing its access
    /// link with a competing bulk download books only the segments it
    /// fetched, so nobody downloads twice the splice.
    #[test]
    fn background_traffic_is_not_booked_as_video() {
        let clip = Video::builder()
            .duration_secs(24.0)
            .seed(PAPER_CONTENT_SEED)
            .build();
        let segments = DurationSplicer::new(4.0).splice(&clip);
        let config = SwarmConfig {
            n_leechers: 6,
            peer_bandwidth_bytes_per_sec: 256_000.0,
            seeder_bandwidth_bytes_per_sec: 256_000.0,
            cross_traffic: Some(crate::cross::CrossTrafficConfig { flows_per_peer: 1 }),
            ..SwarmConfig::default()
        };
        let metrics = run_swarm(&segments, &config, 11);
        for report in &metrics.reports {
            assert!(
                report.bytes_downloaded < 2 * segments.total_bytes(),
                "viewer {} booked {} B against a {} B splice",
                report.peer,
                report.bytes_downloaded,
                segments.total_bytes()
            );
        }
    }

    /// Every skipped scheduling pass is checked, in debug builds, to be
    /// one that would have issued no request (`LeecherNode::audit_skip`).
    /// These scenarios give that oracle work: both control planes, under
    /// churn, and with tracker discovery (late joins, evictions, bundles);
    /// 80 half-second segments over fat links, where early viewers run far
    /// ahead of late ones; the paper stack's Fig. 2 setting (10 leechers
    /// at 128 kB/s on the GOP-spliced paper clip); and the first two with
    /// 12 leechers, so neighbours come and go under churn on both control
    /// planes. Every scenario must skip passes, and nobody persistent may
    /// be left stuck.
    #[test]
    fn skipped_passes_would_issue_no_request() {
        let video = Video::builder().duration_secs(40.0).seed(6).build();
        let coarse = DurationSplicer::new(4.0).splice(&video);
        let fine = DurationSplicer::new(0.5).splice(&video);
        let paper_clip = Video::builder()
            .duration_secs(24.0)
            .seed(PAPER_CONTENT_SEED)
            .build();
        let gop = GopSplicer.splice(&paper_clip);
        let churn = Some(ChurnConfig {
            volatile_fraction: 0.3,
            mean_lifetime_secs: 20.0,
        });
        let eventful = SwarmConfig {
            n_leechers: 6,
            control_plane: ControlPlane::Eventful,
            flow_model: FlowModel::Fluid,
            churn,
            ..tiny_config()
        };
        let scenarios = [
            (
                &coarse,
                SwarmConfig {
                    n_leechers: 6,
                    churn,
                    discovery: DiscoveryMode::Tracker,
                    ..tiny_config()
                },
                11,
            ),
            (&coarse, eventful.clone(), 11),
            (
                &fine,
                SwarmConfig {
                    peer_bandwidth_bytes_per_sec: 4_000_000.0,
                    seeder_bandwidth_bytes_per_sec: 4_000_000.0,
                    ..eventful.clone()
                },
                11,
            ),
            (
                &gop,
                SwarmConfig {
                    n_leechers: 10,
                    ..SwarmConfig::default()
                },
                2,
            ),
            (
                &coarse,
                SwarmConfig {
                    n_leechers: 12,
                    churn,
                    discovery: DiscoveryMode::Tracker,
                    ..tiny_config()
                },
                11,
            ),
            (
                &coarse,
                SwarmConfig {
                    n_leechers: 12,
                    ..eventful
                },
                11,
            ),
        ];
        for (i, (segments, config, seed)) in scenarios.into_iter().enumerate() {
            let metrics = run_swarm(segments, &config, seed);
            let sched = metrics.sched_totals();
            assert!(sched.skips > 0, "scenario {i} skipped no pass: {sched:?}");
            assert_eq!(
                metrics.stuck_peers().count(),
                0,
                "scenario {i}:\n{}",
                metrics.stuck_report()
            );
        }
    }

    /// The dirty-flag scheduler must actually skip work: in a steady
    /// swarm most passes re-prove "nothing to do", and the skip counter
    /// is the direct measure of the saved rescans.
    #[test]
    fn indexed_scheduler_skips_redundant_passes() {
        let config = SwarmConfig {
            n_leechers: 6,
            ..tiny_config()
        };
        let video = Video::builder().duration_secs(40.0).seed(6).build();
        let segments = DurationSplicer::new(4.0).splice(&video);
        let metrics = run_swarm(&segments, &config, 3);
        let sched = metrics.sched_totals();
        assert!(sched.passes > 0);
        assert!(
            sched.skips * 2 > sched.passes,
            "a large share of scheduling invocations should be skippable \
             (passes {}, skips {})",
            sched.passes,
            sched.skips
        );
    }

    #[test]
    fn peers_offload_the_seeder() {
        // Plenty of peers and segments: most deliveries should be P2P.
        let video = Video::builder().duration_secs(40.0).seed(6).build();
        let segments = DurationSplicer::new(4.0).splice(&video);
        let config = SwarmConfig {
            n_leechers: 6,
            ..tiny_config()
        };
        let metrics = run_swarm(&segments, &config, 3);
        assert!(
            metrics.peer_offload_ratio() > 0.2,
            "offload ratio {} suspiciously low",
            metrics.peer_offload_ratio()
        );
    }

    #[test]
    fn fluid_swarm_streams_to_completion() {
        let config = SwarmConfig {
            flow_model: FlowModel::Fluid,
            ..tiny_config()
        };
        let metrics = run_swarm(&tiny_segments(), &config, 7);
        assert_eq!(metrics.reports.len(), 3);
        assert_eq!(metrics.completion_rate(), 1.0);
        for report in &metrics.reports {
            assert!(report.qoe.startup_secs.is_some());
            assert!(report.bytes_downloaded > 0);
        }
    }

    #[test]
    fn fluid_runs_are_deterministic() {
        let segments = tiny_segments();
        let config = SwarmConfig {
            flow_model: FlowModel::Fluid,
            ..tiny_config()
        };
        let a = run_swarm(&segments, &config, 11);
        let b = run_swarm(&segments, &config, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn eventful_swarm_streams_to_completion() {
        let config = SwarmConfig {
            control_plane: ControlPlane::Eventful,
            ..tiny_config()
        };
        let metrics = run_swarm(&tiny_segments(), &config, 7);
        assert_eq!(metrics.reports.len(), 3);
        assert_eq!(metrics.completion_rate(), 1.0);
        let control = metrics.control_totals();
        assert_eq!(
            control.haves_sent, 0,
            "eventful mode must not send single Haves"
        );
        assert!(control.have_bundles_sent > 0, "completions must be bundled");
        assert!(control.pumps() > 0);
    }

    #[test]
    fn eventful_runs_are_deterministic() {
        let segments = tiny_segments();
        let config = SwarmConfig {
            control_plane: ControlPlane::Eventful,
            ..tiny_config()
        };
        let a = run_swarm(&segments, &config, 11);
        let b = run_swarm(&segments, &config, 11);
        assert_eq!(a, b);
    }

    /// The message-count regression gate in miniature: on a 20-peer swarm
    /// the eventful control plane must send far fewer control messages
    /// than the legacy one while still delivering the stream.
    #[test]
    fn eventful_control_plane_sends_asymptotically_fewer_messages() {
        let video = Video::builder().duration_secs(48.0).seed(6).build();
        // GoP-grained segments: completions arrive about once a second, so
        // a 2 s coalescing window folds several into each bundle.
        let segments = DurationSplicer::new(1.0).splice(&video);
        let base = SwarmConfig {
            n_leechers: 19,
            peer_bandwidth_bytes_per_sec: 16_000_000.0,
            seeder_bandwidth_bytes_per_sec: 16_000_000.0,
            flow_model: FlowModel::Fluid,
            have_coalesce_secs: Some(2.0),
            ..tiny_config()
        };
        let legacy = run_swarm(&segments, &base, 5);
        let eventful = run_swarm(
            &segments,
            &SwarmConfig {
                control_plane: ControlPlane::Eventful,
                ..base
            },
            5,
        );
        assert_eq!(legacy.completion_rate(), 1.0);
        assert_eq!(eventful.completion_rate(), 1.0);

        let lc = legacy.control_totals();
        let ec = eventful.control_totals();
        // Availability dissemination: every legacy Have is one message;
        // eventful announces the same completions in far fewer bundles.
        assert!(lc.haves_sent > 0);
        assert!(
            ec.have_bundles_sent * 3 < lc.haves_sent,
            "bundles {} vs legacy haves {}",
            ec.have_bundles_sent,
            lc.haves_sent
        );
        assert!(
            ec.mean_bundle_size() > 2.0,
            "bundles barely coalesce: mean size {:.2}",
            ec.mean_bundle_size()
        );
        // And the total control-message volume on the wire shrinks too.
        assert!(
            eventful.net.messages_sent * 3 < legacy.net.messages_sent * 2,
            "eventful sent {} messages, legacy {}",
            eventful.net.messages_sent,
            legacy.net.messages_sent
        );
    }

    /// The auto-tuned window tracks segment duration inside the clamp.
    #[test]
    fn auto_coalesce_scales_with_segment_duration() {
        // Below one pump interval: clamp up (a shorter window coalesces
        // nothing anyway).
        assert_eq!(auto_coalesce_secs(0.1, 0.5), 0.5);
        // Inside the clamp: track the segment duration.
        assert_eq!(auto_coalesce_secs(1.0, 0.5), 1.0);
        assert_eq!(auto_coalesce_secs(1.5, 0.5), 1.5);
        // Above four pump intervals: clamp down (availability news must
        // not go stale).
        assert_eq!(auto_coalesce_secs(4.0, 0.5), 2.0);
        // Degenerate input falls back to the pump interval.
        assert_eq!(auto_coalesce_secs(f64::NAN, 0.5), 0.5);
    }

    /// The coalescing-window sweep at large segment counts (the ROADMAP
    /// prerequisite for the scale profile), kept as a regression test:
    /// wider windows must actually coalesce more, every window must still
    /// deliver the stream, and the auto-tuned default must be exactly the
    /// formula's window and coalesce at least as well as the finest fixed
    /// setting.
    #[test]
    fn coalesce_window_sweep_at_large_segment_counts() {
        let video = Video::builder().duration_secs(48.0).seed(6).build();
        // 96 half-second segments: completions arrive fast, so the window
        // choice dominates the bundle count.
        let segments = DurationSplicer::new(0.5).splice(&video);
        let base = SwarmConfig {
            n_leechers: 8,
            peer_bandwidth_bytes_per_sec: 16_000_000.0,
            seeder_bandwidth_bytes_per_sec: 16_000_000.0,
            flow_model: FlowModel::Fluid,
            control_plane: ControlPlane::Eventful,
            ..tiny_config()
        };
        let run_with = |window: Option<f64>| {
            run_swarm(
                &segments,
                &SwarmConfig {
                    have_coalesce_secs: window,
                    ..base.clone()
                },
                5,
            )
        };
        let mut bundle_sizes = Vec::new();
        for w in [0.125, 0.5, 2.0] {
            let m = run_with(Some(w));
            assert_eq!(m.completion_rate(), 1.0, "window {w} broke the stream");
            bundle_sizes.push(m.control_totals().mean_bundle_size());
        }
        assert!(
            bundle_sizes[2] > bundle_sizes[0],
            "wider window must coalesce more: {bundle_sizes:?}"
        );
        // The unset window is bit-identical to pinning the formula value…
        let mean_seg = segments.total_duration().as_secs_f64() / segments.len() as f64;
        let auto = run_with(None);
        let pinned = run_with(Some(auto_coalesce_secs(mean_seg, base.pump_interval_secs)));
        assert_eq!(auto, pinned, "auto-tune must equal the pinned formula");
        // …and coalesces at least as well as the finest fixed window.
        assert_eq!(auto.completion_rate(), 1.0);
        assert!(
            auto.control_totals().mean_bundle_size() >= bundle_sizes[0],
            "auto window {:.2} coalesces worse than the finest fixed one: {:.2} < {:.2}",
            auto_coalesce_secs(mean_seg, base.pump_interval_secs),
            auto.control_totals().mean_bundle_size(),
            bundle_sizes[0],
        );
    }

    /// The paper stack's network and control plane, then the scale stack's.
    const STACKS: [(FlowModel, ControlPlane); 2] = [
        (FlowModel::Rounds, ControlPlane::Legacy),
        (FlowModel::Fluid, ControlPlane::Eventful),
    ];

    /// Eq. 1 alone bounds how far ahead a viewer requests. On the paper's
    /// own splice — GOP segments, 197 of them, variable in size — and on
    /// both stacks, a fixed pool of 100 fills: a viewer with 100 segments
    /// in flight has requested more than 64 past its first missing
    /// segment, where a deferred holder-index fold once stopped the
    /// scheduler.
    /// Everybody finishes.
    #[test]
    fn gop_viewers_request_far_past_the_frontier_on_both_stacks() {
        let video = Video::builder().duration_secs(120.0).seed(2015).build();
        let segments = splicecast_media::GopSplicer.splice(&video);
        assert!(segments.len() > 3 * 64, "{} segments", segments.len());
        for (flow_model, control_plane) in STACKS {
            let config = SwarmConfig {
                n_leechers: 6,
                peer_bandwidth_bytes_per_sec: 16_000_000.0,
                seeder_bandwidth_bytes_per_sec: 16_000_000.0,
                policy: crate::policy::PolicyConfig::Fixed(100),
                flow_model,
                control_plane,
                ..tiny_config()
            };
            let metrics = run_swarm(&segments, &config, 5);
            assert_eq!(metrics.completion_rate(), 1.0, "{control_plane:?}");
            for report in &metrics.reports {
                assert!(
                    report.sched.full_pool > 0,
                    "{control_plane:?}: viewer {} never had 100 segments in flight",
                    report.peer
                );
            }
        }
    }

    #[test]
    fn shared_segments_match_owned_segments() {
        let segments = tiny_segments();
        let config = tiny_config();
        let owned = run_swarm(&segments, &config, 5);
        let shared = run_swarm_shared(&std::sync::Arc::new(segments), &config, 5);
        assert_eq!(owned, shared);
    }

    #[test]
    fn per_link_loss_compounds_back() {
        let config = SwarmConfig {
            end_to_end_loss: 0.05,
            ..SwarmConfig::default()
        };
        let p = config.per_link_loss();
        assert!(((1.0 - (1.0 - p) * (1.0 - p)) - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "CDN-only mode requires a CDN")]
    fn cdn_only_without_cdn_panics() {
        let config = SwarmConfig {
            p2p: false,
            cdn: None,
            ..SwarmConfig::default()
        };
        run_swarm(&tiny_segments(), &config, 1);
    }

    /// `check()` reports and `validate()` panics with the same message, one
    /// failing field at a time — including the fields the CLI fills from
    /// flags and the sub-configs' own rules.
    #[test]
    fn check_and_validate_agree_on_each_failing_field() {
        let cases: Vec<(SwarmConfig, &str)> = vec![
            (
                SwarmConfig {
                    n_leechers: 0,
                    ..tiny_config()
                },
                "a swarm needs at least one leecher",
            ),
            (
                SwarmConfig {
                    peer_bandwidth_bytes_per_sec: 0.0,
                    ..tiny_config()
                },
                "peer bandwidth must be positive",
            ),
            (
                SwarmConfig {
                    seeder_bandwidth_bytes_per_sec: f64::NAN,
                    ..tiny_config()
                },
                "seeder bandwidth must be positive",
            ),
            (
                SwarmConfig {
                    end_to_end_loss: 1.0,
                    ..tiny_config()
                },
                "loss must be in [0,1)",
            ),
            (
                SwarmConfig {
                    peer_bandwidth_bytes_per_sec: f64::INFINITY,
                    ..tiny_config()
                },
                "bandwidths must be finite",
            ),
            (
                SwarmConfig {
                    p2p: false,
                    ..tiny_config()
                },
                "CDN-only mode requires a CDN",
            ),
            (
                SwarmConfig {
                    policy: PolicyConfig::Fixed(0),
                    ..tiny_config()
                },
                "a fixed pool needs at least one slot",
            ),
            (
                SwarmConfig {
                    have_coalesce_secs: Some(-1.0),
                    ..tiny_config()
                },
                "coalesce window must be a non-negative number",
            ),
            (
                SwarmConfig {
                    max_sim_secs: 0.0,
                    ..tiny_config()
                },
                "sim cap must be positive and finite",
            ),
            (
                SwarmConfig {
                    max_sim_secs: f64::INFINITY,
                    ..tiny_config()
                },
                "sim cap must be positive and finite",
            ),
            (
                SwarmConfig {
                    pump_interval_secs: f64::INFINITY,
                    ..tiny_config()
                },
                "pump interval must be positive and finite",
            ),
            (
                SwarmConfig {
                    request_timeout_secs: f64::INFINITY,
                    ..tiny_config()
                },
                "request timeout must be positive and finite",
            ),
            (
                SwarmConfig {
                    peer_upload_slots: 0,
                    ..tiny_config()
                },
                "peer and seeder upload slots must be positive",
            ),
            (
                SwarmConfig {
                    seeder_upload_slots: 0,
                    ..tiny_config()
                },
                "peer and seeder upload slots must be positive",
            ),
            (
                SwarmConfig {
                    estimator: EstimatorKind::Ewma { alpha: 0.0 },
                    ..tiny_config()
                },
                "EWMA alpha must be in (0,1]",
            ),
            (
                SwarmConfig {
                    estimator: EstimatorKind::Ewma { alpha: f64::NAN },
                    ..tiny_config()
                },
                "EWMA alpha must be in (0,1]",
            ),
            (
                SwarmConfig {
                    join_stagger_secs: -1.0,
                    ..tiny_config()
                },
                "join stagger must be non-negative",
            ),
            (
                SwarmConfig {
                    join_stagger_secs: f64::NAN,
                    ..tiny_config()
                },
                "join stagger must be non-negative",
            ),
            (
                SwarmConfig {
                    resume_buffer_secs: f64::NAN,
                    ..tiny_config()
                },
                "resume buffer must be non-negative",
            ),
            (
                SwarmConfig {
                    resume_buffer_secs: -1.0,
                    ..tiny_config()
                },
                "resume buffer must be non-negative",
            ),
            (
                SwarmConfig {
                    bandwidth_schedule: vec![(1.0, 64_000.0), (2.0, 0.0)],
                    ..tiny_config()
                },
                "scheduled bandwidth must be positive",
            ),
            (
                SwarmConfig {
                    bandwidth_schedule: vec![(1.0, f64::INFINITY)],
                    ..tiny_config()
                },
                "scheduled bandwidth must be positive",
            ),
            (
                SwarmConfig {
                    bandwidth_schedule: vec![(-1.0, 1000.0)],
                    ..tiny_config()
                },
                "schedule times must be non-negative",
            ),
            (
                SwarmConfig {
                    bandwidth_schedule: vec![(f64::NAN, 1000.0)],
                    ..tiny_config()
                },
                "schedule times must be non-negative",
            ),
            (
                SwarmConfig {
                    churn: Some(ChurnConfig {
                        volatile_fraction: 2.0,
                        mean_lifetime_secs: 45.0,
                    }),
                    ..tiny_config()
                },
                "volatile fraction must be in [0,1], got 2",
            ),
            (
                SwarmConfig {
                    cdn: Some(CdnConfig {
                        upload_slots: 0,
                        ..CdnConfig::default()
                    }),
                    ..tiny_config()
                },
                "cdn upload slots must be positive",
            ),
            // A CDN link the simulator cannot build: refused by the rule,
            // not by a panic in the link constructor.
            (
                SwarmConfig {
                    cdn: Some(CdnConfig {
                        bandwidth_bytes_per_sec: f64::INFINITY,
                        ..CdnConfig::default()
                    }),
                    ..tiny_config()
                },
                "cdn bandwidth must be positive and finite, got inf",
            ),
            (
                SwarmConfig {
                    cdn: Some(CdnConfig {
                        one_way_latency_secs: f64::INFINITY,
                        ..CdnConfig::default()
                    }),
                    ..tiny_config()
                },
                "cdn latency must be in [0,86400] s, got inf",
            ),
            (
                SwarmConfig {
                    faults: Some(FaultPlanConfig {
                        message_loss: 2.0,
                        ..FaultPlanConfig::default()
                    }),
                    ..tiny_config()
                },
                "message loss must be in [0,1], got 2",
            ),
        ];
        assert_eq!(tiny_config().check(), Ok(()));
        for (config, message) in cases {
            assert_eq!(config.check(), Err(message.to_owned()));
            let payload = std::panic::catch_unwind(|| config.validate())
                .expect_err("validate() must panic where check() fails");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(message)
            );
        }
    }

    #[test]
    fn cdn_only_mode_streams() {
        let config = SwarmConfig {
            p2p: false,
            cdn: Some(CdnConfig::default()),
            ..tiny_config()
        };
        let metrics = run_swarm(&tiny_segments(), &config, 9);
        for report in &metrics.reports {
            assert!(report.finished, "peer {} unfinished", report.peer);
            assert_eq!(report.segments_from_seeder, 0);
            assert_eq!(report.segments_from_peers, 0);
            assert!(report.segments_from_cdn > 0);
        }
    }

    #[test]
    fn tracker_discovery_still_offloads_the_seeder() {
        let video = Video::builder().duration_secs(40.0).seed(6).build();
        let segments = DurationSplicer::new(4.0).splice(&video);
        let config = SwarmConfig {
            n_leechers: 6,
            discovery: DiscoveryMode::Tracker,
            ..tiny_config()
        };
        let metrics = run_swarm(&segments, &config, 3);
        assert_eq!(metrics.completion_rate(), 1.0);
        assert!(
            metrics.peer_offload_ratio() > 0.2,
            "tracker-discovered peers should exchange segments, offload {}",
            metrics.peer_offload_ratio()
        );
    }

    #[test]
    fn tracker_and_full_discovery_agree_qualitatively() {
        let segments = tiny_segments();
        let full = run_swarm(&segments, &tiny_config(), 8);
        let tracked = run_swarm(
            &segments,
            &SwarmConfig {
                discovery: DiscoveryMode::Tracker,
                ..tiny_config()
            },
            8,
        );
        assert_eq!(full.completion_rate(), 1.0);
        assert_eq!(tracked.completion_rate(), 1.0);
    }

    /// A present-but-all-zero fault plan must be bit-identical to no plan
    /// at all: no extra setup draws, no message-fault plane, no scheduled
    /// events. This is the knob-gating contract the digest pin relies on.
    #[test]
    fn zero_knob_fault_plan_is_bit_identical() {
        let segments = tiny_segments();
        let plain = run_swarm(&segments, &tiny_config(), 11);
        let zeroed = run_swarm(
            &segments,
            &SwarmConfig {
                faults: Some(FaultPlanConfig::default()),
                ..tiny_config()
            },
            11,
        );
        assert_eq!(plain, zeroed);
    }

    #[test]
    fn churned_peers_are_flagged_and_stayers_finish() {
        let config = SwarmConfig {
            churn: Some(ChurnConfig::new(0.99, 10.0)),
            n_leechers: 4,
            ..tiny_config()
        };
        let metrics = run_swarm(&tiny_segments(), &config, 21);
        assert_eq!(metrics.reports.len(), 4);
        let departed = metrics.reports.iter().filter(|r| r.departed).count();
        assert!(
            departed >= 1,
            "seeded churn should remove at least one peer"
        );
    }
}
