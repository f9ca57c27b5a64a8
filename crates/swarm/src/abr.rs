//! The adaptive-bitrate baseline (§I).
//!
//! The paper motivates duration-adaptive splicing against the industry
//! practice it describes for Netflix/Hulu: "their clients determine a
//! bit-rate based on the available bandwidth... it will degrade the video
//! quality when the bandwidth becomes low". This module implements that
//! baseline faithfully so the two approaches can be compared on the same
//! substrate: CDN-served clients that fetch segments sequentially and pick
//! a rendition of a [`Ladder`] per segment. The origin is the swarm's own
//! [`SeederNode`] over every rung's segments in one list, so a client asks
//! for a rendition with a plain `Request`.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rand::{Rng, SeedableRng};
use splicecast_media::{Ladder, Segment, SegmentList};
use splicecast_netsim::{
    star, Ctx, LinkSpec, NodeBehavior, NodeEvent, NodeId, NullBehavior, SimDuration, SimTime,
    Simulator,
};
use splicecast_player::{Playback, PlaybackState, QoeMetrics, StallEvent};
use splicecast_protocol::{decode_single, encode_to_bytes, Message};

use crate::metrics::mean;
use crate::policy::{BandwidthEstimator, EstimatorKind};
use crate::seeder::SeederNode;
use crate::{must, rule};

const TOKEN_BOOT: u64 = 1;
const TOKEN_PUMP: u64 = 2;

/// How a client picks the next segment's rendition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AbrAlgorithm {
    /// Always fetch the given rung (clamped to the ladder) — the
    /// non-adaptive control arm, e.g. "always 1 Mbps".
    FixedRendition(usize),
    /// Throughput rule: the highest rendition whose bitrate is at most
    /// `safety ×` the estimated throughput.
    RateBased {
        /// Fraction of the estimated throughput to spend (e.g. 0.8).
        safety: f64,
    },
    /// Buffer-based rate adaptation in the spirit of the paper's reference
    /// \[7\] (Huang et al.): below `low_secs` of buffer pick the lowest rung,
    /// above `high_secs` the highest, linear in between.
    BufferBased {
        /// Buffer level mapped to the lowest rendition, seconds.
        low_secs: f64,
        /// Buffer level mapped to the highest rendition, seconds.
        high_secs: f64,
    },
}

impl AbrAlgorithm {
    /// Picks a rung for the next segment.
    pub fn choose(
        &self,
        ladder: &[u64],
        buffered_secs: f64,
        estimated_bytes_per_sec: f64,
    ) -> usize {
        let top = ladder.len() - 1;
        match *self {
            AbrAlgorithm::FixedRendition(r) => r.min(top),
            AbrAlgorithm::RateBased { safety } => {
                let budget_bps = estimated_bytes_per_sec * 8.0 * safety;
                ladder
                    .iter()
                    .rposition(|&b| (b as f64) <= budget_bps)
                    .unwrap_or(0)
            }
            AbrAlgorithm::BufferBased {
                low_secs,
                high_secs,
            } => {
                if buffered_secs <= low_secs {
                    0
                } else if buffered_secs >= high_secs {
                    top
                } else {
                    let frac = (buffered_secs - low_secs) / (high_secs - low_secs);
                    ((frac * top as f64).floor() as usize).min(top)
                }
            }
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            AbrAlgorithm::FixedRendition(r) => format!("fixed-{r}"),
            AbrAlgorithm::RateBased { .. } => "rate-based".to_owned(),
            AbrAlgorithm::BufferBased { .. } => "buffer-based".to_owned(),
        }
    }
}

/// Origin (CDN) access-link capacity, bytes per second.
const ORIGIN_BANDWIDTH_BYTES_PER_SEC: f64 = 8_000_000.0;
/// One-way client↔origin latency, seconds.
const ONE_WAY_LATENCY_SECS: f64 = 0.05;
/// End-to-end packet loss.
const END_TO_END_LOSS: f64 = 0.05;
/// Concurrent uploads the origin serves.
const ORIGIN_UPLOAD_SLOTS: usize = 64;
/// Clients join uniformly within this window, seconds.
const JOIN_STAGGER_SECS: f64 = 1.0;
/// Player re-buffering threshold, seconds.
const RESUME_BUFFER_SECS: f64 = 0.25;

/// Configuration of an ABR (CDN-served) streaming run. The origin and the
/// path to it are the paper's: a fat edge cache 50 ms away over 5 % loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbrConfig {
    /// Number of clients.
    pub n_clients: usize,
    /// Client access-link capacity, bytes per second.
    pub client_bandwidth_bytes_per_sec: f64,
    /// The rendition-selection algorithm.
    pub algorithm: AbrAlgorithm,
    /// Hard cap on simulated time, seconds.
    pub max_sim_secs: f64,
}

impl Default for AbrConfig {
    fn default() -> Self {
        AbrConfig {
            n_clients: 19,
            client_bandwidth_bytes_per_sec: 256_000.0,
            algorithm: AbrAlgorithm::BufferBased {
                low_secs: 4.0,
                high_secs: 16.0,
            },
            max_sim_secs: 1_800.0,
        }
    }
}

impl AbrConfig {
    /// Checks the configuration: the first setting out of range is an
    /// `Err` naming the rule. The CLI reports the message, [`run_abr`]
    /// panics with it.
    pub fn check(&self) -> Result<(), String> {
        rule(self.n_clients >= 1, "need at least one client")?;
        rule(
            self.client_bandwidth_bytes_per_sec > 0.0,
            "client bandwidth must be positive",
        )?;
        rule(
            self.client_bandwidth_bytes_per_sec.is_finite(),
            "bandwidths must be finite",
        )?;
        rule(self.max_sim_secs > 0.0, "sim cap must be positive")
    }
}

/// Final accounting for one ABR client.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AbrReport {
    /// Client index.
    pub client: usize,
    /// Startup / stall / completion summary.
    pub qoe: QoeMetrics,
    /// The individual stall events.
    pub stalls: Vec<StallEvent>,
    /// Duration-weighted mean bitrate of the segments actually played,
    /// bits per second — the "video quality" the paper says bitrate
    /// adaptation sacrifices.
    pub mean_bitrate_bps: f64,
    /// Number of rendition switches.
    pub switches: usize,
    /// How many segments were fetched at each rung.
    pub rung_counts: Vec<usize>,
}

/// Results of one ABR run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AbrMetrics {
    /// Per-client reports, ordered by client index.
    pub reports: Vec<AbrReport>,
    /// Simulated end time, seconds.
    pub sim_end_secs: f64,
}

impl AbrMetrics {
    /// Mean stalls per client.
    pub fn mean_stalls(&self) -> f64 {
        mean(self.reports.iter().map(|r| r.qoe.stall_count as f64))
    }

    /// Mean total stall duration per client, seconds.
    pub fn mean_stall_secs(&self) -> f64 {
        mean(self.reports.iter().map(|r| r.qoe.total_stall_secs))
    }

    /// Mean startup time, seconds.
    pub fn mean_startup_secs(&self) -> f64 {
        mean(self.reports.iter().filter_map(|r| r.qoe.startup_secs))
    }

    /// Mean delivered bitrate across clients, bits per second.
    pub fn mean_bitrate_bps(&self) -> f64 {
        mean(self.reports.iter().map(|r| r.mean_bitrate_bps))
    }

    /// Fraction of clients that finished the video.
    pub fn completion_rate(&self) -> f64 {
        mean(self.reports.iter().map(|r| {
            if r.qoe.finished_secs.is_some() {
                1.0
            } else {
                0.0
            }
        }))
    }
}

/// Every rung's segments in one list for the origin to serve: rung `r`'s
/// segment `i` is entry `r·n + i` (`n` = the ladder's segment count), and
/// each entry's index is renumbered to its position so the manifest's URIs
/// stay unique.
fn all_renditions(ladder: &Ladder) -> SegmentList {
    let segments = (0..ladder.len())
        .flat_map(|r| ladder.segments(r).iter())
        .enumerate()
        .map(|(at, segment)| Segment {
            index: at as u32,
            ..*segment
        })
        .collect();
    SegmentList::new(segments)
}

/// A sequential HLS-style client: fetch, measure, adapt, repeat.
#[derive(Debug)]
struct AbrClientNode {
    index: usize,
    origin: NodeId,
    bitrates: Vec<u64>,
    durations: Vec<f64>,
    algorithm: AbrAlgorithm,
    estimator: BandwidthEstimator,
    playback: Playback,
    join_delay: SimDuration,
    pump: SimDuration,
    streaming: bool,
    /// A request is out: the origin queues it until a slot frees, so the
    /// client waits for its transfer and never re-sends.
    in_flight: bool,
    rung_counts: Vec<usize>,
    last_rung: Option<usize>,
    switches: usize,
    reported: bool,
    sink: Rc<RefCell<Vec<AbrReport>>>,
}

impl AbrClientNode {
    fn next_segment(&self) -> Option<u32> {
        let buffer = self.playback.buffer();
        (!buffer.is_complete()).then(|| buffer.first_missing() as u32)
    }

    fn request_next(&mut self, ctx: &mut Ctx<'_>) {
        if !self.streaming || self.in_flight {
            return;
        }
        let Some(index) = self.next_segment() else {
            return;
        };
        let now = ctx.now().as_secs_f64();
        let buffered = self.playback.buffered_ahead(now).as_secs_f64();
        let rung = self
            .algorithm
            .choose(&self.bitrates, buffered, self.estimator.bytes_per_sec());
        let message = Message::Request {
            index: rung as u32 * self.durations.len() as u32 + index,
        };
        self.in_flight = ctx.send(self.origin, encode_to_bytes(&message)).is_ok();
    }

    fn write_report(&mut self, ctx: &mut Ctx<'_>) {
        if self.reported {
            return;
        }
        self.reported = true;
        self.playback.finish(ctx.now().as_secs_f64());
        // Duration-weighted mean bitrate over fetched segments.
        let mut weighted = 0.0;
        let mut covered = 0.0;
        for (seg, &dur) in self.durations.iter().enumerate() {
            if self.playback.buffer().has(seg) {
                covered += dur;
            }
        }
        // rung_counts tracks how many segments came at each rung; segments
        // share (approximately) equal durations, so weight by count.
        let fetched: usize = self.rung_counts.iter().sum();
        if fetched > 0 && covered > 0.0 {
            let per = covered / fetched as f64;
            for (rung, &count) in self.rung_counts.iter().enumerate() {
                weighted += self.bitrates[rung] as f64 * count as f64 * per;
            }
            weighted /= covered;
        }
        self.sink.borrow_mut().push(AbrReport {
            client: self.index,
            qoe: self.playback.metrics(),
            stalls: self.playback.stalls().to_vec(),
            mean_bitrate_bps: weighted,
            switches: self.switches,
            rung_counts: self.rung_counts.clone(),
        });
    }
}

impl NodeBehavior for AbrClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.join_delay, TOKEN_BOOT);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        match event {
            NodeEvent::Timer { token: TOKEN_BOOT } => {
                let _ = ctx.send(self.origin, encode_to_bytes(&Message::ManifestRequest));
                ctx.set_timer(self.pump, TOKEN_PUMP);
            }
            NodeEvent::Timer { token: TOKEN_PUMP } => {
                self.playback.advance(ctx.now().as_secs_f64());
                self.request_next(ctx);
                if self.playback.state() != PlaybackState::Finished {
                    ctx.set_timer(self.pump, TOKEN_PUMP);
                }
            }
            NodeEvent::Timer { .. } => {}
            NodeEvent::Message { payload, .. } => {
                let Ok(message) = decode_single(&payload) else {
                    return;
                };
                if let Message::ManifestData { .. } = message {
                    if !self.streaming {
                        self.streaming = true;
                        self.request_next(ctx);
                    }
                }
            }
            NodeEvent::TransferComplete {
                tag,
                bytes,
                started,
                ..
            } => {
                let n = self.durations.len() as u64;
                let (rung, index) = ((tag / n) as usize, tag % n);
                let now = ctx.now();
                self.estimator
                    .observe(bytes, now.saturating_since(started).as_secs_f64());
                self.in_flight = false;
                self.rung_counts[rung] += 1;
                if self.last_rung.is_some_and(|last| last != rung) {
                    self.switches += 1;
                }
                self.last_rung = Some(rung);
                self.playback.on_segment(index as usize, now.as_secs_f64());
                self.request_next(ctx);
            }
            NodeEvent::TransferFailed { .. } => {
                self.in_flight = false;
                self.request_next(ctx);
            }
            _ => {}
        }
    }

    fn on_sim_end(&mut self, ctx: &mut Ctx<'_>) {
        self.write_report(ctx);
    }
}

/// Runs a CDN-served adaptive-bitrate session for every client and
/// collects per-client quality/stall metrics. Deterministic per
/// `(ladder, config, seed)`.
///
/// # Panics
///
/// Panics on an invalid configuration or an inconsistent ladder.
///
/// # Examples
///
/// ```no_run
/// use splicecast_media::Ladder;
/// use splicecast_swarm::{run_abr, AbrConfig};
///
/// let ladder = Ladder::builder().duration_secs(60.0).build();
/// let metrics = run_abr(&ladder, &AbrConfig::default(), 42);
/// println!("delivered {:.2} Mbps with {:.1} stalls",
///          metrics.mean_bitrate_bps() / 1e6, metrics.mean_stalls());
/// ```
pub fn run_abr(ladder: &Ladder, config: &AbrConfig, seed: u64) -> AbrMetrics {
    must(config.check());
    ladder.validate().expect("consistent ladder");

    let per_link_loss = 1.0 - (1.0 - END_TO_END_LOSS).sqrt();
    let link_latency = SimDuration::from_secs_f64(ONE_WAY_LATENCY_SECS / 2.0);
    let mut leaf_specs = vec![LinkSpec::from_bytes_per_sec(
        ORIGIN_BANDWIDTH_BYTES_PER_SEC,
        link_latency,
        per_link_loss,
    )];
    leaf_specs.extend(std::iter::repeat_n(
        LinkSpec::from_bytes_per_sec(
            config.client_bandwidth_bytes_per_sec,
            link_latency,
            per_link_loss,
        ),
        config.n_clients,
    ));
    let star = star(&leaf_specs);
    let origin_id = star.leaves[0];

    let bitrates: Vec<u64> = (0..ladder.len()).map(|r| ladder.bitrate_bps(r)).collect();
    let durations: Vec<f64> = (0..ladder.segment_count())
        .map(|s| ladder.segment_secs(s))
        .collect();

    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xAB12_AB12_AB12_AB12);
    let sink = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulator::new(star.network, seed);
    sim.add_node(Box::new(NullBehavior)); // hub
    sim.add_node(Box::new(SeederNode::new(
        all_renditions(ladder),
        0,
        ORIGIN_UPLOAD_SLOTS,
    )));
    let timeline = Arc::new(ladder.segments(0).clone());
    for index in 0..config.n_clients {
        let mut playback = Playback::new(Arc::clone(&timeline));
        playback.set_resume_threshold(RESUME_BUFFER_SECS);
        sim.add_node(Box::new(AbrClientNode {
            index,
            origin: origin_id,
            bitrates: bitrates.clone(),
            durations: durations.clone(),
            algorithm: config.algorithm,
            estimator: BandwidthEstimator::new(
                EstimatorKind::Ewma { alpha: 0.4 },
                config.client_bandwidth_bytes_per_sec,
            ),
            playback,
            join_delay: SimDuration::from_secs_f64(setup_rng.gen_range(0.0..=JOIN_STAGGER_SECS)),
            pump: SimDuration::from_millis(500),
            streaming: false,
            in_flight: false,
            rung_counts: vec![0; ladder.len()],
            last_rung: None,
            switches: 0,
            reported: false,
            sink: sink.clone(),
        }));
    }
    let end = sim.run_until_idle(SimTime::from_secs_f64(config.max_sim_secs));
    let mut reports = sink.take();
    reports.sort_by_key(|r| r.client);
    AbrMetrics {
        reports,
        sim_end_secs: end.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ladder() -> Ladder {
        Ladder::builder().duration_secs(24.0).build()
    }

    /// The three arms of `figure abr`.
    const ARMS: [AbrAlgorithm; 3] = [
        AbrAlgorithm::BufferBased {
            low_secs: 4.0,
            high_secs: 16.0,
        },
        AbrAlgorithm::RateBased { safety: 0.8 },
        AbrAlgorithm::FixedRendition(2),
    ];

    fn small_config(algorithm: AbrAlgorithm) -> AbrConfig {
        AbrConfig {
            n_clients: 4,
            client_bandwidth_bytes_per_sec: 200_000.0,
            algorithm,
            max_sim_secs: 600.0,
        }
    }

    #[test]
    fn algorithms_choose_sane_rungs() {
        let ladder = [250_000u64, 500_000, 1_000_000];
        let fixed = AbrAlgorithm::FixedRendition(9);
        assert_eq!(fixed.choose(&ladder, 0.0, 0.0), 2, "clamped to the top");
        let rate = AbrAlgorithm::RateBased { safety: 0.8 };
        assert_eq!(rate.choose(&ladder, 0.0, 1_000_000.0 / 8.0 * 0.5), 0); // 0.4 Mbps budget
        assert_eq!(rate.choose(&ladder, 0.0, 200_000.0), 2); // 1.28 Mbps budget
        let buffer = AbrAlgorithm::BufferBased {
            low_secs: 4.0,
            high_secs: 12.0,
        };
        assert_eq!(buffer.choose(&ladder, 0.0, 1e9), 0);
        assert_eq!(buffer.choose(&ladder, 20.0, 0.0), 2);
        assert_eq!(buffer.choose(&ladder, 8.0, 0.0), 1);
        assert_eq!(AbrAlgorithm::RateBased { safety: 0.8 }.name(), "rate-based");
    }

    #[test]
    fn rate_based_picks_the_highest_affordable_rung() {
        let ladder = [300_000u64, 600_000, 1_200_000];
        let exact = AbrAlgorithm::RateBased { safety: 1.0 };
        let pick = |budget_bps: f64| exact.choose(&ladder, 0.0, budget_bps / 8.0);
        assert_eq!(pick(10_000.0), 0, "below the ladder → lowest rung");
        assert_eq!(pick(300_000.0), 0);
        assert_eq!(pick(599_999.0), 0);
        assert_eq!(pick(600_000.0), 1);
        assert_eq!(pick(5e6), 2);
    }

    #[test]
    fn fixed_top_rendition_delivers_full_quality() {
        let metrics = run_abr(
            &small_ladder(),
            &small_config(AbrAlgorithm::FixedRendition(2)),
            7,
        );
        assert_eq!(metrics.reports.len(), 4);
        assert_eq!(metrics.completion_rate(), 1.0);
        assert!((metrics.mean_bitrate_bps() - 1_000_000.0).abs() < 1.0);
        for report in &metrics.reports {
            assert_eq!(report.switches, 0);
            assert_eq!(report.rung_counts, vec![0, 0, 6]);
        }
    }

    #[test]
    fn buffer_based_abr_trades_quality_for_fewer_stalls() {
        // At 160 kB/s (1.28 Mbps) the top 1 Mbps rendition is marginal;
        // ABR should stall less than fixed-top while delivering less
        // quality than the full 1 Mbps.
        let config_of = |algorithm| AbrConfig {
            client_bandwidth_bytes_per_sec: 160_000.0,
            ..small_config(algorithm)
        };
        let abr = run_abr(
            &small_ladder(),
            &config_of(AbrAlgorithm::BufferBased {
                low_secs: 4.0,
                high_secs: 16.0,
            }),
            11,
        );
        let fixed = run_abr(
            &small_ladder(),
            &config_of(AbrAlgorithm::FixedRendition(2)),
            11,
        );
        assert!(
            abr.mean_bitrate_bps() < fixed.mean_bitrate_bps(),
            "quality was sacrificed"
        );
        assert!(
            abr.mean_stall_secs() <= fixed.mean_stall_secs(),
            "abr stall time {} should not exceed fixed-top {}",
            abr.mean_stall_secs(),
            fixed.mean_stall_secs()
        );
        assert_eq!(abr.completion_rate(), 1.0);
    }

    #[test]
    fn abr_runs_are_deterministic() {
        let ladder = small_ladder();
        let config = small_config(AbrAlgorithm::RateBased { safety: 0.8 });
        assert_eq!(run_abr(&ladder, &config, 5), run_abr(&ladder, &config, 5));
        assert_ne!(run_abr(&ladder, &config, 5), run_abr(&ladder, &config, 6));
    }

    /// Pins the ABR baseline's exact output on the ABR ladder, all three
    /// arms of `figure abr`, one seed: FNV-1a over each client's QoE,
    /// delivered bitrate, switches and rung counts, each as one
    /// little-endian `u64` word.
    #[test]
    fn abr_output_digest_is_pinned() {
        let ladder = small_ladder();
        let opt_bits = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        let mut words = Vec::new();
        for algorithm in ARMS {
            let config = AbrConfig {
                client_bandwidth_bytes_per_sec: 160_000.0,
                ..small_config(algorithm)
            };
            let metrics = run_abr(&ladder, &config, 7);
            words.push(metrics.sim_end_secs.to_bits());
            for r in &metrics.reports {
                words.extend([
                    r.client as u64,
                    opt_bits(r.qoe.startup_secs),
                    r.qoe.stall_count as u64,
                    r.qoe.total_stall_secs.to_bits(),
                    opt_bits(r.qoe.finished_secs),
                    r.mean_bitrate_bps.to_bits(),
                    r.switches as u64,
                ]);
                words.extend(r.rung_counts.iter().map(|&n| n as u64));
            }
        }
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(
            digest, 0xf898_b019_4770_ea13,
            "ABR run output changed; if intentional, update the pinned digest"
        );
    }

    /// With more clients than the origin has slots, requests queue and are
    /// served as slots free: every client finishes, under every algorithm,
    /// on thin and fat links alike, without ever re-sending a request.
    #[test]
    fn every_client_finishes_past_the_origins_slots() {
        let ladder = small_ladder();
        for algorithm in ARMS {
            for bandwidth in [96_000.0, 256_000.0] {
                let config = AbrConfig {
                    n_clients: 100,
                    client_bandwidth_bytes_per_sec: bandwidth,
                    ..small_config(algorithm)
                };
                assert!(config.n_clients > ORIGIN_UPLOAD_SLOTS);
                let metrics = run_abr(&ladder, &config, 7);
                assert_eq!(
                    metrics.completion_rate(),
                    1.0,
                    "{} at {bandwidth} B/s",
                    algorithm.name()
                );
            }
        }
    }
}
