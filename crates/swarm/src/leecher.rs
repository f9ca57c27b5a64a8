//! The leecher: joins the swarm, downloads segments under a pooling
//! policy, plays the video, and serves other peers.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use splicecast_media::SegmentList;
use splicecast_netsim::{Ctx, NodeBehavior, NodeEvent, NodeId, SimDuration, SimTime};
use splicecast_player::{Playback, PlaybackState};
use splicecast_protocol::{
    decode_single, have_bundle_indices, Bitfield, EncodeBuf, Message, PROTOCOL_VERSION,
};

use crate::fault::{DefenseConfig, BACKOFF_BASE_SECS, BACKOFF_MAX_SECS};
use crate::metrics::{MetricsSink, PeerMemStats, PeerReport};
use crate::policy::{BandwidthEstimator, PolicyConfig};
use crate::scheduler::{next_wanted_from, pick_source, SourceCandidate};
use crate::swarm::{ControlPlane, DisseminationMode, SchedulerMode};
use crate::upload::UploadSide;
use crate::views::Views;

const TOKEN_BOOT: u64 = 1;
const TOKEN_PUMP: u64 = 2;
const TOKEN_DEPART: u64 = 3;
const TOKEN_CRASH: u64 = 4;

/// Tracker re-announce cadence, in pump intervals, on absolute time so it
/// is independent of pump activity.
const ANNOUNCE_PUMPS: u64 = 10;

thread_local! {
    /// The candidate sources of one pick, a list whose length can reach
    /// the swarm size. A simulation runs on one thread and its leechers'
    /// handlers never overlap, so one list per thread serves them all,
    /// where one per leecher would cost a few bytes per ordered pair of
    /// nodes.
    static SCRATCH_CANDIDATES: Cell<Vec<SourceCandidate>> = const { Cell::new(Vec::new()) };
}

/// Everything a leecher needs to operate.
pub struct LeecherConfig {
    /// Leecher index (for reports), 0-based.
    pub index: usize,
    /// The seeder's node id.
    pub seeder: NodeId,
    /// The CDN node, in hybrid mode.
    pub cdn: Option<NodeId>,
    /// The other leechers. [`LeecherNode::new`] reads it to size the
    /// neighbour views (and, under full discovery, to fill them) and then
    /// drops it.
    pub others: Vec<NodeId>,
    /// The splice being streamed, shared across the whole swarm (segment
    /// metadata is immutable, so every node holds the same `Arc`).
    pub segments: Arc<SegmentList>,
    /// Pool-size policy (§III).
    pub policy: PolicyConfig,
    /// Bandwidth estimator feeding the policy's `B`.
    pub estimator: BandwidthEstimator,
    /// Concurrent uploads served to other peers.
    pub upload_slots: usize,
    /// Delay before this peer joins the swarm.
    pub join_delay: SimDuration,
    /// If set, the peer departs this long after joining (churn).
    pub depart_after: Option<SimDuration>,
    /// If set, the peer crash-stops this long after joining: it goes
    /// offline without a `Goodbye`, leaving the swarm to find it gone
    /// through failed sends and transfers (fault injection).
    pub crash_after: Option<SimDuration>,
    /// Failure defenses: source backoff bans. `None` disables them and
    /// keeps the leecher byte-identical to the pre-defense behaviour.
    pub defense: Option<DefenseConfig>,
    /// Cadence of the maintenance timer.
    pub pump_interval: SimDuration,
    /// How long a request may sit unserved before re-requesting.
    pub request_timeout: SimDuration,
    /// Media that must be buffered before resuming from a stall, seconds.
    pub resume_buffer_secs: f64,
    /// How the policy's `W` is estimated.
    pub w_estimate: crate::policy::WEstimate,
    /// When false, segments are fetched from the CDN only (§IV's
    /// CDN-served scenario); peer-to-peer exchange is disabled.
    pub p2p: bool,
    /// How this leecher learns about other peers.
    pub discovery: crate::swarm::DiscoveryMode,
    /// Which control plane disseminates availability and schedules pumps.
    pub control_plane: ControlPlane,
    /// Retired: read by nothing since every pass reads the neighbour
    /// views; see [`SchedulerMode`].
    pub scheduler: SchedulerMode,
    /// Retired: read by nothing; see [`DisseminationMode`].
    pub dissemination: DisseminationMode,
    /// How long completions may wait before a coalesced `HaveBundle`
    /// flush (read only when the plane bundles Haves).
    pub coalesce_window: SimDuration,
    /// Retired: read by nothing since no leecher keeps a holder index; see
    /// [`SwarmConfig::sparse_holders`](crate::SwarmConfig::sparse_holders).
    pub sparse_holders: bool,
    /// Where the final [`PeerReport`] is written.
    pub sink: MetricsSink,
}

impl std::fmt::Debug for LeecherConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeecherConfig")
            .field("index", &self.index)
            .field("policy", &self.policy)
            .field("p2p", &self.p2p)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    source: NodeId,
    requested_at: SimTime,
    /// Whether the source has started serving (we saw its SegmentHeader).
    serving: bool,
}

/// Outcome of the last scheduling pass, driving the dirty-flag skip.
///
/// A pass that issues no request consumes no RNG and sends nothing
/// (`pick_source` only draws on a non-empty candidate set, and a non-empty
/// set always yields a request), so skipping its re-run is bit-identical to
/// running it — as long as nothing that could change its outcome happened
/// in between. Every such change marks the state [`SchedState::Dirty`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SchedState {
    /// Something relevant changed; the next pass must run.
    Dirty,
    /// The last pass found every segment held or in flight. Only freeing a
    /// segment (`drop_in_flight`) can change that, and it marks dirty.
    Exhausted,
    /// The last pass stopped at this wanted segment with no eligible
    /// source for it. The pass walks segments in order and stops at the
    /// *first* want it cannot fill, so only events that could fill exactly
    /// that segment re-dirty the state: a handshaken neighbour newly
    /// showing *that segment* ([`LeecherNode::on_new_bit`]), a fresh
    /// handshake (makes bits learned before it count, or enables the
    /// CDN), a freed in-flight slot, or the leecher's own holdings growing
    /// (moves the frontier). News of other segments cannot change the
    /// outcome — the pass would stop at the same segment again. (Peers
    /// going offline only *shrink* the candidate set, so they need no
    /// mark. An origin coming back from an outage grows it, so no pass
    /// ends here while one is down.)
    NoSource(u32),
    /// The last pass stopped at the pool-size cap. Skippable even though
    /// the adaptive pool size is time-varying: between deliveries the
    /// buffered lead `T` only *shrinks* (the play head advances, the
    /// buffer is fixed), so the pool `⌊B·T/W⌋` only shrinks and a full
    /// pool stays full. Everything that can grow it — a fresh bandwidth
    /// sample `B`, a freed in-flight slot, a new holding extending the
    /// buffer — happens inside a delivery or drop, and those mark dirty.
    PoolFull,
}

/// Rolling health record for one download source (defense plane only).
/// Failures grow an exponential-backoff ban window; each success pays one
/// failure back and lifts any active ban.
#[derive(Debug, Clone, Copy)]
struct SourceHealth {
    /// Consecutive-ish failure score (successes decrement it).
    failures: u32,
    /// The source is skipped by the picker until this instant — unless it
    /// is the only provider left (a ban must never starve a segment).
    banned_until: SimTime,
}

/// The leecher node behaviour.
#[derive(Debug)]
pub struct LeecherNode {
    cfg: LeecherConfig,
    /// The one record of what this leecher holds: its playback buffer.
    playback: Playback,
    /// The neighbours, the origins included: what each holds, and whether
    /// it has handshaken. The one record of who holds what; a pick walks it.
    views: Views,
    /// Outcome of the last scheduling pass (dirty-flag scheduling).
    sched_state: SchedState,
    /// The request records, at most a pool's worth: what the timeout walk
    /// iterates and a completion looks up.
    in_flight: BTreeMap<u32, InFlight>,
    /// The keys of `in_flight` as one bit per segment, so the questions
    /// asked a million times a run — is this segment in flight, is it
    /// wanted — test a bit instead of descending the tree.
    in_flight_mask: Bitfield,
    /// How many of `in_flight`'s records name each source, ascending by
    /// source, no zero count: at most a pool's worth of entries. A pick
    /// reads a candidate's load here, in one walk merged with the
    /// ascending holder walk. It and the mask are written only next to
    /// the map's own two mutation sites, `record_in_flight` and
    /// `drop_in_flight`.
    loads: Vec<(NodeId, u32)>,
    /// One-shot re-pick bans: segment → the source whose request just
    /// timed out there. Consulted (and consumed) by the next successful
    /// pick of that segment, so a re-request "moves to a *different*
    /// source when one exists" instead of letting the random tie-break
    /// land back on the stale one. Kept out of the pick itself so the
    /// candidate set — and therefore the RNG draw sequence — is unchanged
    /// whenever the tie-break behaves.
    timeout_bans: BTreeMap<u32, NodeId>,
    uploads: UploadSide,
    /// Set once the manifest has arrived; downloads start then.
    streaming: bool,
    /// [`SegmentList::mean_segment_bytes`] is O(segments); the list is
    /// immutable, so the mean is computed once.
    mean_segment_bytes: u64,
    /// Completions awaiting a flush: at once when the plane sends single
    /// `Have`s, after the coalescing window when it bundles them.
    pending_haves: Vec<u32>,
    /// Deadline of the pending flush, if one is open.
    flush_at: Option<SimTime>,
    /// Absolute time of the next tracker re-announce.
    next_announce_at: SimTime,
    /// Earliest deadline a pump timer is already set for. Timers cannot be
    /// cancelled, so arming only sets a timer when it beats this mark;
    /// stale fires are harmless no-op pumps.
    earliest_armed: SimTime,
    report: PeerReport,
    reported: bool,
    /// Scratch buffer for outgoing frames (reused across sends).
    wire_buf: EncodeBuf,
    /// Our `Handshake` frame: it never changes during a run, so every
    /// greeting sends this one.
    handshake_wire: Bytes,
    /// Our `Bitfield` frame, encoded by the first greeting reply after our
    /// holdings last grew (a delivery drops it), so the replies in between
    /// share one frame.
    bitfield_wire: Option<Bytes>,
    /// Scratch storage for the timeout walk, at most a pool's worth, so
    /// the request/deliver cycle allocates nothing per event. The
    /// candidate list, which can grow to the swarm size, is per thread
    /// instead (`SCRATCH_CANDIDATES`), and a multicast's failed peers are
    /// the simulator's.
    scratch_stale: Vec<(u32, InFlight)>,
    /// Per-source failure scores with backoff bans (defense plane only;
    /// empty when defenses are off).
    health: BTreeMap<NodeId, SourceHealth>,
}

impl LeecherNode {
    /// Creates a leecher. It stays idle until `join_delay` elapses.
    pub fn new(mut cfg: LeecherConfig) -> Self {
        let segment_count = cfg.segments.len() as u32;
        let mut playback = Playback::new(cfg.segments.clone());
        playback.set_resume_threshold(cfg.resume_buffer_secs);
        // The member list is read here and nowhere else: `boot` greets the
        // views it leaves behind.
        let others = std::mem::take(&mut cfg.others);
        // Every node id this leecher can meet: the other leechers plus
        // seeder, CDN, hub, and itself occupy the low node indices.
        let universe = others.len() + 4;
        let mut views = Views::with_slots(universe, segment_count);
        views.insert(cfg.seeder);
        if let Some(cdn) = cfg.cdn {
            // The CDN holds every segment (§IV), so it is a candidate like
            // any other holder from its handshake on.
            views.insert(cdn);
            views.fill(cdn);
        }
        if cfg.discovery == crate::swarm::DiscoveryMode::Full {
            for other in others {
                views.insert(other);
            }
        }
        let uploads = UploadSide::new(cfg.upload_slots);
        let report = PeerReport {
            peer: cfg.index,
            ..PeerReport::default()
        };
        let mut wire_buf = EncodeBuf::new();
        let handshake_wire = wire_buf.wire(&Message::Handshake {
            peer_id: cfg.index as u64 + 1,
            info_hash: crate::seeder::info_hash_of(""),
            version: PROTOCOL_VERSION,
        });
        LeecherNode {
            playback,
            views,
            sched_state: SchedState::Dirty,
            in_flight: BTreeMap::new(),
            in_flight_mask: Bitfield::new(segment_count),
            loads: Vec::new(),
            timeout_bans: BTreeMap::new(),
            uploads,
            streaming: false,
            mean_segment_bytes: cfg.segments.mean_segment_bytes().round() as u64,
            pending_haves: Vec::new(),
            flush_at: None,
            next_announce_at: SimTime::MAX,
            earliest_armed: SimTime::MAX,
            report,
            reported: false,
            wire_buf,
            handshake_wire,
            bitfield_wire: None,
            scratch_stale: Vec::new(),
            health: BTreeMap::new(),
            cfg,
        }
    }

    fn is_origin(&self, node: NodeId) -> bool {
        node == self.cfg.seeder || self.cfg.cdn == Some(node)
    }

    /// Whether the seeder or the CDN is in an outage.
    fn origin_down(&self, ctx: &Ctx<'_>) -> bool {
        !ctx.is_online(self.cfg.seeder) || self.cfg.cdn.is_some_and(|cdn| !ctx.is_online(cdn))
    }

    /// Forgets a peer that left, however we learned it — a `Goodbye`, a
    /// failed send, a failed transfer or the offline probe: its view and
    /// its timeout bans go, and so does every request we have in flight to
    /// it, which marks the scheduler dirty.
    /// The next scheduling pass re-requests those segments. An origin keeps
    /// its view: it is offline only during an outage, which is a pause, and
    /// the `is_online` probe in every pick skips it meanwhile.
    fn forget_peer(&mut self, peer: NodeId) {
        if !self.is_origin(peer) {
            self.views.remove(peer);
            // A one-shot ban names the peer whose request timed out on
            // that segment; it must not outlive the peer, or a later
            // redraw's `unwrap_or(banned)` fallback could point a request
            // at a source that no longer exists.
            self.timeout_bans.retain(|_, &mut banned| banned != peer);
        }
        while let Some(index) = self
            .in_flight
            .iter()
            .find(|(_, f)| f.source == peer)
            .map(|(&index, _)| index)
        {
            self.drop_in_flight(index);
        }
    }

    /// Whether the injected fault plane may drop or delay this message:
    /// periodic availability traffic, where losing one costs a candidate
    /// until the next announcement. Everything else — requests included —
    /// is reliable, as on the TCP connection the paper's peers speak over.
    fn droppable(message: &Message) -> bool {
        matches!(
            message,
            Message::Have { .. } | Message::HaveBundle { .. } | Message::Bitfield(_)
        )
    }

    /// Forgets the peers a multicast failed to reach, in send order
    /// (forgetting sends nothing, so it may wait until every send is out).
    /// That failed send is how a crash is detected, as a TCP sender learns
    /// of a dead peer from a connection reset.
    fn forget_failed(&mut self, failed: &[NodeId]) {
        for &peer in failed {
            self.forget_peer(peer);
        }
    }

    /// Puts the encoded frame `wire` on the wire to `to` — through the
    /// fault plane when it is `droppable` — and forgets `to` if it turned
    /// out unreachable. Returns whether the send succeeded.
    fn send_wire(&mut self, ctx: &mut Ctx<'_>, to: NodeId, wire: &Bytes, droppable: bool) -> bool {
        let (_, failed) = ctx.multicast([to], wire, droppable);
        self.forget_failed(failed);
        failed.is_empty()
    }

    fn say(&mut self, ctx: &mut Ctx<'_>, to: NodeId, message: &Message) -> bool {
        let wire = self.wire_buf.wire(message);
        self.send_wire(ctx, to, &wire, Self::droppable(message))
    }

    fn greet(&mut self, ctx: &mut Ctx<'_>, peer: NodeId) {
        if !self.views.greeted(peer) {
            self.greet_all(ctx, &[peer]);
        }
    }

    /// Handshakes each of `peers`, none of them greeted yet, with one
    /// multicast of our one handshake frame (reliable: see
    /// [`Self::droppable`]), and marks greeted those it reached.
    fn greet_all(&mut self, ctx: &mut Ctx<'_>, peers: &[NodeId]) {
        let (_, failed) = ctx.multicast(peers.iter().copied(), &self.handshake_wire, false);
        self.forget_failed(failed);
        // The failed peers are an in-order subsequence of `peers`.
        let mut failed = failed.iter().peekable();
        for peer in peers {
            if failed.next_if_eq(&peer).is_none() {
                self.views.set_greeted(*peer, true);
            }
        }
    }

    fn boot(&mut self, ctx: &mut Ctx<'_>) {
        // Handshake the origins and (in P2P mode) every known peer, then
        // ask the seeder for the manifest — and, under tracker discovery,
        // for the member list.
        self.greet(ctx, self.cfg.seeder);
        if let Some(cdn) = self.cfg.cdn {
            self.greet(ctx, cdn);
        }
        if self.cfg.p2p {
            match self.cfg.discovery {
                crate::swarm::DiscoveryMode::Full => {
                    // The views `new` made of the member list, less the
                    // peers that greeted us first and those that left: a
                    // peer leaves the views only by going offline for
                    // good, so greeting it would be a failed send, which
                    // draws and counts nothing.
                    let mut peers = Vec::with_capacity(self.views.len());
                    peers.extend(
                        self.views
                            .iter()
                            .filter(|&peer| !self.is_origin(peer) && !self.views.greeted(peer)),
                    );
                    self.greet_all(ctx, &peers);
                }
                crate::swarm::DiscoveryMode::Tracker => {
                    self.say(ctx, self.cfg.seeder, &Message::PeerListRequest);
                }
            }
        }
        self.say(ctx, self.cfg.seeder, &Message::ManifestRequest);
        if let Some(depart) = self.cfg.depart_after {
            ctx.set_timer(depart, TOKEN_DEPART);
        }
        if let Some(crash) = self.cfg.crash_after {
            ctx.set_timer(crash, TOKEN_CRASH);
        }
        self.next_announce_at = ctx.now() + self.cfg.pump_interval * ANNOUNCE_PUMPS;
        let first = ctx.now() + self.cfg.pump_interval;
        self.arm_pump(ctx, first);
    }

    /// Sets a pump timer for `at` unless one at least as early is already
    /// pending. The simulator cannot cancel timers, so over-arming is the
    /// failure mode to avoid; a pump that fires with nothing due simply
    /// re-arms.
    fn arm_pump(&mut self, ctx: &mut Ctx<'_>, at: SimTime) {
        if at < self.earliest_armed {
            self.earliest_armed = at;
            ctx.set_timer(at.saturating_since(ctx.now()), TOKEN_PUMP);
        }
    }

    /// Whether this leecher still re-announces to the tracker.
    fn announces(&self) -> bool {
        self.cfg.p2p
            && self.cfg.discovery == crate::swarm::DiscoveryMode::Tracker
            && !self.playback.buffer().is_complete()
    }

    /// Encodes `message` once and sends it as one multicast to every
    /// neighbour `include` admits, in ascending order, evicting peers that
    /// became unreachable. `include` reads the views while the messages
    /// go out, which no send changes. Returns the number of successful
    /// sends.
    fn broadcast(
        &mut self,
        ctx: &mut Ctx<'_>,
        message: &Message,
        mut include: impl FnMut(&Self, NodeId) -> bool,
    ) -> u64 {
        let wire = self.wire_buf.wire(message);
        let peers = self.views.iter().filter(|&peer| include(self, peer));
        let (sent, failed) = ctx.multicast(peers, &wire, Self::droppable(message));
        self.forget_failed(failed);
        sent
    }

    /// The number of segments in the video.
    fn segment_count(&self) -> u32 {
        self.cfg.segments.len() as u32
    }

    /// Whether segment `index` is held.
    fn holds(&self, index: u32) -> bool {
        self.playback.buffer().has(index as usize)
    }

    /// The first segment not held: the playback buffer's low-water mark.
    fn first_unheld(&self) -> u32 {
        self.playback.buffer().first_missing() as u32
    }

    /// Our `Bitfield` frame: the cached one, or one encoded from the
    /// playback buffer and cached until our holdings grow.
    fn bitfield_frame(&mut self) -> Bytes {
        if let Some(frame) = &self.bitfield_wire {
            return frame.clone();
        }
        let mut held = Bitfield::new(self.segment_count());
        for i in (0..held.len()).filter(|&i| self.holds(i)) {
            held.set(i);
        }
        let frame = self.wire_buf.wire(&Message::Bitfield(held));
        self.bitfield_wire = Some(frame.clone());
        frame
    }

    /// The heart of §III: keep the download pool filled to the policy's
    /// size. The pool is a sliding window over the sequential segment
    /// order: whenever a download completes (or the policy's `k` grows
    /// because `T` grew), the next wanted segments are requested. An
    /// oversized pool is counterproductive on a thin link: the next-needed
    /// segment gets `1/k` of the bandwidth while `k` parallel connections
    /// overload the access link (§VI-B).
    fn schedule(&mut self, ctx: &mut Ctx<'_>) {
        if !self.streaming {
            return;
        }
        let now = ctx.now().as_secs_f64();
        if self.sched_state != SchedState::Dirty {
            // Dirty-flag skip: the last pass proved no request could be
            // issued, nothing relevant changed since (see `SchedState`),
            // and a pass issuing no request touches neither the RNG nor
            // the wire — so not running it is bit-identical.
            #[cfg(debug_assertions)]
            self.audit_skip(ctx, now);
            self.report.sched.skips += 1;
            return;
        }
        self.report.sched.passes += 1;
        // Nothing below a want turns wanted inside a pass while requests
        // go out (holdings do not change and requests only add in-flight
        // bits), so each scan resumes where the last one stopped.
        let mut scan_from = self.first_unheld();
        loop {
            let Some((want, pool_full)) = self.next_request(now, scan_from) else {
                self.sched_state = SchedState::Exhausted;
                self.report.sched.exhausted += 1;
                return; // everything held or requested
            };
            scan_from = want;
            if pool_full {
                self.sched_state = SchedState::PoolFull;
                self.report.sched.full_pool += 1;
                return;
            }
            let Some(mut source) = self.pick_source_for(ctx, want, None) else {
                // An origin's return from an outage is no event, so while
                // one is down the next pass must look again.
                self.sched_state = if self.origin_down(ctx) {
                    SchedState::Dirty
                } else {
                    SchedState::NoSource(want)
                };
                self.report.sched.no_source += 1;
                return;
            };
            if let Some(banned) = self.timeout_bans.remove(&want) {
                if source == banned {
                    // The tie-break landed back on the source that just
                    // timed out here; redraw without it. Falling back to
                    // the banned source is correct when it is the only
                    // provider left.
                    source = self
                        .pick_source_for(ctx, want, Some(banned))
                        .unwrap_or(banned);
                }
            }
            if !self.request_from(ctx, source, want) {
                // The failed send forgot the source and dropped its other
                // requests, which may lie below this want.
                scan_from = self.first_unheld();
            }
        }
    }

    /// The request a pass would try next, scanning from `from`: the first
    /// segment neither held nor in flight, and whether the pool already
    /// has the policy's size `⌊B·T/W⌋` for it. `None` when every segment
    /// is held or requested.
    fn next_request(&mut self, now: f64, from: u32) -> Option<(u32, bool)> {
        let want = next_wanted_from(
            from,
            self.segment_count(),
            |i| self.holds(i),
            |i| self.in_flight_mask.get(i),
        )?;
        let w = match self.cfg.w_estimate {
            crate::policy::WEstimate::MeanSegment => self.mean_segment_bytes,
            crate::policy::WEstimate::NextSegment => self.cfg.segments[want as usize].bytes,
        };
        let pool = self.cfg.policy.pool_size(
            self.cfg.estimator.bytes_per_sec(),
            self.playback.buffered_ahead(now).as_secs_f64(),
            w,
        );
        let pool_full = self.in_flight.len() >= pool;
        Some((want, pool_full))
    }

    /// Debug-only oracle of the dirty-flag skip: the pass it skips would
    /// issue no request — every segment is held or requested, the pool is
    /// full, or the first want has no candidate source. A change that
    /// could fill the pool but marks nothing dirty fails here instead of
    /// delaying a request until some later event. It draws no random
    /// number and sends nothing; its playback poll is output-neutral (the
    /// player records the instant the buffer runs dry, not the poll).
    #[cfg(debug_assertions)]
    fn audit_skip(&mut self, ctx: &Ctx<'_>, now: f64) {
        let Some((want, false)) = self.next_request(now, self.first_unheld()) else {
            return;
        };
        let mut candidates = Vec::new();
        self.collect_candidates(ctx, want, None, &mut candidates);
        assert!(
            candidates.is_empty(),
            "skipped a pass that would request segment {want} ({:?})",
            self.sched_state
        );
    }

    /// Picks the least-loaded eligible source for `index`, skipping
    /// `exclude` (the timed-out source on a re-request).
    fn pick_source_for(
        &mut self,
        ctx: &mut Ctx<'_>,
        index: u32,
        exclude: Option<NodeId>,
    ) -> Option<NodeId> {
        let mut candidates = SCRATCH_CANDIDATES.take();
        candidates.clear();
        let picked = self.pick_from(ctx, index, exclude, &mut candidates);
        SCRATCH_CANDIDATES.set(candidates);
        picked
    }

    /// [`Self::pick_source_for`] over the empty list `candidates`.
    fn pick_from(
        &mut self,
        ctx: &mut Ctx<'_>,
        index: u32,
        exclude: Option<NodeId>,
        candidates: &mut Vec<SourceCandidate>,
    ) -> Option<NodeId> {
        self.collect_candidates(ctx, index, exclude, candidates);
        // Backoff bans (defense plane): skip sources inside their ban
        // window — unless every candidate is banned, because a ban must
        // degrade preference, never starve the segment.
        if self.cfg.defense.is_some() && !self.health.is_empty() {
            // Candidates and health records both ascend by `NodeId`: one
            // merged walk moves the unbanned candidates to the front, and
            // leaves the list as it was when there are none.
            let now = ctx.now();
            let mut records = self.health.iter().peekable();
            let mut kept = 0;
            for i in 0..candidates.len() {
                let peer = candidates[i].peer;
                while records.next_if(|&(&p, _)| p < peer).is_some() {}
                let banned = records
                    .peek()
                    .is_some_and(|&(&p, h)| p == peer && now < h.banned_until);
                if !banned {
                    candidates[kept] = candidates[i];
                    kept += 1;
                }
            }
            if kept > 0 {
                candidates.truncate(kept);
            }
        }
        // Prefer fellow leechers whenever one holds the segment: the origin
        // is the last resort, so its uplink stays free to push *fresh*
        // segments into the swarm (classic BitTorrent etiquette, and what
        // keeps a bandwidth-tight swarm feasible).
        if candidates.iter().any(|c| !self.is_origin(c.peer)) {
            candidates.retain(|c| !self.is_origin(c.peer));
        }
        pick_source(candidates, ctx.rng())
    }

    /// Whether `peer`, known to hold the segment, may serve it now: it is
    /// online and not `exclude`, and it is either the CDN with no download
    /// of ours in progress (§IV: one segment at a time), or, outside
    /// CDN-only mode, any other holder.
    fn eligible(
        &self,
        ctx: &Ctx<'_>,
        peer: NodeId,
        exclude: Option<NodeId>,
        cdn_busy: bool,
    ) -> bool {
        Some(peer) != exclude
            && ctx.is_online(peer)
            && if self.cfg.cdn == Some(peer) {
                !cdn_busy
            } else {
                self.cfg.p2p
            }
    }

    /// The candidate sources of `index`: each eligible holder with its
    /// load. The holders come in ascending `NodeId` order, so the pool
    /// needs no sort for determinism, and the degree cap of the neighbour
    /// set bounds the walk. `loads` ascends too: one merged walk reads each
    /// candidate's load.
    fn collect_candidates(
        &self,
        ctx: &Ctx<'_>,
        index: u32,
        exclude: Option<NodeId>,
        out: &mut Vec<SourceCandidate>,
    ) {
        let cdn_busy = self.cfg.cdn.is_none_or(|cdn| self.load(cdn) > 0);
        let mut loads = self.loads.iter().peekable();
        for peer in self.views.holders(index) {
            if self.eligible(ctx, peer, exclude, cdn_busy) {
                while loads.next_if(|&&(p, _)| p < peer).is_some() {}
                let outstanding = loads
                    .peek()
                    .filter(|&&&(p, _)| p == peer)
                    .map_or(0, |&&(_, n)| n);
                out.push(SourceCandidate { peer, outstanding });
            }
        }
    }

    /// Our requests in flight to `peer`.
    fn load(&self, peer: NodeId) -> u32 {
        self.loads
            .binary_search_by_key(&peer, |&(p, _)| p)
            .map_or(0, |at| self.loads[at].1)
    }

    /// Sends a `Request` for `index` to `source` and records it in flight;
    /// returns whether the send went out.
    fn request_from(&mut self, ctx: &mut Ctx<'_>, source: NodeId, index: u32) -> bool {
        if !self.say(ctx, source, &Message::Request { index }) {
            return false;
        }
        self.record_in_flight(
            index,
            InFlight {
                source,
                requested_at: ctx.now(),
                serving: false,
            },
        );
        if self.cfg.control_plane.request_deadlines {
            // A pump must run when this request's timeout expires.
            let deadline = ctx.now() + self.cfg.request_timeout;
            self.arm_pump(ctx, deadline);
        }
        true
    }

    /// Records `entry`, a request for `index`: its record, its mask bit
    /// and its source's load.
    fn record_in_flight(&mut self, index: u32, entry: InFlight) {
        self.in_flight.insert(index, entry);
        self.in_flight_mask.set(index);
        match self.loads.binary_search_by_key(&entry.source, |&(p, _)| p) {
            Ok(at) => self.loads[at].1 += 1,
            Err(at) => self.loads.insert(at, (entry.source, 1)),
        }
    }

    fn drop_in_flight(&mut self, index: u32) -> Option<InFlight> {
        let entry = self.in_flight.remove(&index)?;
        self.in_flight_mask.clear(index);
        let at = self
            .loads
            .binary_search_by_key(&entry.source, |&(p, _)| p)
            .expect("a request's source has a load");
        self.loads[at].1 -= 1;
        if self.loads[at].1 == 0 {
            self.loads.remove(at);
        }
        // Freeing a segment can turn an exhausted schedule fillable again,
        // and freeing a CDN slot can give a source-less segment a source.
        self.sched_state = SchedState::Dirty;
        Some(entry)
    }

    /// Records a request timeout or failed transfer against `source`
    /// (defense plane): the failure score grows an exponential-backoff ban
    /// window, so a flaky source is sidelined for progressively longer
    /// instead of being re-picked every round.
    fn record_source_failure(&mut self, now: SimTime, source: NodeId) {
        if self.cfg.defense.is_none() {
            return;
        }
        if self.is_origin(source) {
            // The seeder and CDN are the swarm's safety net; banning them
            // could starve segments no leecher holds yet.
            return;
        }
        let entry = self.health.entry(source).or_insert(SourceHealth {
            failures: 0,
            banned_until: SimTime::ZERO,
        });
        entry.failures = entry.failures.saturating_add(1);
        let exponent = entry.failures.saturating_sub(1).min(8);
        let window = (BACKOFF_BASE_SECS * f64::from(1u32 << exponent)).min(BACKOFF_MAX_SECS);
        entry.banned_until = now + SimDuration::from_secs_f64(window);
        self.report.fault.backoff_bans += 1;
    }

    /// Pays one failure back after a successful delivery from `source` and
    /// lifts any active ban (the source proved itself again).
    fn record_source_success(&mut self, source: NodeId) {
        if self.cfg.defense.is_none() {
            return;
        }
        if let Some(entry) = self.health.get_mut(&source) {
            entry.failures = entry.failures.saturating_sub(1);
            if entry.failures == 0 {
                self.health.remove(&source);
            } else {
                entry.banned_until = SimTime::ZERO;
            }
        }
    }

    /// Whether a request must be looked at again: its source went offline,
    /// or it sat unserved past the timeout.
    fn overdue(&self, ctx: &Ctx<'_>, f: &InFlight) -> bool {
        !ctx.is_online(f.source)
            || (!f.serving
                && ctx.now().saturating_since(f.requested_at) >= self.cfg.request_timeout)
    }

    /// Re-points the overdue entries. A source that went offline is
    /// forgotten. For a timed-out one, when a fresh pick lands on a source
    /// other than it, the request is cancelled there and re-issued by the
    /// next scheduling pass; otherwise its timer is extended and nothing is
    /// re-sent. Returns whether any entry was overdue.
    fn check_timeouts(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let now = ctx.now();
        let mut stale = std::mem::take(&mut self.scratch_stale);
        stale.clear();
        stale.extend(
            self.in_flight
                .iter()
                .filter(|(_, f)| self.overdue(ctx, f))
                .map(|(&i, &f)| (i, f)),
        );
        for &(index, entry) in &stale {
            if !ctx.is_online(entry.source) {
                // Also drops the source's other overdue entries; their
                // turn in this loop finds nothing left to forget.
                self.forget_peer(entry.source);
                continue;
            }
            self.record_source_failure(now, entry.source);
            // The pick sees the full pool and the timed-out source is
            // filtered out afterwards. The pick prefers fellows over the
            // seeder and the CDN, so when the timed-out source is the only
            // fellow holding the segment there is no alternative, even
            // with an origin online: the request is re-timed, never re-sent.
            // That is safe because a `Request` is reliable: it waits in the
            // queue of a source that is still online.
            let alternative = self
                .pick_source_for(ctx, index, None)
                .filter(|&s| s != entry.source);
            match alternative {
                Some(_) => {
                    self.say(ctx, entry.source, &Message::Cancel { index });
                    self.drop_in_flight(index);
                    // The scheduling pass that follows re-picks the source
                    // for this segment from the full pool; ban the one
                    // that just timed out so the random tie-break cannot
                    // land right back on it.
                    self.timeout_bans.insert(index, entry.source);
                }
                None => {
                    if let Some(f) = self.in_flight.get_mut(&index) {
                        f.requested_at = now; // wait another round
                    }
                }
            }
        }
        let any = !stale.is_empty();
        self.scratch_stale = stale;
        any
    }

    fn on_segment_complete(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        index: u32,
        bytes: u64,
        started: SimTime,
    ) {
        if index >= self.segment_count() {
            // Not a segment of ours: bulk data from outside the swarm
            // (e.g. another application sharing the access link).
            return;
        }
        let now = ctx.now();
        self.report.bytes_downloaded += bytes;
        self.cfg
            .estimator
            .observe(bytes, now.saturating_since(started).as_secs_f64());
        self.record_source_success(from);
        // Every delivery is a scheduling event: the bandwidth sample can
        // grow the adaptive pool, a freed slot or a new holding changes
        // what the next pass can request.
        self.sched_state = SchedState::Dirty;
        // A raced re-request can deliver from the *old* source after the
        // in-flight entry was re-pointed at a new one; only the recorded
        // source may clear the entry, or the new source's load drops for a
        // transfer that is still running.
        if self.in_flight.get(&index).is_some_and(|f| f.source == from) {
            self.drop_in_flight(index);
        }
        if self.holds(index) {
            // Duplicate delivery from a raced re-request — but the
            // `drop_in_flight` above may have freed a pool slot, so the
            // scheduling pass must still run or the slot sits idle until
            // the next pump (up to `heartbeat_pumps` intervals away).
            self.schedule(ctx);
            return;
        }
        self.timeout_bans.remove(&index); // held: the ban can never apply
        if from == self.cfg.seeder {
            self.report.segments_from_seeder += 1;
        } else if self.cfg.cdn == Some(from) {
            self.report.segments_from_cdn += 1;
        } else {
            self.report.segments_from_peers += 1;
        }
        self.playback.on_segment(index as usize, now.as_secs_f64());
        self.bitfield_wire = None;
        if self.cfg.p2p {
            self.pending_haves.push(index);
            if !self.cfg.control_plane.bundle_haves {
                self.flush_haves(ctx);
            } else if self.flush_at.is_none() {
                let at = now + self.cfg.coalesce_window;
                self.flush_at = Some(at);
                self.arm_pump(ctx, at);
            }
        }
        self.schedule(ctx);
    }

    /// Flushes the pending completions: one completion as a `Have`, or, on
    /// a plane that bundles Haves, the window's completions as one
    /// `HaveBundle`. Both go to the same fellows. The seeder and the CDN hold
    /// everything, so no announcement is for them (nor counted as
    /// suppressed); a fellow whose view already shows every index, or
    /// that never completed a handshake (its view of us is seeded by the
    /// bitfield we send then), learns nothing and is skipped. A fellow
    /// that holds the whole video is not skipped: it only updates its
    /// view of us and skips its scheduling pass.
    fn flush_haves(&mut self, ctx: &mut Ctx<'_>) {
        self.flush_at = None;
        if self.pending_haves.is_empty() {
            return;
        }
        let mut indices = std::mem::take(&mut self.pending_haves);
        indices.sort_unstable();
        indices.dedup();
        let n = indices.len() as u64;
        // Without bundling each completion is flushed at once: one index.
        let message = if self.cfg.control_plane.bundle_haves {
            Message::HaveBundle {
                indices: std::mem::take(&mut indices),
            }
        } else {
            Message::Have { index: indices[0] }
        };
        let shown = match &message {
            Message::HaveBundle { indices } => indices,
            _ => &indices,
        };
        let mut suppressed = 0u64;
        let sent = self.broadcast(ctx, &message, |me, peer| {
            if me.is_origin(peer) {
                return false;
            }
            let views = &me.views;
            let learns = views.handshaken(peer) && !shown.iter().all(|&i| views.holds(peer, i));
            suppressed += u64::from(!learns) * n;
            learns
        });
        if let Message::HaveBundle { indices: flushed } = message {
            self.report.control.have_bundles_sent += sent;
            self.report.control.haves_coalesced += sent * n;
            indices = flushed;
        } else {
            self.report.control.haves_sent += sent;
        }
        self.report.control.haves_suppressed += suppressed;
        indices.clear();
        self.pending_haves = indices;
    }

    /// `from`'s view newly shows `index`. If `from` is handshaken and the
    /// last pass stopped on exactly that segment for want of a source, the
    /// next pass must run; news of any other segment cannot change that
    /// pass's outcome (see [`SchedState::NoSource`]).
    fn on_new_bit(&mut self, from: NodeId, index: u32) {
        if self.sched_state == SchedState::NoSource(index) && self.views.handshaken(from) {
            self.sched_state = SchedState::Dirty;
        }
    }

    /// `from` announced `indices` (`Have` is a bundle of one): set the new
    /// bits in its view.
    fn on_haves(&mut self, ctx: &mut Ctx<'_>, from: NodeId, indices: impl Iterator<Item = u32>) {
        for index in indices {
            if self.views.learn(from, index) {
                self.on_new_bit(from, index);
            }
        }
        self.schedule(ctx);
    }

    fn handle_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        // Three messages in four are a `HaveBundle`: read in place, no `Vec`.
        if let Some(indices) = have_bundle_indices(payload) {
            return self.on_haves(ctx, from, indices);
        }
        let Ok(message) = decode_single(payload) else {
            return;
        };
        match message {
            Message::Handshake { .. } => {
                // An unknown greeter (it discovered us via the tracker
                // before we heard of it) gets a fresh view, so the
                // handshake becomes mutual and its segments enter our
                // source pool instead of being silently dropped.
                if self.cfg.p2p && !self.is_origin(from) {
                    self.views.get_or_insert(from);
                }
                self.greet(ctx, from);
                let newly_handshaken = self.views.contains(from) && !self.views.handshaken(from);
                self.views.set_handshaken(from, true);
                if newly_handshaken {
                    // A fresh handshake can enable candidacy: bits learned
                    // before it (a Bitfield that arrived first) count from
                    // now on, and the CDN becomes eligible.
                    self.sched_state = SchedState::Dirty;
                }
                // A bitfield is droppable (see `droppable`).
                let bitfield = self.bitfield_frame();
                self.send_wire(ctx, from, &bitfield, true);
                self.schedule(ctx);
            }
            Message::Bitfield(bf) => {
                // Of the bits the replacement sets, only the one a blocked
                // pass stopped on can matter.
                let blocked = match self.sched_state {
                    SchedState::NoSource(w) if !self.views.holds(from, w) => Some(w),
                    _ => None,
                };
                self.views.replace_holdings(from, &bf);
                if let Some(w) = blocked.filter(|&w| self.views.holds(from, w)) {
                    self.on_new_bit(from, w);
                }
                self.schedule(ctx);
            }
            Message::Have { index } => self.on_haves(ctx, from, std::iter::once(index)),
            // The seeder renders the playlist from the segment list this
            // leecher already holds and sends it reliably: its arrival is
            // all streaming waits for.
            Message::ManifestData { .. } if !self.streaming => {
                self.streaming = true;
                self.schedule(ctx);
            }
            Message::SegmentHeader { index, .. } => {
                if let Some(entry) = self.in_flight.get_mut(&index) {
                    if entry.source == from {
                        entry.serving = true;
                    }
                }
            }
            Message::Request { index } => {
                let have = index < self.segment_count() && self.holds(index);
                self.uploads
                    .on_request(ctx, from, index, &self.cfg.segments, have);
            }
            Message::Cancel { index } => self.uploads.on_cancel(from, index),
            Message::Goodbye => {
                self.forget_peer(from);
                self.schedule(ctx);
            }
            Message::PeerList { peers } => {
                if !self.cfg.p2p {
                    return;
                }
                let me = ctx.me();
                let fresh: Vec<NodeId> = peers
                    .into_iter()
                    .map(|raw| NodeId::from_index(raw as usize))
                    .filter(|&peer| {
                        let fresh = peer != me
                            && !self.is_origin(peer)
                            && !self.views.contains(peer)
                            && ctx.is_online(peer);
                        if fresh {
                            self.views.insert(peer);
                        }
                        fresh
                    })
                    .collect();
                self.greet_all(ctx, &fresh);
            }
            // Manifest and peer-list requests are the seeder's to answer;
            // every `HaveBundle` was read in place above.
            _ => {}
        }
    }

    /// Invariant checked on every pump of a debug build, and by the unit
    /// tests in any build: the in-flight mask has exactly the bits of
    /// `in_flight`'s keys, and `loads` counts its records per source.
    #[cfg(any(test, debug_assertions))]
    fn audit_in_flight(&self) {
        assert!(
            self.in_flight_mask
                .iter_set()
                .eq(self.in_flight.keys().copied()),
            "in-flight mask {:?} drifted from the in-flight records {:?}",
            self.in_flight_mask.iter_set().collect::<Vec<_>>(),
            self.in_flight.keys().collect::<Vec<_>>()
        );
        let mut counted = BTreeMap::<NodeId, u32>::new();
        for f in self.in_flight.values() {
            *counted.entry(f.source).or_default() += 1;
        }
        assert_eq!(
            self.loads,
            counted.into_iter().collect::<Vec<_>>(),
            "loads drifted from the in-flight records {:?}",
            self.in_flight
        );
    }

    /// The maintenance pump: runs when a deadline is due (bundle flush,
    /// request timeout, tracker re-announce) or as the plane's heartbeat,
    /// then re-arms for the earliest outstanding deadline (see
    /// [`Self::rearm_pump`]).
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if now < self.earliest_armed {
            // A stale timer: the pump it was set for was superseded by an
            // earlier-armed fire that already ran and re-armed. Dropping
            // it (no pump, no re-arm) is what retires surplus timers.
            return;
        }
        self.earliest_armed = SimTime::MAX;
        let due_flush = self.flush_at.is_some_and(|t| t <= now);
        let due_announce = self.announces() && self.next_announce_at <= now;
        #[cfg(debug_assertions)]
        self.audit_in_flight();
        self.playback.advance(now.as_secs_f64());
        let due_timeout = self.check_timeouts(ctx);
        if due_flush || due_timeout || due_announce {
            self.report.control.pumps_armed += 1;
        } else {
            self.report.control.pumps_heartbeat += 1;
        }
        // An outage that ate our greeting to the CDN — its send failed (we
        // joined during the outage) or it was in flight when the outage
        // began — is followed by a fresh one once the CDN is back.
        if let Some(cdn) = self.cfg.cdn.filter(|&cdn| !self.views.handshaken(cdn)) {
            if ctx.is_online(cdn) {
                self.greet(ctx, cdn);
            } else {
                self.views.set_greeted(cdn, false);
            }
        }
        if due_flush {
            self.flush_haves(ctx);
        }
        if due_announce {
            // Under tracker discovery, re-announce periodically so late
            // joiners become visible.
            self.say(ctx, self.cfg.seeder, &Message::PeerListRequest);
            self.next_announce_at = now + self.cfg.pump_interval * ANNOUNCE_PUMPS;
        }
        self.schedule(ctx);
        self.rearm_pump(ctx);
    }

    /// Arms the next pump at the earliest outstanding deadline, falling
    /// back to the heartbeat while playback is unfinished. With playback
    /// done and nothing pending, no timer is set and the simulation may
    /// drain. Two of the plane's constants set it: the heartbeat,
    /// `heartbeat_pumps` intervals (one, the 2 Hz tick, on
    /// [`ControlPlane::LEGACY`]), and `request_deadlines`, whether an
    /// unserved request's timeout is a deadline (without it the heartbeat
    /// polls timeouts).
    fn rearm_pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let plane = self.cfg.control_plane;
        let mut next = SimTime::MAX;
        if let Some(at) = self.flush_at {
            next = next.min(at);
        }
        if plane.request_deadlines {
            for f in self.in_flight.values() {
                if !f.serving {
                    next = next.min(f.requested_at + self.cfg.request_timeout);
                }
            }
        }
        if self.announces() {
            next = next.min(self.next_announce_at);
        }
        if self.playback.state() != PlaybackState::Finished {
            // The heartbeat keeps stall/finish accounting moving and is
            // the safety net for anything no deadline covers.
            next = next.min(now + self.cfg.pump_interval * u64::from(plane.heartbeat_pumps));
        }
        if next == SimTime::MAX {
            return;
        }
        let at = next.max(now);
        self.arm_pump(ctx, at);
    }

    /// Samples this leecher's memory footprint: allocator-visible bytes
    /// behind the per-peer structures (the neighbour views and the
    /// auxiliary per-peer maps). The view columns count every slot they
    /// allocated, occupied or not; the two small `BTreeMap`s (bans,
    /// health) count payloads only.
    fn mem_bytes_estimate(&self) -> PeerMemStats {
        use std::mem::size_of;
        let bans = (self.timeout_bans.len() * (size_of::<u32>() + size_of::<NodeId>())) as u64;
        let health = (self.health.len() * (size_of::<NodeId>() + size_of::<SourceHealth>())) as u64;
        PeerMemStats {
            view_bytes: self.views.table_bytes() as u64,
            views: self.views.len() as u64,
            aux_bytes: bans + health,
        }
    }

    fn write_report(&mut self, ctx: &mut Ctx<'_>, departed: bool) {
        if self.reported {
            return;
        }
        self.reported = true;
        self.playback.finish(ctx.now().as_secs_f64());
        self.report.qoe = self.playback.metrics();
        // The stall log and then the report move: the sink holds the one
        // copy of each.
        self.report.stalls = self.playback.take_stalls();
        self.report.bytes_uploaded = self.uploads.bytes_uploaded;
        self.report.finished = self.playback.state() == PlaybackState::Finished;
        self.report.departed = departed;
        self.report.mem = self.mem_bytes_estimate();
        self.cfg
            .sink
            .borrow_mut()
            .push(std::mem::take(&mut self.report));
    }
}

impl NodeBehavior for LeecherNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.cfg.join_delay, TOKEN_BOOT);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        self.handle_message(ctx, from, payload);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        match event {
            // What a wrapper that forwards `on_event` alone (the traced
            // benchmark harness, the tests' probes) gets from the default
            // `on_message`.
            NodeEvent::Message { from, payload } => self.handle_message(ctx, from, &payload),
            NodeEvent::Timer { token: TOKEN_BOOT } => self.boot(ctx),
            NodeEvent::Timer { token: TOKEN_PUMP } => self.pump(ctx),
            NodeEvent::Timer {
                token: TOKEN_DEPART,
            } => {
                self.write_report(ctx, true);
                self.broadcast(ctx, &Message::Goodbye, |_, _| true);
                ctx.go_offline();
            }
            NodeEvent::Timer { token: TOKEN_CRASH } => {
                // Crash-stop: vanish without a Goodbye. The rest of the
                // swarm learns of it the way TCP would: through failed
                // transfers, undeliverable sends and offline probes.
                self.report.fault.crashes = 1;
                self.write_report(ctx, true);
                ctx.go_offline();
            }
            NodeEvent::Timer { .. } => {}
            NodeEvent::TransferComplete {
                from,
                tag,
                bytes,
                started,
                ..
            } => {
                self.on_segment_complete(ctx, from, tag as u32, bytes, started);
            }
            NodeEvent::UploadComplete { flow, .. } => {
                self.uploads
                    .on_upload_complete(ctx, flow, &self.cfg.segments);
            }
            NodeEvent::TransferFailed { flow, peer, .. } => {
                if self
                    .uploads
                    .on_transfer_failed(ctx, flow, &self.cfg.segments)
                {
                    return;
                }
                // A download fails only when its source went offline:
                // nothing here cancels a transfer.
                self.forget_peer(peer);
                self.schedule(ctx);
            }
            _ => {}
        }
    }

    fn on_sim_end(&mut self, ctx: &mut Ctx<'_>) {
        self.write_report(ctx, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use splicecast_media::{DurationSplicer, Splicer, Video};
    use splicecast_netsim::{star, LinkSpec, NullBehavior, Simulator};
    use splicecast_protocol::encode_to_bytes;

    use crate::policy::{EstimatorKind, PolicyConfig, WEstimate};
    use crate::swarm::DiscoveryMode;

    /// Keeps the leecher inspectable after the simulator takes ownership
    /// of its behaviour box. The end of a run is passed on as well, so the
    /// report moves into the sink there; a test that runs in stages ends
    /// each one, and the first end writes the report.
    struct Shared(Rc<RefCell<LeecherNode>>);

    impl NodeBehavior for Shared {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.0.borrow_mut().on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
            self.0.borrow_mut().on_message(ctx, from, payload);
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            self.0.borrow_mut().on_event(ctx, event);
        }
        fn on_sim_end(&mut self, ctx: &mut Ctx<'_>) {
            self.0.borrow_mut().on_sim_end(ctx);
        }
    }

    /// The one report a leecher wrote into `sink`.
    fn written(sink: &MetricsSink) -> PeerReport {
        let reports = sink.borrow();
        assert_eq!(reports.len(), 1, "the leecher writes one report");
        reports[0].clone()
    }

    /// Runs one closure when its timer fires.
    struct At<F: FnMut(&mut Ctx<'_>)> {
        after: SimDuration,
        action: F,
    }

    impl<F: FnMut(&mut Ctx<'_>)> NodeBehavior for At<F> {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.after, 0);
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            if let NodeEvent::Timer { .. } = event {
                (self.action)(ctx);
            }
        }
    }

    /// Puts a request for `index` to `source` in flight as of time zero,
    /// the way `request_from` records one: the entry, its mask bit and
    /// its source's load.
    fn put_in_flight(l: &mut LeecherNode, index: u32, source: NodeId, serving: bool) {
        l.record_in_flight(
            index,
            InFlight {
                source,
                requested_at: SimTime::ZERO,
                serving,
            },
        );
    }

    fn two_segments() -> Arc<SegmentList> {
        let video = Video::builder().duration_secs(8.0).seed(1).build();
        Arc::new(DurationSplicer::new(4.0).splice(&video))
    }

    fn config(seeder: NodeId, others: Vec<NodeId>, discovery: DiscoveryMode) -> LeecherConfig {
        LeecherConfig {
            index: 0,
            seeder,
            cdn: None,
            others,
            segments: two_segments(),
            policy: PolicyConfig::Fixed(2),
            estimator: BandwidthEstimator::new(EstimatorKind::Oracle, 400_000.0),
            upload_slots: 1,
            // Larger than any deadline below: the tests drive events
            // directly instead of letting the leecher boot.
            join_delay: SimDuration::from_secs_f64(600.0),
            depart_after: None,
            crash_after: None,
            defense: None,
            pump_interval: SimDuration::from_secs_f64(1.0),
            request_timeout: SimDuration::from_secs_f64(4.0),
            resume_buffer_secs: 0.0,
            w_estimate: WEstimate::MeanSegment,
            p2p: true,
            discovery,
            control_plane: ControlPlane::LEGACY,
            scheduler: SchedulerMode::default(),
            dissemination: DisseminationMode::default(),
            coalesce_window: SimDuration::from_secs_f64(1.0),
            sparse_holders: false,
            sink: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// The holders a pick considers for `segment`, before the live
    /// eligibility probes.
    fn holders(l: &LeecherNode, segment: u32) -> Vec<NodeId> {
        l.views.holders(segment).collect()
    }

    /// The segments `peer`'s view shows.
    fn shown(l: &LeecherNode, peer: NodeId) -> Vec<u32> {
        (0..l.segment_count())
            .filter(|&s| l.views.holds(peer, s))
            .collect()
    }

    /// The view columns are charged for every slot they allocated — one
    /// per node id of the universe — not for their live views, so
    /// `swarm.mem.bytes_per_peer` stays a measurement of what the
    /// allocator handed out. Defenses add no per-neighbour table.
    #[test]
    fn mem_estimate_counts_the_tables_at_capacity() {
        let ids: Vec<NodeId> = (0..6).map(NodeId::from_index).collect();
        let others = vec![ids[3], ids[4], ids[5]];
        let universe = (others.len() + 4) as u64;
        let plain = LeecherNode::new(config(ids[1], others.clone(), DiscoveryMode::Tracker));
        assert_eq!(plain.views.len(), 1, "tracker discovery: only the seeder");
        let mem = plain.mem_bytes_estimate();
        // Two segments: three one-word flag bitsets for the 7 ids and a
        // one-word holdings row per id.
        assert_eq!(plain.segment_count(), 2);
        assert_eq!(mem.view_bytes, 3 * 8 + universe * 8);
        assert_eq!(mem.views, 1);
        assert_eq!(mem.aux_bytes, 0, "no bans, no health records");
        assert_eq!(mem.total_bytes(), mem.view_bytes);

        let mut cfg = config(ids[1], others, DiscoveryMode::Tracker);
        cfg.defense = Some(DefenseConfig);
        let defended = LeecherNode::new(cfg).mem_bytes_estimate();
        assert_eq!(defended, mem, "defenses allocate nothing up front");
    }

    /// Logs every message it hears; `deliver_to` names a node that gets
    /// segment 0 from it one second in.
    struct Inbox {
        log: Rc<RefCell<Vec<(NodeId, Message)>>>,
        deliver_to: Option<NodeId>,
    }

    impl NodeBehavior for Inbox {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.deliver_to.is_some() {
                ctx.set_timer(SimDuration::from_secs_f64(1.0), 0);
            }
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            match (event, self.deliver_to) {
                (NodeEvent::Timer { .. }, Some(to)) => {
                    ctx.start_transfer(to, 10_000, 0).unwrap();
                }
                (NodeEvent::Message { payload, .. }, _) => {
                    let message = decode_single(&payload).unwrap();
                    self.log.borrow_mut().push((ctx.me(), message));
                }
                _ => {}
            }
        }
    }

    /// One delivery of segment 0 from the seeder to a leecher on `plane`
    /// whose fellows are: `lacks` (handshaken, lacks the segment),
    /// `stranger` (never handshook), `shows` (already shows the bit) and
    /// `rest` (handshaken, shows every segment but this one). Returns
    /// those four ids, every availability message anyone heard, and the
    /// leecher's control counters.
    fn announce_to_fellows(
        plane: ControlPlane,
    ) -> (
        [NodeId; 4],
        Vec<(NodeId, Message)>,
        crate::ControlPlaneStats,
    ) {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 7]);
        let [me, seeder, cdn, lacks, stranger, shows, rest] = net.leaves[..] else {
            unreachable!()
        };
        let fellows = [lacks, stranger, shows, rest];
        let mut cfg = config(seeder, fellows.to_vec(), DiscoveryMode::Full);
        cfg.cdn = Some(cdn);
        cfg.control_plane = plane;
        let sink = cfg.sink.clone();
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));
        {
            let mut l = node.borrow_mut();
            for peer in [seeder, cdn, lacks, shows, rest] {
                l.views.set_handshaken(peer, true);
            }
            assert!(l.views.learn(shows, 0));
            assert!(l.views.learn(rest, 1));
        }

        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(net.network, 42);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        for peer in [seeder, cdn, lacks, stranger, shows, rest] {
            sim.add_node(Box::new(Inbox {
                log: log.clone(),
                deliver_to: (peer == seeder).then_some(me),
            }));
        }
        sim.run_until_idle(SimTime::from_secs_f64(10.0));

        let l = node.borrow();
        assert!(l.holds(0), "the seeder's delivery arrived");
        let mut heard = log.take();
        heard.retain(|(_, m)| matches!(m, Message::Have { .. } | Message::HaveBundle { .. }));
        (fellows, heard, written(&sink).control)
    }

    /// The legacy plane's `Have` goes to fellow leechers only: every
    /// handshaken fellow whose view lacks the segment hears it, whatever
    /// else it shows; one that never handshook and one that already shows
    /// the bit are counted as suppressed; the seeder and the CDN are
    /// neither sent to nor counted.
    #[test]
    fn legacy_have_reaches_fellows_and_counts_only_them() {
        let ([lacks, _, _, rest], heard, control) = announce_to_fellows(ControlPlane::LEGACY);
        let have = Message::Have { index: 0 };
        assert_eq!(heard, [(lacks, have.clone()), (rest, have)]);
        assert_eq!(control.haves_sent, 2);
        assert_eq!(control.haves_suppressed, 2);
    }

    /// The eventful plane's flushed `HaveBundle` follows the same rule to
    /// the same fellows: only the message and its counter differ.
    #[test]
    fn eventful_bundle_reaches_the_same_fellows_and_counts_only_them() {
        let ([lacks, _, _, rest], heard, control) = announce_to_fellows(ControlPlane::EVENTFUL);
        let bundle = Message::HaveBundle { indices: vec![0] };
        assert_eq!(heard, [(lacks, bundle.clone()), (rest, bundle)]);
        assert_eq!(control.have_bundles_sent, 2);
        assert_eq!(control.haves_coalesced, 2);
        assert_eq!(control.haves_suppressed, 2);
    }

    /// Regression test: a timed-out request was re-pointed at peer B, but
    /// the old source A delivers anyway (its cancel raced with the data).
    /// The stale delivery must not clear B's in-flight entry or drop B's
    /// load while B is still serving, and B's later delivery must not
    /// double-count the segment.
    #[test]
    fn raced_rerequest_keeps_new_source_accounting() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 3]);
        let (leecher_id, a_id, b_id) = (net.leaves[0], net.leaves[1], net.leaves[2]);

        let cfg = config(a_id, vec![b_id], DiscoveryMode::Full);
        let sink = cfg.sink.clone();
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));
        {
            // The timeout path already moved segment 0 from A to B.
            let mut l = node.borrow_mut();
            put_in_flight(&mut l, 0, b_id, true);
            l.views.set_handshaken(a_id, true);
            l.views.set_handshaken(b_id, true);
        }

        let mut sim = Simulator::new(net.network, 42);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(1.0),
            action: move |ctx| {
                // A's stale delivery of segment 0.
                ctx.start_transfer(leecher_id, 10_000, 0).unwrap();
            },
        }));
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(3.0),
            action: move |ctx| {
                // B's re-requested delivery of the same segment.
                ctx.start_transfer(leecher_id, 10_000, 0).unwrap();
            },
        }));

        // After A's delivery but before B's: the segment is held, yet B's
        // transfer is still running and its accounting must be intact.
        sim.run_until_idle(SimTime::from_secs_f64(2.0));
        {
            let l = node.borrow();
            l.audit_in_flight();
            assert!(l.holds(0), "the stale delivery still yields the segment");
            // The stage's end wrote the report.
            assert_eq!(written(&sink).segments_from_seeder, 1);
            let entry = l
                .in_flight
                .get(&0)
                .expect("B's re-request must stay in flight");
            assert_eq!(
                entry.source, b_id,
                "only the recorded source may clear the entry"
            );
            assert_eq!(
                l.load(b_id),
                1,
                "B is still serving; its load must not drop"
            );
        }

        // After B's delivery: the entry clears exactly once and the
        // duplicate is not counted again.
        sim.run_until_idle(SimTime::from_secs_f64(10.0));
        {
            let l = node.borrow();
            l.audit_in_flight();
            assert!(l.in_flight.is_empty());
            assert_eq!(l.load(b_id), 0);
            // What came after the written report counts in a fresh one.
            let counted = |r: &PeerReport| {
                r.segments_from_seeder + r.segments_from_peers + r.segments_from_cdn
            };
            assert_eq!(
                counted(&written(&sink)) + counted(&l.report),
                1,
                "the raced duplicate must not be double-counted"
            );
        }
    }

    /// Regression test: a timed-out request must move to a *different*
    /// source when one exists. The old code picked an alternative, cancelled
    /// and dropped the entry — then discarded the pick and let the next
    /// scheduling pass re-choose from the full pool, whose random tie-break
    /// could land right back on the timed-out source.
    #[test]
    fn timed_out_request_moves_to_a_different_source() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 4]);
        let (leecher_id, s_id, a_id, b_id) =
            (net.leaves[0], net.leaves[1], net.leaves[2], net.leaves[3]);

        let mut cfg = config(s_id, vec![a_id, b_id], DiscoveryMode::Full);
        cfg.join_delay = SimDuration::from_secs_f64(0.1);
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));

        // A and B introduce themselves and announce segment 0.
        let announce = |after: f64, to: NodeId| At {
            after: SimDuration::from_secs_f64(after),
            action: move |ctx: &mut Ctx<'_>| {
                let hs = Message::Handshake {
                    peer_id: 9,
                    info_hash: crate::seeder::info_hash_of(""),
                    version: PROTOCOL_VERSION,
                };
                ctx.send(to, encode_to_bytes(&hs)).unwrap();
                ctx.send(to, encode_to_bytes(&Message::Have { index: 0 }))
                    .unwrap();
            },
        };

        let mut sim = Simulator::new(net.network, 3);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(NullBehavior)); // seeder stand-in
        sim.add_node(Box::new(announce(0.3, leecher_id))); // A
        sim.add_node(Box::new(announce(0.35, leecher_id))); // B

        // After the introductions: a request to A has sat unserved since
        // time zero, so the 4 s timeout fires on the pump at t = 4.1.
        sim.run_until_idle(SimTime::from_secs_f64(0.5));
        {
            let mut l = node.borrow_mut();
            l.streaming = true;
            put_in_flight(&mut l, 0, a_id, false);
        }
        sim.run_until_idle(SimTime::from_secs_f64(6.0));

        let l = node.borrow();
        l.audit_in_flight();
        let entry = l
            .in_flight
            .get(&0)
            .expect("the timed-out request must be re-requested");
        assert_eq!(
            entry.source, b_id,
            "re-requesting must move off the timed-out source"
        );
        assert_eq!(l.load(a_id), 0);
        assert_eq!(l.load(b_id), 1);
    }

    /// Regression test: a duplicate delivery from a raced re-request frees
    /// a pool slot via `drop_in_flight`, so the early return must still run
    /// the scheduling pass — the old code skipped it and the slot sat idle
    /// until the next pump.
    #[test]
    fn duplicate_delivery_still_schedules() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 4]);
        let (leecher_id, s_id, a_id, b_id) =
            (net.leaves[0], net.leaves[1], net.leaves[2], net.leaves[3]);

        let mut cfg = config(s_id, vec![a_id, b_id], DiscoveryMode::Full);
        cfg.join_delay = SimDuration::from_secs_f64(0.1);
        // Pumps far out of the picture: only the delivery path may schedule.
        cfg.pump_interval = SimDuration::from_secs_f64(50.0);
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));

        let mut sim = Simulator::new(net.network, 3);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(NullBehavior)); // seeder stand-in
                                              // A delivers the raced duplicate of segment 0.
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(1.0),
            action: move |ctx: &mut Ctx<'_>| {
                ctx.start_transfer(leecher_id, 10_000, 0).unwrap();
            },
        }));
        // B announces segment 1, the next download the freed slot can take.
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(0.3),
            action: move |ctx: &mut Ctx<'_>| {
                let hs = Message::Handshake {
                    peer_id: 9,
                    info_hash: crate::seeder::info_hash_of(""),
                    version: PROTOCOL_VERSION,
                };
                ctx.send(leecher_id, encode_to_bytes(&hs)).unwrap();
                ctx.send(leecher_id, encode_to_bytes(&Message::Have { index: 1 }))
                    .unwrap();
            },
        }));

        // Segment 0 is already held; A's delivery is the raced duplicate.
        sim.run_until_idle(SimTime::from_secs_f64(0.5));
        {
            let mut l = node.borrow_mut();
            l.streaming = true;
            l.playback.on_segment(0, 0.5);
            put_in_flight(&mut l, 0, a_id, true);
        }
        sim.run_until_idle(SimTime::from_secs_f64(2.0));

        let l = node.borrow();
        l.audit_in_flight();
        assert_eq!(l.load(a_id), 0, "the duplicate clears A");
        let entry = l.in_flight.get(&1).expect(
            "the slot freed by the duplicate delivery must be refilled \
             by the same event, not left idle until the next pump",
        );
        assert_eq!(entry.source, b_id);
    }

    /// When a download dies and no alternative source exists while other
    /// downloads are still in flight, the failed segment is left wanted
    /// with the schedule blocked on it, so the announcement of a new
    /// holder refills the hole at once, long before the heartbeat pump.
    #[test]
    fn failed_transfer_hole_refills_when_a_source_appears() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 5]);
        let (leecher_id, s_id, a_id, b_id, c_id) = (
            net.leaves[0],
            net.leaves[1],
            net.leaves[2],
            net.leaves[3],
            net.leaves[4],
        );

        let mut cfg = config(s_id, vec![a_id, b_id, c_id], DiscoveryMode::Full);
        cfg.join_delay = SimDuration::from_secs_f64(0.1);
        cfg.control_plane = ControlPlane::EVENTFUL;
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));

        let mut sim = Simulator::new(net.network, 3);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(NullBehavior)); // seeder stand-in
                                              // A starts serving segment 0, then churns out mid-transfer.
        let mut fired = 0u32;
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(1.0),
            action: move |ctx: &mut Ctx<'_>| {
                fired += 1;
                if fired == 1 {
                    ctx.start_transfer(leecher_id, 5_000_000, 0).unwrap();
                    ctx.set_timer(SimDuration::from_secs_f64(1.0), 0);
                } else {
                    ctx.go_offline();
                }
            },
        }));
        sim.add_node(Box::new(NullBehavior)); // B: serves segment 1 forever
                                              // C: the source that appears later.
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(3.5),
            action: move |ctx: &mut Ctx<'_>| {
                let hs = Message::Handshake {
                    peer_id: 9,
                    info_hash: crate::seeder::info_hash_of(""),
                    version: PROTOCOL_VERSION,
                };
                ctx.send(leecher_id, encode_to_bytes(&hs)).unwrap();
                ctx.send(leecher_id, encode_to_bytes(&Message::Have { index: 0 }))
                    .unwrap();
            },
        }));

        // Both segments in flight and serving: no timeout deadline is
        // armed, so only the 8-interval heartbeat (t = 9.1) is pending.
        sim.run_until_idle(SimTime::from_secs_f64(0.5));
        {
            let mut l = node.borrow_mut();
            l.streaming = true;
            for (index, source) in [(0, a_id), (1, b_id)] {
                put_in_flight(&mut l, index, source, true);
            }
        }

        // A churns out at t = 2: the transfer fails, no source for the
        // hole exists, and segment 1 is still in flight.
        sim.run_until_idle(SimTime::from_secs_f64(2.5));
        {
            let l = node.borrow();
            l.audit_in_flight();
            assert!(!l.in_flight.contains_key(&0), "the dead download is gone");
            assert!(l.in_flight.contains_key(&1));
            assert!(!l.views.contains(a_id), "the churned source is gone");
            assert_eq!(l.sched_state, SchedState::NoSource(0));
        }

        // C announces segment 0 at t = 3.5: the hole refills immediately.
        sim.run_until_idle(SimTime::from_secs_f64(5.0));
        {
            let l = node.borrow();
            l.audit_in_flight();
            let entry = l
                .in_flight
                .get(&0)
                .expect("the hole must refill once a source appears");
            assert_eq!(entry.source, c_id);
        }
    }

    /// The skip audit bites: a schedule left blocked on segment 0 while a
    /// handshaken neighbour already shows it — a dirty mark that went
    /// missing — panics at the next skipped pass of a debug build, here
    /// the one behind a `Have` for another segment.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "skipped a pass that would request segment 0 (NoSource(0))")]
    fn skip_audit_catches_a_missing_dirty_mark() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 3]);
        let (leecher_id, s_id, a_id) = (net.leaves[0], net.leaves[1], net.leaves[2]);
        let node = Rc::new(RefCell::new(LeecherNode::new(config(
            s_id,
            vec![a_id],
            DiscoveryMode::Full,
        ))));
        let mut sim = Simulator::new(net.network, 5);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(NullBehavior)); // seeder stand-in
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(1.0),
            action: move |ctx: &mut Ctx<'_>| {
                ctx.send(leecher_id, encode_to_bytes(&Message::Have { index: 1 }))
                    .unwrap();
            },
        }));
        sim.run_until_idle(SimTime::from_secs_f64(0.5));
        {
            let mut l = node.borrow_mut();
            l.streaming = true;
            l.views.set_handshaken(a_id, true);
            assert!(l.views.learn(a_id, 0));
            l.sched_state = SchedState::NoSource(0);
        }
        sim.run_until_idle(SimTime::from_secs_f64(2.0));
    }

    /// A `Goodbye` from a peer that holds our queued request (not yet
    /// serving) re-requests the segment elsewhere in the same event, on
    /// both control planes: no pump, no timeout.
    #[test]
    fn goodbye_re_requests_its_queued_segment_in_the_same_event() {
        /// Forwards to the leecher and records, after each message from
        /// `watch`, the source of the request for segment 0.
        struct Probe {
            node: Rc<RefCell<LeecherNode>>,
            watch: NodeId,
            seen: Rc<RefCell<Vec<Option<NodeId>>>>,
        }
        impl NodeBehavior for Probe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.node.borrow_mut().on_start(ctx);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                let watched =
                    matches!(&event, NodeEvent::Message { from, .. } if *from == self.watch);
                let mut l = self.node.borrow_mut();
                l.on_event(ctx, event);
                if watched {
                    self.seen
                        .borrow_mut()
                        .push(l.in_flight.get(&0).map(|f| f.source));
                }
            }
        }

        for plane in [ControlPlane::LEGACY, ControlPlane::EVENTFUL] {
            let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
            let net = star(&[spec; 4]);
            let (leecher_id, s_id, a_id, b_id) =
                (net.leaves[0], net.leaves[1], net.leaves[2], net.leaves[3]);
            let mut cfg = config(s_id, vec![a_id, b_id], DiscoveryMode::Full);
            cfg.join_delay = SimDuration::from_secs_f64(0.1);
            cfg.control_plane = plane;
            // Pumps far out of the picture: only the Goodbye may act.
            cfg.pump_interval = SimDuration::from_secs_f64(50.0);
            let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));
            let seen = Rc::new(RefCell::new(Vec::new()));

            let mut sim = Simulator::new(net.network, 3);
            sim.add_node(Box::new(NullBehavior)); // hub
            sim.add_node(Box::new(Probe {
                node: node.clone(),
                watch: a_id,
                seen: seen.clone(),
            }));
            sim.add_node(Box::new(NullBehavior)); // seeder stand-in
            sim.add_node(Box::new(At {
                // A departs at t = 1, as a churned leecher does.
                after: SimDuration::from_secs_f64(1.0),
                action: move |ctx: &mut Ctx<'_>| {
                    ctx.send(leecher_id, encode_to_bytes(&Message::Goodbye))
                        .unwrap();
                    ctx.go_offline();
                },
            }));
            sim.add_node(Box::new(At {
                // B handshakes and announces segment 0.
                after: SimDuration::from_secs_f64(0.3),
                action: move |ctx: &mut Ctx<'_>| {
                    let hs = Message::Handshake {
                        peer_id: 9,
                        info_hash: crate::seeder::info_hash_of(""),
                        version: PROTOCOL_VERSION,
                    };
                    ctx.send(leecher_id, encode_to_bytes(&hs)).unwrap();
                    ctx.send(leecher_id, encode_to_bytes(&Message::Have { index: 0 }))
                        .unwrap();
                },
            }));

            // Segment 0 is queued at A, which has not started serving it.
            sim.run_until_idle(SimTime::from_secs_f64(0.5));
            {
                let mut l = node.borrow_mut();
                l.streaming = true;
                put_in_flight(&mut l, 0, a_id, false);
            }
            sim.run_until_idle(SimTime::from_secs_f64(2.0));

            assert_eq!(
                *seen.borrow(),
                [Some(b_id)],
                "{plane:?}: the Goodbye's own event must move segment 0 to B"
            );
            let l = node.borrow();
            l.audit_in_flight();
            assert!(!l.views.contains(a_id), "{plane:?}: A is forgotten");
            assert_eq!(l.load(b_id), 1);
        }
    }

    /// Regression test: under tracker discovery a peer can learn about us
    /// and handshake before we ever heard of it. The inbound handshake must
    /// create a fresh view so the exchange becomes mutual, instead of being
    /// silently dropped.
    #[test]
    fn handshake_from_unknown_peer_creates_view() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 3]);
        let (leecher_id, seeder_id, stranger_id) = (net.leaves[0], net.leaves[1], net.leaves[2]);

        // Tracker discovery: the leecher starts knowing only the seeder.
        let node = Rc::new(RefCell::new(LeecherNode::new(config(
            seeder_id,
            vec![stranger_id],
            DiscoveryMode::Tracker,
        ))));
        assert!(!node.borrow().views.contains(stranger_id));

        let heard: Rc<RefCell<Vec<Message>>> = Rc::new(RefCell::new(Vec::new()));
        struct Stranger {
            leecher: NodeId,
            heard: Rc<RefCell<Vec<Message>>>,
        }
        impl NodeBehavior for Stranger {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs_f64(1.0), 0);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                match event {
                    NodeEvent::Timer { .. } => {
                        let hs = Message::Handshake {
                            peer_id: 99,
                            info_hash: crate::seeder::info_hash_of(""),
                            version: PROTOCOL_VERSION,
                        };
                        ctx.send(self.leecher, encode_to_bytes(&hs)).unwrap();
                        let bf = Message::Bitfield(Bitfield::full(2));
                        ctx.send(self.leecher, encode_to_bytes(&bf)).unwrap();
                    }
                    NodeEvent::Message { payload, .. } => {
                        if let Ok(message) = decode_single(&payload) {
                            self.heard.borrow_mut().push(message);
                        }
                    }
                    _ => {}
                }
            }
        }

        let mut sim = Simulator::new(net.network, 7);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(NullBehavior)); // seeder stand-in
        sim.add_node(Box::new(Stranger {
            leecher: leecher_id,
            heard: heard.clone(),
        }));
        sim.run_until_idle(SimTime::from_secs_f64(5.0));

        let l = node.borrow();
        // The stranger announced a full bitfield: its freshly created view
        // is an ordinary neighbour record that happens to hold everything.
        assert!(
            l.views.contains(stranger_id),
            "the unknown greeter must get a view"
        );
        assert!(l.views.handshaken(stranger_id));
        assert!(
            l.views.greeted(stranger_id),
            "the leecher answers with its own handshake"
        );
        assert_eq!(shown(&l, stranger_id), [0, 1]);
        for segment in 0..2 {
            assert_eq!(
                holders(&l, segment),
                [stranger_id],
                "a full neighbour is a candidate for every segment"
            );
        }
        // The reply is the leecher's handshake, then its bitfield.
        let heard = heard.borrow();
        assert!(
            matches!(
                heard[..],
                [Message::Handshake { peer_id: 1, .. }, Message::Bitfield(ref bf)]
                    if bf.len() == 2
            ),
            "the handshake must become mutual: {heard:?}"
        );
    }

    /// Records every decodable message it receives.
    struct Recorder {
        heard: Rc<RefCell<Vec<Message>>>,
    }

    impl NodeBehavior for Recorder {
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: NodeEvent) {
            if let NodeEvent::Message { payload, .. } = event {
                if let Ok(message) = decode_single(&payload) {
                    self.heard.borrow_mut().push(message);
                }
            }
        }
    }

    /// Regression test (stale-ban hygiene): a one-shot timeout ban names a
    /// source; when that source is evicted — Goodbye, undeliverable send,
    /// failed transfer or offline probe — the ban must die with it, or the
    /// redraw's `unwrap_or(banned)` fallback could point a request at a
    /// peer that no longer exists.
    #[test]
    fn eviction_clears_stale_timeout_bans() {
        let seeder = NodeId::from_index(2);
        let a = NodeId::from_index(3);
        let b = NodeId::from_index(4);
        let mut l = LeecherNode::new(config(seeder, vec![a, b], DiscoveryMode::Full));
        l.timeout_bans.insert(0, a);
        l.timeout_bans.insert(1, b);
        l.timeout_bans.insert(2, a);
        l.forget_peer(a);
        assert!(
            !l.timeout_bans.values().any(|&s| s == a),
            "bans naming the evicted peer must be purged"
        );
        assert_eq!(
            l.timeout_bans.get(&1),
            Some(&b),
            "bans naming other peers must survive"
        );
    }

    /// A crash-stop departure goes offline without a Goodbye and stamps
    /// its report as a crash.
    #[test]
    fn crash_stop_departs_without_goodbye() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 3]);
        let (_leecher_id, s_id, w_id) = (net.leaves[0], net.leaves[1], net.leaves[2]);

        let mut cfg = config(s_id, vec![w_id], DiscoveryMode::Full);
        cfg.join_delay = SimDuration::from_secs_f64(0.1);
        cfg.crash_after = Some(SimDuration::from_secs_f64(1.0));
        let sink = cfg.sink.clone();
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));

        let heard: Rc<RefCell<Vec<Message>>> = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(net.network, 5);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(NullBehavior)); // seeder stand-in
        sim.add_node(Box::new(Recorder {
            heard: heard.clone(),
        }));
        sim.run_until_idle(SimTime::from_secs_f64(5.0));

        let reports = sink.borrow();
        assert_eq!(reports.len(), 1, "the crash must still write a report");
        assert!(reports[0].departed);
        assert_eq!(reports[0].fault.crashes, 1);
        assert!(
            heard
                .borrow()
                .iter()
                .any(|m| matches!(m, Message::Handshake { .. })),
            "the crashed peer was alive before the crash"
        );
        assert!(
            !heard.borrow().iter().any(|m| matches!(m, Message::Goodbye)),
            "a crash-stop must not announce itself"
        );
        assert_eq!(
            node.borrow().report,
            PeerReport::default(),
            "the report moved into the sink; the leecher keeps no copy"
        );
    }

    /// Under full discovery, `boot` greets the views `new` made of the
    /// member list and nothing else: not a peer that greeted first (it was
    /// greeted back then), not one whose `Goodbye` removed its view.
    #[test]
    fn boot_greets_the_views_not_yet_greeted() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 5]);
        let [me, seeder, a, b, c] = net.leaves[..] else {
            unreachable!()
        };
        let mut cfg = config(seeder, vec![a, b, c], DiscoveryMode::Full);
        cfg.join_delay = SimDuration::from_secs_f64(1.0);
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));
        let log = Rc::new(RefCell::new(Vec::new()));
        let c_heard = Rc::new(RefCell::new(Vec::new()));
        let hs = Message::Handshake {
            peer_id: 4,
            info_hash: crate::seeder::info_hash_of(""),
            version: PROTOCOL_VERSION,
        };
        let mut sim = Simulator::new(net.network, 5);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        for _ in [seeder, a] {
            sim.add_node(Box::new(Inbox {
                log: log.clone(),
                deliver_to: None,
            }));
        }
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(0.5),
            action: move |ctx| {
                ctx.send(me, encode_to_bytes(&Message::Goodbye)).unwrap();
                ctx.go_offline();
            },
        }));
        sim.add_node(Box::new(ScriptedPeer {
            to: me,
            stages: vec![(SimDuration::from_secs_f64(0.3), vec![encode_to_bytes(&hs)])],
            next: 0,
            heard: c_heard.clone(),
        }));
        sim.run_until_idle(SimTime::from_secs_f64(3.0));

        let greeted = |heard: &[Message]| {
            let handshake = |m: &&Message| matches!(m, Message::Handshake { .. });
            heard.iter().filter(handshake).count()
        };
        let log = log.borrow();
        for peer in [seeder, a] {
            let heard: Vec<_> = log
                .iter()
                .filter(|(to, _)| *to == peer)
                .map(|(_, m)| m.clone())
                .collect();
            assert_eq!(greeted(&heard), 1, "{peer} is greeted once, at boot");
        }
        assert_eq!(
            greeted(&c_heard.borrow()),
            1,
            "c was greeted back before boot, and only then"
        );
        let l = node.borrow();
        assert!(!l.views.contains(b), "b said goodbye");
        assert!([seeder, a, c].iter().all(|&peer| l.views.greeted(peer)));
    }

    /// A CDN that is offline at boot does not count as greeted: its
    /// handshake never went out, so the first pump after its outage
    /// greets it. The outage ends before that pump, so nothing but the
    /// failed send can keep the CDN ungreeted until then.
    #[test]
    fn cdn_offline_at_boot_is_greeted_by_the_first_pump_after_it_returns() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 3]);
        let [_, seeder, cdn] = net.leaves[..] else {
            unreachable!()
        };
        let mut cfg = config(seeder, Vec::new(), DiscoveryMode::Full);
        cfg.cdn = Some(cdn);
        // Boot at 0.5 s inside the outage; the first pump fires at 1.5 s.
        cfg.join_delay = SimDuration::from_secs_f64(0.5);
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(net.network, 5);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        for _ in [seeder, cdn] {
            sim.add_node(Box::new(Inbox {
                log: log.clone(),
                deliver_to: None,
            }));
        }
        sim.schedule_offline_window(
            cdn,
            SimTime::from_secs_f64(0.1),
            SimTime::from_secs_f64(1.0),
        );
        let cdn_handshakes = |log: &[(NodeId, Message)]| {
            log.iter()
                .filter(|(to, m)| *to == cdn && matches!(m, Message::Handshake { .. }))
                .count()
        };

        sim.run_until_idle(SimTime::from_secs_f64(1.2));
        assert!(!node.borrow().views.greeted(cdn), "its handshake failed");
        assert_eq!(cdn_handshakes(&log.borrow()), 0);

        sim.run_until_idle(SimTime::from_secs_f64(2.0));
        assert!(node.borrow().views.greeted(cdn));
        assert_eq!(cdn_handshakes(&log.borrow()), 1, "the pump greeted it");
    }

    /// A tracker's `PeerList` greets, once each and in one multicast, the
    /// listed peers that are fresh: not this leecher, not an origin, not
    /// already a view, and online. Each gets a view marked greeted.
    #[test]
    fn peer_list_greets_only_its_fresh_online_peers() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 6]);
        let [me, seeder, known, b, c, gone] = net.leaves[..] else {
            unreachable!()
        };
        let cfg = config(seeder, vec![known, b, c, gone], DiscoveryMode::Tracker);
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));
        node.borrow_mut().views.insert(known);
        let listed = [me, seeder, known, b, gone, c, b].map(|p| p.index() as u32);
        let list = encode_to_bytes(&Message::PeerList {
            peers: listed.to_vec(),
        });
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(net.network, 5);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(ScriptedPeer {
            to: me,
            stages: vec![(SimDuration::from_secs_f64(0.3), vec![list])],
            next: 0,
            heard: Rc::new(RefCell::new(Vec::new())),
        }));
        for _ in [known, b, c, gone] {
            sim.add_node(Box::new(Inbox {
                log: log.clone(),
                deliver_to: None,
            }));
        }
        sim.schedule_offline_window(
            gone,
            SimTime::from_secs_f64(0.1),
            SimTime::from_secs_f64(100.0),
        );
        sim.run_until_idle(SimTime::from_secs_f64(2.0));

        let greeted: Vec<NodeId> = log
            .borrow()
            .iter()
            .filter(|(_, m)| matches!(m, Message::Handshake { .. }))
            .map(|&(to, _)| to)
            .collect();
        assert_eq!(greeted, [b, c]);
        let l = node.borrow();
        assert!(l.views.greeted(b) && l.views.greeted(c));
        assert!(!l.views.greeted(known), "a known view is not re-greeted");
        assert!(!l.views.contains(gone), "an offline peer gets no view");
    }

    /// Silence is not a crash. With defenses on, a neighbour that
    /// handshakes and then says nothing (a finished viewer has nothing to
    /// say) stays a neighbour however long it is quiet. A neighbour that
    /// crashes is never picked as a source — the online probe skips it —
    /// and is dropped by the first send that fails, as a TCP connection
    /// reset would report it.
    #[test]
    fn quiet_peer_is_kept_and_crashed_peer_dropped_on_failed_send() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 4]);
        let (leecher_id, s_id, quiet_id, crashed_id) =
            (net.leaves[0], net.leaves[1], net.leaves[2], net.leaves[3]);

        let mut cfg = config(s_id, vec![quiet_id, crashed_id], DiscoveryMode::Full);
        cfg.join_delay = SimDuration::from_secs_f64(0.1);
        cfg.defense = Some(DefenseConfig);
        let sink = cfg.sink.clone();
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));

        let handshake = encode_to_bytes(&Message::Handshake {
            peer_id: 9,
            info_hash: crate::seeder::info_hash_of(""),
            version: PROTOCOL_VERSION,
        });
        let mut sim = Simulator::new(net.network, 5);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(At {
            // The seeder stand-in delivers segment 1 at t = 40, and the
            // leecher's `Have` for it goes to every fellow.
            after: SimDuration::from_secs_f64(40.0),
            action: move |ctx: &mut Ctx<'_>| {
                ctx.start_transfer(leecher_id, 10_000, 1).unwrap();
            },
        }));
        let hs = handshake.clone();
        sim.add_node(Box::new(At {
            // Handshakes once, then never speaks again.
            after: SimDuration::from_secs_f64(0.3),
            action: move |ctx: &mut Ctx<'_>| {
                ctx.send(leecher_id, hs.clone()).unwrap();
            },
        }));
        let mut fired = 0u32;
        sim.add_node(Box::new(At {
            // Handshakes and announces segment 0, then crashes at t = 1.
            after: SimDuration::from_secs_f64(0.3),
            action: move |ctx: &mut Ctx<'_>| {
                fired += 1;
                if fired == 1 {
                    ctx.send(leecher_id, handshake.clone()).unwrap();
                    ctx.send(leecher_id, encode_to_bytes(&Message::Have { index: 0 }))
                        .unwrap();
                    ctx.set_timer(SimDuration::from_secs_f64(0.7), 0);
                } else {
                    ctx.go_offline();
                }
            },
        }));

        // Streaming from t = 2: the crashed peer is the only announced
        // holder of segment 0.
        sim.run_until_idle(SimTime::from_secs_f64(2.0));
        node.borrow_mut().streaming = true;
        sim.run_until_idle(SimTime::from_secs_f64(39.5));
        {
            let l = node.borrow();
            assert!(
                l.views.contains(quiet_id),
                "a peer quiet for 39 s is still a neighbour"
            );
            assert!(
                l.views.contains(crashed_id),
                "nothing was sent to the crashed peer yet"
            );
            assert!(
                l.in_flight.is_empty(),
                "the crashed holder must never be picked: {:?}",
                l.in_flight
            );
        }

        sim.run_until_idle(SimTime::from_secs_f64(42.0));
        let l = node.borrow();
        assert!(l.holds(1), "the seeder's delivery arrived");
        assert!(
            !l.views.contains(crashed_id),
            "the failed `Have` send drops the crashed peer"
        );
        assert!(l.views.contains(quiet_id));
        assert!(l.views.contains(s_id));
        assert!(l.in_flight.is_empty());
        // The first stage's end wrote the report; the rest counts on.
        assert_eq!(written(&sink).fault.silent_evictions, 0);
        assert_eq!(l.report.fault.silent_evictions, 0);
    }

    /// Exponential backoff bans: each failure doubles the ban window up to
    /// the cap, a success pays one failure back and lifts the active ban,
    /// and origins are never banned.
    #[test]
    fn source_backoff_doubles_caps_and_decays() {
        let seeder = NodeId::from_index(2);
        let a = NodeId::from_index(3);
        let mut cfg = config(seeder, vec![a], DiscoveryMode::Full);
        cfg.defense = Some(DefenseConfig);
        let mut l = LeecherNode::new(cfg);
        let t0 = SimTime::ZERO;
        for expected in [5.0, 10.0, 20.0, 40.0, 60.0] {
            l.record_source_failure(t0, a);
            assert_eq!(
                l.health[&a].banned_until,
                t0 + SimDuration::from_secs_f64(expected),
                "ban window must double up to the cap"
            );
        }
        assert_eq!(l.report.fault.backoff_bans, 5);
        l.record_source_success(a);
        assert_eq!(l.health[&a].failures, 4);
        assert_eq!(
            l.health[&a].banned_until,
            SimTime::ZERO,
            "a success lifts the active ban"
        );
        for _ in 0..4 {
            l.record_source_success(a);
        }
        assert!(
            !l.health.contains_key(&a),
            "a fully paid-back source drops out of the health map"
        );
        l.record_source_failure(t0, seeder);
        assert!(
            !l.health.contains_key(&seeder),
            "the seeder is the safety net and is never banned"
        );
    }

    /// Regression test (multi-requester uploader death): when an uploader
    /// crashes while serving *several* of our requests, every failed entry
    /// must make progress — including one whose segment is already held (a
    /// raced duplicate), whose freed slot previously sat idle until the
    /// next pump.
    #[test]
    fn uploader_crash_with_multiple_requesters_refills_every_slot() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 4]);
        let (leecher_id, s_id, a_id, b_id) =
            (net.leaves[0], net.leaves[1], net.leaves[2], net.leaves[3]);

        let mut cfg = config(s_id, vec![a_id, b_id], DiscoveryMode::Full);
        cfg.join_delay = SimDuration::from_secs_f64(0.1);
        // Four segments, so a refill target exists beyond the failed pair.
        let video = Video::builder().duration_secs(8.0).seed(1).build();
        cfg.segments = Arc::new(DurationSplicer::new(2.0).splice(&video));
        // Pumps far out of the picture: only the failure path may act.
        cfg.pump_interval = SimDuration::from_secs_f64(50.0);
        let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));

        let mut sim = Simulator::new(net.network, 3);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(NullBehavior)); // seeder stand-in
                                              // A: starts serving segments 0 and 1, then crashes mid-transfer.
        let mut fired = 0u32;
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(1.0),
            action: move |ctx: &mut Ctx<'_>| {
                fired += 1;
                if fired == 1 {
                    ctx.start_transfer(leecher_id, 5_000_000, 0).unwrap();
                    ctx.start_transfer(leecher_id, 5_000_000, 1).unwrap();
                    ctx.set_timer(SimDuration::from_secs_f64(1.0), 0);
                } else {
                    ctx.go_offline();
                }
            },
        }));
        // B announces holding segments 0 and 2: the refill sources.
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(0.3),
            action: move |ctx: &mut Ctx<'_>| {
                let hs = Message::Handshake {
                    peer_id: 9,
                    info_hash: crate::seeder::info_hash_of(""),
                    version: PROTOCOL_VERSION,
                };
                ctx.send(leecher_id, encode_to_bytes(&hs)).unwrap();
                for index in [0, 2] {
                    ctx.send(leecher_id, encode_to_bytes(&Message::Have { index }))
                        .unwrap();
                }
            },
        }));

        // Segment 1 already held (its in-flight entry is a raced
        // duplicate); both of A's transfers are running.
        sim.run_until_idle(SimTime::from_secs_f64(0.5));
        {
            let mut l = node.borrow_mut();
            l.streaming = true;
            l.playback.on_segment(1, 0.5);
            for index in [0, 1] {
                put_in_flight(&mut l, index, a_id, true);
            }
            l.views.set_handshaken(a_id, true);
        }

        // A crashes at t = 2: both transfers fail back-to-back.
        sim.run_until_idle(SimTime::from_secs_f64(3.0));
        let l = node.borrow();
        l.audit_in_flight();
        assert!(!l.views.contains(a_id), "the crashed uploader is gone");
        let seg0 = l
            .in_flight
            .get(&0)
            .expect("the unfinished segment must be re-requested");
        assert_eq!(seg0.source, b_id);
        let seg2 = l.in_flight.get(&2).expect(
            "the slot freed by the held duplicate's failure must be \
             rescheduled by the same event, not left idle until the next pump",
        );
        assert_eq!(seg2.source, b_id);
        assert!(!l.in_flight.contains_key(&1), "the held duplicate is gone");
    }

    /// Sends scripted frame batches at staged times (each delay relative
    /// to the previous stage) and records every decodable reply.
    struct ScriptedPeer {
        to: NodeId,
        stages: Vec<(SimDuration, Vec<Bytes>)>,
        next: usize,
        heard: Rc<RefCell<Vec<Message>>>,
    }

    impl NodeBehavior for ScriptedPeer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some((after, _)) = self.stages.first() {
                ctx.set_timer(*after, 0);
            }
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            match event {
                NodeEvent::Timer { .. } => {
                    let (_, batch) = &self.stages[self.next];
                    for frame in batch {
                        ctx.send(self.to, frame.clone()).unwrap();
                    }
                    self.next += 1;
                    if let Some((after, _)) = self.stages.get(self.next) {
                        ctx.set_timer(*after, 0);
                    }
                }
                NodeEvent::Message { payload, .. } => {
                    if let Ok(message) = decode_single(&payload) {
                        self.heard.borrow_mut().push(message);
                    }
                }
                _ => {}
            }
        }
    }

    /// A neighbour that handshook with a full bitfield is an ordinary
    /// view: a delayed, non-full `Bitfield` overtaken on the wire replaces
    /// it like any other, so the cleared bit drops the peer from that
    /// segment's candidates and the scheduler stops picking it there. A
    /// later `Bitfield` that sets the bit the schedule is blocked on
    /// re-dirties it, and the segment is requested in the same event.
    #[test]
    fn stale_bitfield_after_full_handshake_unindexes_cleared_bits() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 3]);
        let (leecher_id, s_id, a_id) = (net.leaves[0], net.leaves[1], net.leaves[2]);

        let node = Rc::new(RefCell::new(LeecherNode::new(config(
            s_id,
            vec![a_id],
            DiscoveryMode::Full,
        ))));

        let hs = Message::Handshake {
            peer_id: 9,
            info_hash: crate::seeder::info_hash_of(""),
            version: PROTOCOL_VERSION,
        };
        let mut stale = Bitfield::new(2);
        stale.set(0);
        let full = || encode_to_bytes(&Message::Bitfield(Bitfield::full(2)));
        let mut sim = Simulator::new(net.network, 5);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(NullBehavior)); // seeder stand-in, never handshakes
        sim.add_node(Box::new(ScriptedPeer {
            to: leecher_id,
            stages: vec![
                (
                    SimDuration::from_secs_f64(0.3),
                    vec![encode_to_bytes(&hs), full()],
                ),
                (
                    SimDuration::from_secs_f64(0.5),
                    vec![encode_to_bytes(&Message::Bitfield(stale))],
                ),
                (SimDuration::from_secs_f64(0.5), vec![full()]),
            ],
            next: 0,
            heard: Rc::new(RefCell::new(Vec::new())),
        }));

        sim.run_until_idle(SimTime::from_secs_f64(0.6));
        {
            let mut l = node.borrow_mut();
            assert_eq!(shown(&l, a_id), [0, 1]);
            assert_eq!(holders(&l, 1), [a_id]);
            // Downloads may start: the stale bitfield's scheduling pass
            // must pick from the views as it leaves them.
            l.streaming = true;
        }

        sim.run_until_idle(SimTime::from_secs_f64(1.1));
        {
            let l = node.borrow();
            assert_eq!(shown(&l, a_id), [0]);
            assert_eq!(holders(&l, 0), [a_id]);
            assert!(holders(&l, 1).is_empty(), "the cleared bit drops the peer");
            assert_eq!(l.in_flight.get(&0).map(|f| f.source), Some(a_id));
            assert!(
                !l.in_flight.contains_key(&1),
                "no pick may return the peer for a segment it disclaimed"
            );
            assert_eq!(l.sched_state, SchedState::NoSource(1));
        }

        sim.run_until_idle(SimTime::from_secs_f64(2.0));
        let l = node.borrow();
        assert_eq!(shown(&l, a_id), [0, 1]);
        assert_eq!(holders(&l, 1), [a_id]);
        assert_eq!(
            l.in_flight.get(&1).map(|f| f.source),
            Some(a_id),
            "the restored holder unblocks the stalled segment"
        );
    }

    fn eventful_config(seeder: NodeId, others: Vec<NodeId>) -> LeecherConfig {
        let mut cfg = config(seeder, others, DiscoveryMode::Full);
        cfg.control_plane = ControlPlane::EVENTFUL;
        cfg
    }

    /// Wire type 16 carried the retired interest-window announcement. A
    /// leecher that still receives one from a handshaken neighbour treats it like any frame it cannot decode: its state,
    /// its report and what it says back match a run without the frame.
    #[test]
    fn a_type_16_frame_changes_nothing_and_gets_no_reply() {
        let run = |with_frame: bool| {
            let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
            let net = star(&[spec; 3]);
            let (leecher_id, s_id, b_id) = (net.leaves[0], net.leaves[1], net.leaves[2]);
            let cfg = eventful_config(s_id, vec![b_id]);
            let sink = cfg.sink.clone();
            let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));
            let hs = Message::Handshake {
                peer_id: 9,
                info_hash: crate::seeder::info_hash_of(""),
                version: PROTOCOL_VERSION,
            };
            let greeting = [hs, Message::Bitfield(Bitfield::full(2))];
            let mut stages = vec![(
                SimDuration::from_secs_f64(0.3),
                greeting.iter().map(encode_to_bytes).collect(),
            )];
            if with_frame {
                let frame: &[u8] = &[0, 0, 0, 9, 16, 0, 0, 0, 1, 0, 0, 0, 2];
                stages.push((
                    SimDuration::from_secs_f64(0.5),
                    vec![Bytes::from_static(frame)],
                ));
            }
            let heard: Rc<RefCell<Vec<Message>>> = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(net.network, 5);
            sim.add_node(Box::new(NullBehavior)); // hub
            sim.add_node(Box::new(Shared(node.clone())));
            sim.add_node(Box::new(NullBehavior)); // seeder stand-in
            sim.add_node(Box::new(ScriptedPeer {
                to: leecher_id,
                stages,
                next: 0,
                heard: heard.clone(),
            }));
            sim.run_until_idle(SimTime::from_secs_f64(3.0));
            let l = node.borrow();
            assert_eq!(shown(&l, b_id), [0, 1], "B's greeting landed");
            let said = heard.borrow().clone();
            let report = written(&sink);
            assert!(report.mem.view_bytes > 0, "the run's end wrote the report");
            (report, holders(&l, 1), l.sched_state, said)
        };
        assert_eq!(run(true), run(false));
    }

    /// A fellow that holds every segment still hears announcements, and a
    /// `HaveBundle` costs it nothing but the view update: against a run
    /// without the bundle it sends nothing more, leaves the next
    /// `Ctx::rng` draw where it was, and counts one skipped scheduling
    /// pass and no pass that ran.
    #[test]
    fn a_complete_leecher_takes_a_bundle_as_a_skip() {
        use rand::Rng;

        let run = |with_bundle: bool| {
            let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
            let net = star(&[spec; 4]);
            let (leecher_id, s_id, b_id) = (net.leaves[0], net.leaves[1], net.leaves[2]);
            let cfg = eventful_config(s_id, vec![b_id]);
            let sink = cfg.sink.clone();
            let node = Rc::new(RefCell::new(LeecherNode::new(cfg)));
            {
                let mut l = node.borrow_mut();
                l.streaming = true;
                for index in 0..l.segment_count() {
                    l.playback.on_segment(index as usize, 0.0);
                }
            }
            let hs = Message::Handshake {
                peer_id: 9,
                info_hash: crate::seeder::info_hash_of(""),
                version: PROTOCOL_VERSION,
            };
            let greeting = [hs, Message::Bitfield(Bitfield::new(2))];
            let mut stages = vec![(
                SimDuration::from_secs_f64(0.3),
                greeting.iter().map(encode_to_bytes).collect(),
            )];
            if with_bundle {
                let bundle = Message::HaveBundle {
                    indices: vec![0, 1],
                };
                stages.push((
                    SimDuration::from_secs_f64(0.2),
                    vec![encode_to_bytes(&bundle)],
                ));
            }
            let heard: Rc<RefCell<Vec<Message>>> = Rc::new(RefCell::new(Vec::new()));
            let draw = Rc::new(RefCell::new(None));
            let mut sim = Simulator::new(net.network, 5);
            sim.add_node(Box::new(NullBehavior)); // hub
            sim.add_node(Box::new(Shared(node.clone())));
            sim.add_node(Box::new(NullBehavior)); // seeder stand-in
            sim.add_node(Box::new(ScriptedPeer {
                to: leecher_id,
                stages,
                next: 0,
                heard: heard.clone(),
            }));
            let drawn = draw.clone();
            sim.add_node(Box::new(At {
                after: SimDuration::from_secs_f64(1.0),
                action: move |ctx: &mut Ctx<'_>| *drawn.borrow_mut() = Some(ctx.rng().gen::<u64>()),
            }));
            sim.run_until_idle(SimTime::from_secs_f64(3.0));
            let shown = shown(&node.borrow(), b_id);
            let sched = written(&sink).sched;
            let said = heard.borrow().clone();
            let next_draw = draw.borrow().expect("the draw ran");
            (shown, sched, said, next_draw, sim.stats().messages_sent)
        };
        let (shown, sched, said, draw, sent) = run(true);
        let (quiet_shown, quiet_sched, quiet_said, quiet_draw, quiet_sent) = run(false);
        assert_eq!(
            (shown, quiet_shown),
            (vec![0, 1], vec![]),
            "the bundle landed"
        );
        assert_eq!(said, quiet_said, "no reply");
        assert_eq!(sent, quiet_sent + 1, "the bundle is the only extra message");
        assert_eq!(draw, quiet_draw, "no draw from the stream");
        assert_eq!(sched.passes, quiet_sched.passes);
        assert_eq!(sched.skips, quiet_sched.skips + 1);
    }

    /// A greeting reply sends the cached frames: the handshake encoded in
    /// `new`, and the encoding of the holdings as of the reply. Replies
    /// before segment 0 lands share one empty bitfield frame; the delivery
    /// drops it, and the next reply encodes one that shows the segment.
    #[test]
    fn greeting_frames_encode_the_handshake_and_the_current_holdings() {
        let spec = LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.0);
        let net = star(&[spec; 4]);
        let (leecher_id, s_id, a_id, b_id) =
            (net.leaves[0], net.leaves[1], net.leaves[2], net.leaves[3]);
        let node = Rc::new(RefCell::new(LeecherNode::new(config(
            s_id,
            vec![a_id, b_id],
            DiscoveryMode::Full,
        ))));
        let hs = |peer_id| Message::Handshake {
            peer_id,
            info_hash: crate::seeder::info_hash_of(""),
            version: PROTOCOL_VERSION,
        };
        assert_eq!(node.borrow().handshake_wire, encode_to_bytes(&hs(1)));
        let empty = Bitfield::new(2);
        let mut first = Bitfield::new(2);
        first.set(0);

        // A greets at 0.3 s and again at 2.3 s, B at 0.4 s; the seeder
        // delivers segment 0 at 1 s.
        let greeter = |stages: Vec<f64>, heard: &Rc<RefCell<Vec<Message>>>| ScriptedPeer {
            to: leecher_id,
            stages: stages
                .into_iter()
                .map(|after| {
                    (
                        SimDuration::from_secs_f64(after),
                        vec![encode_to_bytes(&hs(9))],
                    )
                })
                .collect(),
            next: 0,
            heard: heard.clone(),
        };
        let (heard_a, heard_b) = (Rc::default(), Rc::default());
        let mut sim = Simulator::new(net.network, 42);
        sim.add_node(Box::new(NullBehavior)); // hub
        sim.add_node(Box::new(Shared(node.clone())));
        sim.add_node(Box::new(At {
            after: SimDuration::from_secs_f64(1.0),
            action: move |ctx| {
                ctx.start_transfer(leecher_id, 10_000, 0).unwrap();
            },
        }));
        sim.add_node(Box::new(greeter(vec![0.3, 2.0], &heard_a)));
        sim.add_node(Box::new(greeter(vec![0.4], &heard_b)));

        sim.run_until_idle(SimTime::from_secs_f64(0.8));
        let empty_frame = encode_to_bytes(&Message::Bitfield(empty.clone()));
        assert_eq!(node.borrow().bitfield_wire, Some(empty_frame.clone()));
        sim.run_until_idle(SimTime::from_secs_f64(1.5));
        {
            let l = node.borrow();
            assert!(l.holds(0), "the seeder's delivery arrived");
            assert_eq!(l.bitfield_wire, None, "the delivery drops the frame");
        }
        sim.run_until_idle(SimTime::from_secs_f64(10.0));
        let first_frame = encode_to_bytes(&Message::Bitfield(first.clone()));
        assert_eq!(node.borrow().bitfield_wire, Some(first_frame));

        let have = Message::Have { index: 0 };
        let greeting = |bits: &Bitfield| [hs(1), Message::Bitfield(bits.clone())];
        let mut want_a = greeting(&empty).to_vec();
        want_a.extend([have.clone(), Message::Bitfield(first)]);
        assert_eq!(*heard_a.borrow(), want_a, "A is greeted once");
        let mut want_b = greeting(&empty).to_vec();
        want_b.push(have);
        assert_eq!(*heard_b.borrow(), want_b);
    }
}
