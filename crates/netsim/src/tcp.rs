//! The TCP flow model.
//!
//! Bulk transfers are simulated at **RTT-round granularity** rather than per
//! packet: every round-trip time, a flow sends a window of packets, suffers
//! Bernoulli loss on each, and updates its congestion window the way TCP
//! Reno would (slow start doubling below `ssthresh`, additive increase
//! above, multiplicative decrease on a lossy round). This captures the three
//! effects the paper's results hinge on:
//!
//! 1. **Connection setup cost** — a new connection spends 1.5 RTT in the
//!    three-way handshake before the first payload byte, which penalises
//!    splicing schemes that create many small per-segment connections.
//! 2. **Slow start** — short transfers finish before the window opens, so
//!    small segments underutilise the path.
//! 3. **Loss-limited throughput** — with the paper's 5 % loss the window
//!    stays small (the Mathis `MSS/(RTT·√p)` regime), so a single flow
//!    cannot saturate a fat link and concurrent downloads genuinely help.
//!
//! Capacity sharing is approximated per round: a flow's send budget is
//! capped by the narrowest link of its path divided by the number of flows
//! currently crossing that link (max–min fairness at round granularity).

use rand::rngs::StdRng;

use crate::id::{DirLinkId, FlowId, NodeId};
use crate::rng::binomial;
use crate::time::{SimDuration, SimTime};
use crate::topology::Route;

/// Which bulk-transfer model the simulator advances flows with.
///
/// * [`FlowModel::Rounds`] steps every flow once per RTT — faithful to the
///   paper's window dynamics (handshake, slow start, AIMD, Bernoulli loss)
///   but `O(flows × rounds)` events, which caps feasible swarm sizes.
/// * [`FlowModel::Fluid`] treats each flow as a constant-rate pipe: max–min
///   fair shares are recomputed only when the flow set changes and a flow
///   has at most one live completion event, pushed again only when its
///   finish moves earlier — `O(flow-set changes)` events, making
///   100×-larger swarms tractable. Loss and
///   window limits are folded in as a Mathis-style rate ceiling so
///   aggregate metrics stay close to the round model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowModel {
    /// Per-RTT window rounds (the default; bit-identical to historic runs).
    #[default]
    Rounds,
    /// Event-driven fluid rates for large-swarm experiments.
    Fluid,
}

impl std::str::FromStr for FlowModel {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw {
            "rounds" => Ok(FlowModel::Rounds),
            "fluid" => Ok(FlowModel::Fluid),
            other => Err(format!("unknown flow model `{other}` (rounds | fluid)")),
        }
    }
}

/// Maximum segment size in bytes.
pub(crate) const MSS: u64 = 1460;
/// Initial congestion window, in packets (IW10 per RFC 6928).
pub(crate) const INITIAL_CWND: f64 = 10.0;
/// Initial slow-start threshold, in packets.
pub(crate) const INITIAL_SSTHRESH: f64 = 64.0;
/// RTT multiples consumed by connection establishment before the first
/// data round (1.5 models the three-way handshake).
pub(crate) const HANDSHAKE_RTTS: f64 = 1.5;
/// Multiplicative-decrease factor β applied to the window on a lossy round
/// (0.5 = classic Reno, 0.7 = CUBIC-like).
pub(crate) const LOSS_DECREASE_FACTOR: f64 = 0.7;
/// Congestion-avoidance growth per round is `1 + CA_GROWTH_FACTOR × cwnd`
/// packets: 0 would be Reno's additive increase; a small positive value
/// approximates CUBIC's faster reopening after a loss.
pub(crate) const CA_GROWTH_FACTOR: f64 = 0.05;
/// Congestion window floor after a loss, in packets.
pub(crate) const MIN_CWND: f64 = 2.0;
/// Congestion window ceiling, in packets (receive-window stand-in).
pub(crate) const MAX_CWND: f64 = 512.0;
/// Fraction of a link's configured loss that applies even when the link is
/// idle. Shaped links (like the paper's GENI RSpec links) drop mostly under
/// load: the effective per-packet loss of a link is
/// `loss × (floor + (1 − floor) × utilization)`.
pub(crate) const LOSS_UTILIZATION_FLOOR: f64 = 0.25;
/// Time constant of the link-utilization estimator, seconds.
pub(crate) const UTILIZATION_TAU_SECS: f64 = 1.0;
/// Extra loss per unit of link *overload pressure* beyond the threshold.
/// Pressure is `flows × MIN_CWND × MSS / BDP`: when so many flows share a
/// link that even their minimum windows approach the bandwidth-delay
/// product, real TCP cannot back off any further and collapses into
/// retransmission timeouts. This is what makes an oversized download pool
/// counterproductive on a thin link (the paper's §VI-B).
pub(crate) const OVERLOAD_LOSS_COEFF: f64 = 0.9;
/// Pressure level where the overload ramp starts (queues build before the
/// hard limit).
pub(crate) const OVERLOAD_PRESSURE_THRESHOLD: f64 = 0.6;
/// Ceiling on the overload-induced extra loss.
pub(crate) const OVERLOAD_LOSS_MAX: f64 = 0.85;

/// The TCP model's one setting: which flow model advances transfers. Every
/// other parameter of the model is a constant of this module.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TcpConfig {
    /// How bulk transfers are advanced (per-RTT rounds or fluid rates).
    pub flow_model: FlowModel,
}

/// Dynamic state of one flow.
#[derive(Debug)]
pub(crate) struct Flow {
    pub id: FlowId,
    /// Insertion stamp, assigned by the table: later flows have larger ones.
    pub stamp: u64,
    /// Sending endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// Round-trip time of the path (2 × one-way latency).
    pub rtt: SimDuration,
    /// Per-packet loss probability along the path.
    pub loss: f64,
    /// Total payload bytes to move.
    pub total: u64,
    /// Bytes delivered so far.
    pub delivered: u64,
    /// Congestion window, in packets.
    pub cwnd: f64,
    /// Slow-start threshold, in packets.
    pub ssthresh: f64,
    /// Application tag echoed in completion events.
    pub tag: u64,
    /// When the transfer was requested.
    pub started: SimTime,
    /// Fluid-model bookkeeping (inert under the round model).
    pub fluid: FluidFlowState,
}

/// Per-flow state of the fluid model. Zero/default until the flow's
/// handshake completes and it joins the rate solver.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FluidFlowState {
    /// The flow has finished its handshake and participates in rate
    /// solving. Always false under the round model.
    pub active: bool,
    /// Goodput rate assigned by the last rebalance, bits/sec.
    pub rate_bps: f64,
    /// When `rate_bps` took effect (progress is integrated lazily from
    /// this instant).
    pub rate_since: SimTime,
    /// Precise bytes delivered (kept in f64 so repeated folds do not
    /// accumulate rounding error); `Flow::delivered` is its floor.
    pub delivered: f64,
    /// Effective loss since the last rebalance that reached the flow, used
    /// to account retransmission waste in the wire-byte counters.
    pub eff_loss: f64,
    /// Wire bytes already credited to the stats/link counters.
    pub wire_emitted: u64,
    /// When the flow finishes under `rate_bps`; moved by every material
    /// rate change.
    pub done_at: SimTime,
    /// Instant of the flow's earliest pending
    /// [`crate::event::Scheduled::FlowDone`] ([`SimTime::MAX`] at
    /// activation, never later than `done_at` once one is pushed). Only the
    /// pop at this instant is live; every other one is ignored.
    pub armed_at: SimTime,
}

/// What a round of the flow produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundOutcome {
    /// More rounds needed.
    InProgress,
    /// All bytes have been delivered.
    Completed,
}

impl Flow {
    /// Directed links crossed, in order.
    pub fn route(&self) -> Route {
        Route::between(self.src, self.dst)
    }

    /// Advances one RTT round given this round's fair-share rate and the
    /// effective per-packet loss (base path loss scaled by utilization).
    /// Returns the outcome and the wire bytes put on the path this round.
    pub fn advance_round(
        &mut self,
        fair_share_bps: f64,
        effective_loss: f64,
        rng: &mut StdRng,
    ) -> (RoundOutcome, u64) {
        // Fair-share budget for one RTT, in packets (at least one: TCP
        // always keeps a packet in flight).
        let budget_bytes = fair_share_bps / 8.0 * self.rtt.as_secs_f64();
        // `as u64` truncates like `floor` for non-negative values without
        // the libm call (the default x86-64 target has no roundsd).
        let budget_pkts = ((budget_bytes / MSS as f64) as u64).max(1);
        let window_pkts = (self.cwnd as u64).max(1);
        let remaining_pkts = (self.total - self.delivered).div_ceil(MSS);
        let send = budget_pkts.min(window_pkts).min(remaining_pkts);

        let lost = binomial(rng, send, effective_loss);
        let arrived = send - lost;
        self.delivered = (self.delivered + arrived * MSS).min(self.total);

        if lost > 0 {
            // One loss event per round: multiplicative decrease.
            self.ssthresh = (self.cwnd * LOSS_DECREASE_FACTOR).max(MIN_CWND);
            self.cwnd = self.ssthresh;
        } else if self.cwnd < self.ssthresh {
            self.cwnd = (self.cwnd * 2.0).min(self.ssthresh).min(MAX_CWND);
        } else {
            self.cwnd = (self.cwnd + 1.0 + CA_GROWTH_FACTOR * self.cwnd).min(MAX_CWND);
        }

        let outcome = if self.delivered >= self.total {
            RoundOutcome::Completed
        } else {
            RoundOutcome::InProgress
        };
        (outcome, send * MSS)
    }
}

/// Per-directed-link recent send-rate estimator: an exponentially decayed
/// impulse average, so steady sends of `r` bps read back as ≈ `r`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkUsage {
    rate_bps: f64,
    last_micros: u64,
}

impl LinkUsage {
    /// Overwrites the estimate with `rate_bps` observed at `now`. The
    /// caller decays the old rate via [`LinkUsage::rate_bps_at`] and adds
    /// its contribution; splitting the two lets a round reuse one decay
    /// computation for both the utilization read and this update.
    pub fn set_rate(&mut self, now: SimTime, rate_bps: f64) {
        self.rate_bps = rate_bps;
        self.last_micros = now.as_micros();
    }

    /// The decayed rate estimate at `now`, bits per second.
    pub fn rate_bps_at(&self, now: SimTime, tau_secs: f64) -> f64 {
        let dt = now.as_micros().saturating_sub(self.last_micros) as f64 / 1e6;
        self.rate_bps * (-dt / tau_secs).exp()
    }
}

/// One slab slot: a generation counter plus the flow occupying it (if any).
/// The generation is bumped on removal, so a stale [`FlowId`] can never
/// alias a newer flow that reuses the slot.
#[derive(Debug)]
struct Slot {
    gen: u32,
    flow: Option<Flow>,
}

/// Book-keeping for all active flows and per-directed-link load counts.
///
/// Flows live in a generational slab: a [`FlowId`] packs `generation << 32 |
/// slot`, so lookups are two array indexes instead of a hash, freed slots
/// are reused LIFO, and stale ids (from already-delivered round events) miss
/// on the generation check. Each flow carries an insertion stamp, so
/// [`FlowTable::flows_touching`] lists a node's flows in insertion order
/// even where a later flow reused an older slot.
#[derive(Debug, Default)]
pub(crate) struct FlowTable {
    slots: Vec<Slot>,
    /// Freed slot indices, reused LIFO.
    free: Vec<u32>,
    active: usize,
    /// Number of active flows crossing each directed link.
    link_load: Vec<u32>,
    /// Flows inserted so far: the next flow's stamp.
    inserted: u64,
}

impl FlowTable {
    pub fn new(dir_link_count: usize) -> Self {
        FlowTable {
            slots: Vec::new(),
            free: Vec::new(),
            active: 0,
            link_load: vec![0; dir_link_count],
            inserted: 0,
        }
    }

    fn pack(slot: u32, gen: u32) -> FlowId {
        FlowId((gen as u64) << 32 | slot as u64)
    }

    fn gen_of(id: FlowId) -> u32 {
        (id.0 >> 32) as u32
    }

    pub fn insert(&mut self, mut flow: Flow) -> FlowId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot { gen: 0, flow: None });
                (self.slots.len() - 1) as u32
            }
        };
        let id = Self::pack(slot, self.slots[slot as usize].gen);
        flow.id = id;
        flow.stamp = self.inserted;
        self.inserted += 1;
        for dir in flow.route().iter() {
            self.link_load[dir.index()] += 1;
        }
        self.slots[slot as usize].flow = Some(flow);
        self.active += 1;
        id
    }

    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut Flow> {
        let slot = self.slots.get_mut(id.slot())?;
        if slot.gen != Self::gen_of(id) {
            return None;
        }
        slot.flow.as_mut()
    }

    pub fn get(&self, id: FlowId) -> Option<&Flow> {
        let slot = self.slots.get(id.slot())?;
        if slot.gen != Self::gen_of(id) {
            return None;
        }
        slot.flow.as_ref()
    }

    /// Removes a flow, releasing its link load and retiring the slot's
    /// generation. Returns the flow if it was still active.
    pub fn remove(&mut self, id: FlowId) -> Option<Flow> {
        let idx = id.slot();
        let slot = self.slots.get_mut(idx)?;
        if slot.gen != Self::gen_of(id) {
            return None;
        }
        let flow = slot.flow.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx as u32);
        self.active -= 1;
        for dir in flow.route().iter() {
            debug_assert!(self.link_load[dir.index()] > 0);
            self.link_load[dir.index()] -= 1;
        }
        Some(flow)
    }

    /// Number of active flows crossing the given directed link.
    pub fn load(&self, dir: DirLinkId) -> u32 {
        self.link_load[dir.index()]
    }

    /// Every flow in the table, in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Flow> {
        self.slots.iter_mut().filter_map(|slot| slot.flow.as_mut())
    }

    /// Ids of all flows that have `node` as an endpoint, in insertion
    /// order. A scan of the table, made once per departure or outage.
    pub fn flows_touching(&self, node: NodeId) -> Vec<FlowId> {
        let live = self.slots.iter().filter_map(|slot| slot.flow.as_ref());
        let mut touching: Vec<&Flow> = live.filter(|f| f.src == node || f.dst == node).collect();
        touching.sort_unstable_by_key(|f| f.stamp);
        touching.iter().map(|f| f.id).collect()
    }

    pub fn active_count(&self) -> usize {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::LinkId;
    use rand::SeedableRng;

    fn test_flow(total: u64, loss: f64) -> Flow {
        Flow {
            id: FlowId(0),
            stamp: 0,
            src: NodeId::from_index(0),
            dst: NodeId::from_index(1),
            rtt: SimDuration::from_millis(100),
            loss,
            total,
            delivered: 0,
            cwnd: 10.0,
            ssthresh: 64.0,
            tag: 0,
            started: SimTime::ZERO,
            fluid: FluidFlowState::default(),
        }
    }

    #[test]
    fn lossless_flow_completes_and_grows_window() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut flow = test_flow(1_000_000, 0.0);
        let mut rounds = 0;
        while flow.advance_round(1e9, flow.loss, &mut rng).0 == RoundOutcome::InProgress {
            rounds += 1;
            assert!(rounds < 100, "flow did not complete");
        }
        // Slow start doubles 10 → 64 (ssthresh), then additive increase; a
        // 1 MB transfer at these windows takes a handful of rounds.
        assert!(rounds <= 12, "took {rounds} rounds");
        assert_eq!(flow.delivered, flow.total);
    }

    #[test]
    fn budget_caps_window() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut flow = test_flow(10_000_000, 0.0);
        // 128 kB/s fair share, 100 ms RTT → 12.8 kB ≈ 8 packets per round.
        let (_, sent) = flow.advance_round(128_000.0 * 8.0, 0.0, &mut rng);
        assert_eq!(flow.delivered, 8 * MSS);
        assert_eq!(sent, 8 * MSS);
    }

    #[test]
    fn lossy_rounds_shrink_window() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut flow = test_flow(100_000_000, 0.9);
        for _ in 0..50 {
            flow.advance_round(1e9, 0.9, &mut rng);
        }
        assert!(flow.cwnd <= 4.0, "window stayed at {}", flow.cwnd);
        assert!(flow.cwnd >= MIN_CWND);
    }

    #[test]
    fn loss_limited_throughput_tracks_mathis() {
        // At p=5%, RTT=100ms, Mathis predicts ≈ MSS/RTT · sqrt(3/2p) ≈ 80 kB/s.
        let mut rng = StdRng::seed_from_u64(42);
        let mut flow = test_flow(u64::MAX / 2, 0.05);
        let rounds = 5_000;
        for _ in 0..rounds {
            flow.advance_round(1e12, 0.05, &mut rng);
        }
        let secs = rounds as f64 * flow.rtt.as_secs_f64();
        let goodput = flow.delivered as f64 / secs;
        assert!(
            (40_000.0..160_000.0).contains(&goodput),
            "goodput {goodput} B/s out of the loss-limited regime"
        );
    }

    #[test]
    fn flow_table_tracks_load() {
        let mut table = FlowTable::new(4);
        let f1 = table.insert(test_flow(100, 0.0));
        let f2 = table.insert(test_flow(100, 0.0));
        // The hub-to-node-1 flows cross link 0 downwards only.
        let dir = DirLinkId::new(LinkId(0), false);
        assert_eq!(table.load(dir), 2);
        assert_eq!(table.active_count(), 2);
        table.remove(f1).unwrap();
        assert_eq!(table.load(dir), 1);
        assert!(table.remove(f1).is_none());
        table.remove(f2).unwrap();
        assert_eq!(table.load(dir), 0);
    }

    #[test]
    fn flow_ids_are_unique_and_monotonic() {
        let mut table = FlowTable::new(4);
        let a = table.insert(test_flow(1, 0.0));
        let b = table.insert(test_flow(1, 0.0));
        table.remove(a).unwrap();
        let c = table.insert(test_flow(1, 0.0));
        assert!(a.raw() < b.raw() && b.raw() < c.raw());
    }

    #[test]
    fn flows_touching_finds_endpoints() {
        let mut table = FlowTable::new(4);
        let f = table.insert(test_flow(1, 0.0));
        assert_eq!(table.flows_touching(NodeId::from_index(0)), vec![f]);
        assert_eq!(table.flows_touching(NodeId::from_index(1)), vec![f]);
        assert!(table.flows_touching(NodeId::from_index(2)).is_empty());
        // `c`, inserted after `b`, reuses `f`'s older, lower slot and must
        // still list after `b`.
        let b = table.insert(test_flow(1, 0.0));
        table.remove(f).unwrap();
        let c = table.insert(test_flow(1, 0.0));
        assert!(c.slot() < b.slot());
        assert_eq!(table.flows_touching(NodeId::from_index(1)), vec![b, c]);
    }

    #[test]
    fn slab_never_reuses_ids_for_live_flows() {
        use std::collections::HashSet;
        let mut table = FlowTable::new(4);
        let mut live: HashSet<u64> = HashSet::new();
        let mut retired: HashSet<u64> = HashSet::new();
        let mut active: Vec<FlowId> = Vec::new();
        // Churn insertions and removals so slots recycle many times.
        for round in 0..64 {
            for _ in 0..3 {
                let id = table.insert(test_flow(1, 0.0));
                assert!(
                    !retired.contains(&id.raw()),
                    "retired id {id:?} was handed out again"
                );
                assert!(live.insert(id.raw()), "id {id:?} duplicates a live flow");
                active.push(id);
            }
            // Remove from the middle so the free list sees varied slots.
            let victim = active.remove(round % active.len());
            assert!(table.remove(victim).is_some());
            live.remove(&victim.raw());
            retired.insert(victim.raw());
        }
        assert_eq!(table.active_count(), active.len());
        for id in &retired {
            assert!(
                table.get(FlowId(*id)).is_none(),
                "stale id resolved to a flow"
            );
        }
        for id in &active {
            assert!(table.get(*id).is_some(), "live id failed to resolve");
        }
    }

    #[test]
    fn stale_id_misses_after_slot_reuse() {
        let mut table = FlowTable::new(4);
        let a = table.insert(test_flow(1, 0.0));
        table.remove(a).unwrap();
        // The replacement reuses slot 0 but carries a newer generation.
        let b = table.insert(test_flow(1, 0.0));
        assert_ne!(a.raw(), b.raw());
        assert!(
            table.get(a).is_none(),
            "stale id must not alias the new flow"
        );
        assert!(table.get_mut(a).is_none());
        assert!(table.remove(a).is_none());
        assert!(table.get(b).is_some());
        assert_eq!(table.active_count(), 1);
    }
}
