//! The simulator: event loop, node contexts, and the world state.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::NetError;
use crate::event::{EventQueue, Scheduled};
use crate::fault::{FaultPlane, InjectedFaults, MessageFate, MessageFaults};
use crate::fifo::FifoClamp;
use crate::fluid::{FluidSolver, FluidSolverStats, SolverFlow};
use crate::id::{DirLinkId, FlowId, NodeId};
use crate::link::LinkSpec;
use crate::node::{NodeBehavior, NodeEvent};
use crate::tcp::{
    Flow, FlowModel, FlowTable, LinkUsage, RoundOutcome, TcpConfig, HANDSHAKE_RTTS, INITIAL_CWND,
    INITIAL_SSTHRESH, LOSS_UTILIZATION_FLOOR, MAX_CWND, MIN_CWND, MSS, OVERLOAD_LOSS_COEFF,
    OVERLOAD_LOSS_MAX, OVERLOAD_PRESSURE_THRESHOLD, UTILIZATION_TAU_SECS,
};
use crate::time::{SimDuration, SimTime};
use crate::topology::Network;

/// Per-message framing overhead added to control messages (Ethernet + IP +
/// TCP headers).
const MESSAGE_OVERHEAD_BYTES: u64 = 66;

/// Loopback delay for a node messaging itself.
const LOOPBACK_DELAY: SimDuration = SimDuration::from_micros(1);

/// Cap on a control message's expected retransmission count, so a
/// pathological path still delivers.
const MAX_RETRANSMISSIONS: f64 = 64.0;

/// The retransmissions a reliable control message expects on a path that
/// loses a packet with probability `loss`: the mean `p / (1 - p)` of the
/// geometric number of failed tries, capped at [`MAX_RETRANSMISSIONS`].
fn expected_retransmissions(loss: f64) -> f64 {
    if loss <= 0.0 {
        return 0.0;
    }
    (loss / (1.0 - loss)).min(MAX_RETRANSMISSIONS)
}

/// Aggregate counters of everything the simulator moved: the simulator's
/// one report. A flow is booked where its receiver gets it, so a run
/// that drains its queue has `flows_started == flows_completed +
/// flows_failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Control-plane messages sent.
    pub messages_sent: u64,
    /// Bulk transfers started.
    pub flows_started: u64,
    /// Bulk transfers whose receiver got all bytes.
    pub flows_completed: u64,
    /// Bulk transfers that failed: an endpoint went offline mid-flow, or
    /// the receiver left before the last data arrived.
    pub flows_failed: u64,
    /// Payload bytes delivered to receivers (completed flows only).
    pub payload_bytes_delivered: u64,
    /// Wire bytes put on links by the TCP model (including loss and
    /// retransmission waste), summed over flows, not hops.
    pub wire_bytes_sent: u64,
}

pub(crate) struct World {
    now: SimTime,
    queue: EventQueue,
    net: Network,
    flows: FlowTable,
    usage: Vec<LinkUsage>,
    rng: StdRng,
    online: Vec<bool>,
    tcp: TcpConfig,
    stats: SimStats,
    /// Last scheduled delivery per (src, dst) while a later send could
    /// still be clamped behind it, to keep the control channel in order
    /// like a TCP connection would.
    msg_order: FifoClamp,
    /// Scratch for the receivers of a multicast that share one delivery
    /// instant.
    scratch_run: Vec<NodeId>,
    /// The targets the last multicast failed to reach, in send order.
    failed: Vec<NodeId>,
    /// Fluid model: the rate solver and the per-link, per-flow state it
    /// keeps between rebalances. Its pass-2 link rates double as the
    /// utilization source for [`Ctx::path_utilization`].
    fluid: FluidSolver,
    /// Injected message-fault plane, if any; `None` means a faulty
    /// multicast is delivered exactly as `send` would, with no extra draw.
    faults: Option<FaultPlane>,
    /// Counters of injected faults (drops, delays, outage windows).
    fault_stats: InjectedFaults,
    /// Failure notices owed to nodes an outage window took offline, with
    /// the instant each was due; delivered when the node is back online.
    held_notices: Vec<(NodeId, SimTime, NodeEvent)>,
}

/// Overload pressure one link puts on a flow crossing it, shared by both
/// flow models: when the *competing* flows cannot shrink their windows
/// below `MIN_CWND` without exceeding the link's BDP, the excess turns into
/// timeouts, modelled as extra loss. A lone flow never overloads itself
/// (its send budget already paces it), hence `load - 1`.
fn link_pressure(cap_bps: f64, load: u32, rtt_secs: f64) -> f64 {
    let competing = load.saturating_sub(1) as f64;
    let bdp_bytes = cap_bps / 8.0 * rtt_secs;
    competing * MIN_CWND * MSS as f64 / bdp_bytes
}

/// The loss a flow effectively sees, shared by both flow models: the
/// configured path loss shaped by utilization (it applies in full only when
/// the path is busy, see [`LOSS_UTILIZATION_FLOOR`]) combined
/// with the overload loss that pressure beyond the threshold turns into.
fn effective_loss(loss: f64, utilization: f64, pressure: f64) -> f64 {
    let floor = LOSS_UTILIZATION_FLOOR;
    let shaped = loss * (floor + (1.0 - floor) * utilization);
    let overload = (OVERLOAD_LOSS_COEFF * (pressure - OVERLOAD_PRESSURE_THRESHOLD).max(0.0))
        .min(OVERLOAD_LOSS_MAX);
    1.0 - (1.0 - shaped) * (1.0 - overload)
}

/// The fluid model's per-flow rate ceiling: the Mathis loss-limited rate
/// under the same effective loss the round model applies, bounded by the
/// receive-window limit. Returns `(ceiling_bps, eff_loss)`.
fn fluid_ceiling(rtt_secs: f64, loss: f64, utilization: f64, pressure: f64) -> (f64, f64) {
    let eff = effective_loss(loss, utilization, pressure);
    let mss_bps = MSS as f64 * 8.0 / rtt_secs;
    let window_bps = MAX_CWND * mss_bps;
    let mathis_bps = if eff > 1e-12 {
        mss_bps * (1.5 / eff).sqrt()
    } else {
        f64::INFINITY
    };
    (mathis_bps.min(window_bps), eff)
}

impl World {
    fn fail_flow(&mut self, id: FlowId, notify: &[NodeId]) {
        let fluid = self.tcp.flow_model == FlowModel::Fluid;
        if fluid {
            // Fold progress to now so the failure notice reports accurate
            // delivered bytes, then (after removal) re-solve rates.
            self.fluid_fold(id);
        }
        let Some(flow) = self.flows.remove(id) else {
            return;
        };
        if fluid {
            self.fluid.remove_flow(id, &flow.route());
            self.fluid_rebalance();
        }
        self.stats.flows_failed += 1;
        let notice_at = self.now + flow.rtt;
        for &node in notify {
            let peer = if node == flow.src { flow.dst } else { flow.src };
            let event = NodeEvent::TransferFailed {
                flow: id,
                peer,
                tag: flow.tag,
                delivered: flow.delivered,
            };
            if self.online[node.index()] {
                self.queue.push(
                    notice_at,
                    Scheduled::Node {
                        target: node,
                        event,
                    },
                );
            } else {
                self.held_notices.push((node, notice_at, event));
            }
        }
    }

    /// Takes a node offline: fails all its flows and stops event delivery
    /// to it. The counterparts are notified; so is the node itself when it
    /// `returns` (an outage window), once it is back online. Shared by
    /// [`Ctx::go_offline`] and scheduled outage windows.
    fn force_offline(&mut self, node: NodeId, returns: bool) {
        if !self.online[node.index()] {
            return;
        }
        self.online[node.index()] = false;
        // Failing one flow removes no other, so every listed id is live.
        for id in self.flows.flows_touching(node) {
            let f = self.flows.get(id).expect("a touching flow is live");
            let both = [if f.src == node { f.dst } else { f.src }, node];
            self.fail_flow(id, if returns { &both } else { &both[..1] });
        }
    }

    /// Applies a scheduled online-flag flip (fault-injected outage edges).
    /// An outage is a pause: the node comes back knowing which of its
    /// flows the outage failed.
    fn set_online(&mut self, node: NodeId, online: bool) {
        if node.index() >= self.online.len() || self.online[node.index()] == online {
            return;
        }
        if online {
            self.online[node.index()] = true;
            self.fault_stats.outages_ended += 1;
            let now = self.now;
            for (target, due, event) in self.held_notices.extract_if(.., |n| n.0 == node) {
                self.queue
                    .push(due.max(now), Scheduled::Node { target, event });
            }
        } else {
            self.fault_stats.outages_started += 1;
            self.force_offline(node, true);
        }
    }

    /// The highest recent utilization (estimated send rate over capacity)
    /// along a path.
    fn path_utilization(&self, path: &[DirLinkId]) -> f64 {
        let fluid = self.tcp.flow_model == FlowModel::Fluid;
        let mut util: f64 = 0.0;
        for dir in path {
            let cap = self.net.dir_spec(*dir).capacity_bps;
            let rate = if fluid {
                // Fluid mode keeps exact per-link allocated rates, so the
                // utilization is instantaneous rather than decay-averaged.
                self.fluid.link_rate(*dir)
            } else {
                self.usage[dir.index()].rate_bps_at(self.now, UTILIZATION_TAU_SECS)
            };
            util = util.max(rate / cap);
        }
        util
    }

    fn step_flow(&mut self, raw: u64) {
        if self.tcp.flow_model == FlowModel::Fluid {
            // Under the fluid model the first (and only) FlowRound event
            // marks the end of the handshake: the flow joins the solver.
            self.fluid_activate(raw);
            return;
        }
        let id = FlowId(raw);
        // A stale round event for a flow that failed.
        let Some(flow) = self.flows.get(id) else {
            return;
        };

        let now = self.now;
        let rtt_secs = flow.rtt.as_secs_f64();

        // One pass over the path computes everything the round needs:
        //
        // - Max–min fair share: the narrowest per-flow slice.
        // - Utilization, for the shaped-queue loss model (the configured
        //   loss applies in full only when the path is busy, see
        //   [`LOSS_UTILIZATION_FLOOR`]).
        // - Overload pressure, see [`link_pressure`].
        //
        // The decayed per-link rates (one per hop, at most two) are kept so
        // the usage update after the round reuses them instead of
        // re-evaluating the decay.
        let route = flow.route();
        let mut share_bps = f64::INFINITY;
        let mut utilization: f64 = 0.0;
        let mut pressure: f64 = 0.0;
        let mut rates = [0.0; 2];
        for (dir, slot) in route.iter().zip(&mut rates) {
            let cap = self.net.dir_spec(*dir).capacity_bps;
            let load = self.flows.load(*dir);
            share_bps = share_bps.min(cap / load.max(1) as f64);
            let rate = self.usage[dir.index()].rate_bps_at(now, UTILIZATION_TAU_SECS);
            *slot = rate;
            utilization = utilization.max(rate / cap);
            pressure = pressure.max(link_pressure(cap, load, rtt_secs));
        }
        let effective_loss = effective_loss(flow.loss, utilization.min(1.0), pressure);

        let flow = self.flows.get_mut(id).expect("flow vanished");
        let rtt = flow.rtt;
        let (outcome, sent_bytes) = flow.advance_round(share_bps, effective_loss, &mut self.rng);
        self.stats.wire_bytes_sent += sent_bytes;
        let added_bps = sent_bytes as f64 * 8.0 / UTILIZATION_TAU_SECS;
        for (dir, &rate) in route.iter().zip(&rates) {
            self.usage[dir.index()].set_rate(now, rate + added_bps);
        }
        match outcome {
            RoundOutcome::InProgress => {
                self.queue
                    .push(self.now + rtt, Scheduled::FlowRound { flow: raw });
            }
            RoundOutcome::Completed => {
                self.complete_flow(id);
            }
        }
    }

    /// A flow delivered its last byte at the sender: it leaves the table
    /// and both ends hear of it — the receiver sees the last data half an
    /// RTT after the sender finishes, the sender the final ack a full RTT
    /// after. It is counted when the receiver's notice is dispatched, not
    /// here.
    fn complete_flow(&mut self, id: FlowId) -> Flow {
        let flow = self
            .flows
            .remove(id)
            .expect("completing flow is in the table");
        let recv_at = self.now + flow.rtt / 2;
        let ack_at = self.now + flow.rtt;
        self.queue.push(
            recv_at,
            Scheduled::Node {
                target: flow.dst,
                event: NodeEvent::TransferComplete {
                    flow: id,
                    from: flow.src,
                    tag: flow.tag,
                    bytes: flow.total,
                    started: flow.started,
                },
            },
        );
        self.queue.push(
            ack_at,
            Scheduled::Node {
                target: flow.src,
                event: NodeEvent::UploadComplete {
                    flow: id,
                    to: flow.dst,
                    tag: flow.tag,
                },
            },
        );
        flow
    }

    /// Fluid model: a flow's handshake finished — join the rate solver.
    fn fluid_activate(&mut self, raw: u64) {
        let id = FlowId(raw);
        let now = self.now;
        // The flow may have failed before the handshake completed.
        let Some(f) = self.flows.get_mut(id) else {
            return;
        };
        debug_assert!(!f.fluid.active, "flow activated twice");
        f.fluid.active = true;
        f.fluid.rate_since = now;
        f.fluid.armed_at = SimTime::MAX;
        self.fluid
            .add_flow(id, &f.route(), f.rtt.as_secs_f64(), f.loss);
        self.fluid_rebalance();
    }

    /// Fluid model: integrates an active flow's progress up to now and
    /// brings the wire byte counter in line (goodput scaled by the
    /// effective loss it ran under, modelling retransmission waste). Folds are
    /// lazy: a flow is folded when its rate or effective loss changes, when
    /// it leaves, and at the end of a run — not on every rebalance.
    fn fluid_fold(&mut self, id: FlowId) {
        if let Some(f) = self.flows.get_mut(id) {
            fold_flow(f, self.now, &mut self.stats);
        }
    }

    /// Fluid model: a completion event popped. Only the one at the flow's
    /// `armed_at` is live (the flow may be gone or still handshaking, or an
    /// earlier arm superseded this event); a live pop ahead of `done_at` —
    /// the rate dropped since it was pushed — re-arms itself there, and one
    /// that is due completes the flow.
    fn fluid_done(&mut self, raw: u64) {
        let id = FlowId(raw);
        let now = self.now;
        let Some(f) = self.flows.get_mut(id) else {
            return;
        };
        if !f.fluid.active || f.fluid.armed_at != now {
            return;
        }
        if now < f.fluid.done_at {
            f.fluid.armed_at = f.fluid.done_at;
            self.queue
                .push(f.fluid.done_at, Scheduled::FlowDone { flow: raw });
            self.fluid.stats.flows_rescheduled += 1;
            return;
        }
        // The event time is the analytic completion instant; snap the
        // integrated progress to exactly done before the final fold so the
        // last few bits of float error cannot leave the flow short.
        f.fluid.delivered = f.total as f64;
        self.fluid_fold(id);
        let flow = self.complete_flow(id);
        self.fluid.remove_flow(id, &flow.route());
        self.fluid_rebalance();
    }

    /// Fluid model: brings the max–min fair rates in line with the flow set.
    ///
    /// Called on every flow-set change (activation, completion, failure,
    /// churn) and on capacity changes. Two solver passes: the first assumes
    /// saturated links when shaping loss (utilization 1), the second
    /// refines the ceilings with the utilization the first pass implies —
    /// mirroring the round model's utilization-shaped loss without its
    /// per-round feedback loop. The solver recomputes only what the links
    /// dirtied since the last call reach (see [`crate::fluid`]) and reports
    /// the flows whose rate or effective loss changed at all; of those, the
    /// ones whose rate changed materially get a new `done_at`, and a fresh
    /// [`Scheduled::FlowDone`] only when that is earlier than the one they
    /// have pending (a later finish is picked up when the pending event
    /// pops, see [`World::fluid_done`]). Every other flow keeps its rate,
    /// its unfolded progress and its completion instant.
    fn fluid_rebalance(&mut self) {
        let now = self.now;
        let (flows, net) = (&self.flows, &self.net);
        let ceiling = |flow: &SolverFlow, utilization: f64| {
            let mut pressure = 0.0_f64;
            for &l in flow.path() {
                let dir = DirLinkId(l);
                let cap = net.dir_spec(dir).capacity_bps;
                pressure = pressure.max(link_pressure(cap, flows.load(dir), flow.rtt_secs));
            }
            fluid_ceiling(flow.rtt_secs, flow.loss, utilization, pressure)
        };
        self.fluid.solve(&ceiling);
        #[cfg(debug_assertions)]
        self.fluid.assert_matches_full_solve(&ceiling);
        // Slot order, so that completions landing on the same microsecond
        // keep the order a whole-table sweep would have pushed them in.
        let resolved = std::mem::take(&mut self.fluid.changed);
        for &slot in &resolved {
            let (id, solved_bps, eff) = self.fluid.solved(slot);
            // Fold under the outgoing rate and loss before either moves.
            self.fluid_fold(id);
            let f = self.flows.get_mut(id).expect("rated flow is in the table");
            // Like the round model's one-packet-per-RTT minimum budget, a
            // flow never stalls entirely, even on an oversubscribed link.
            let rate_floor = MSS as f64 * 8.0 / f.rtt.as_secs_f64();
            let rate = solved_bps.max(rate_floor);
            f.fluid.eff_loss = eff;
            // Move the completion only on a material rate change.
            // Utilization-shaped ceilings wobble a little on every
            // rebalance; a flow that keeps its rate keeps its completion
            // instant, so the bound on the completion-time error is the
            // epsilon itself.
            const FLUID_RATE_EPS: f64 = 1e-3;
            let changed =
                (rate - f.fluid.rate_bps).abs() > rate.max(f.fluid.rate_bps) * FLUID_RATE_EPS;
            if changed {
                f.fluid.rate_bps = rate;
                let remaining = (f.total as f64 - f.fluid.delivered).max(0.0);
                f.fluid.done_at = now + SimDuration::from_secs_f64(remaining * 8.0 / rate);
                if f.fluid.done_at < f.fluid.armed_at {
                    f.fluid.armed_at = f.fluid.done_at;
                    self.queue
                        .push(f.fluid.done_at, Scheduled::FlowDone { flow: id.raw() });
                    self.fluid.stats.flows_rescheduled += 1;
                }
            }
        }
        self.fluid.changed = resolved;
    }
}

/// Integrates one fluid flow's progress up to `now`; see
/// [`World::fluid_fold`]. A no-op for flows that are not being rated.
fn fold_flow(f: &mut Flow, now: SimTime, stats: &mut SimStats) {
    if !f.fluid.active {
        return;
    }
    let dt = now.saturating_since(f.fluid.rate_since).as_secs_f64();
    if dt > 0.0 && f.fluid.rate_bps > 0.0 {
        f.fluid.delivered = (f.fluid.delivered + f.fluid.rate_bps * dt / 8.0).min(f.total as f64);
    }
    f.delivered = f.fluid.delivered as u64;
    f.fluid.rate_since = now;
    let eff = f.fluid.eff_loss.min(0.95);
    let wire_total = (f.fluid.delivered / (1.0 - eff)) as u64;
    let delta = wire_total.saturating_sub(f.fluid.wire_emitted);
    if delta > 0 {
        f.fluid.wire_emitted = wire_total;
        stats.wire_bytes_sent += delta;
    }
}

/// The handle through which a [`NodeBehavior`] acts on the world.
///
/// A context is only valid for the duration of one callback.
pub struct Ctx<'a> {
    pub(crate) world: &'a mut World,
    pub(crate) me: NodeId,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("me", &self.me)
            .field("now", &self.world.now)
            .finish()
    }
}

impl Ctx<'_> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The node this context belongs to.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Whether a node is currently online.
    pub fn is_online(&self, node: NodeId) -> bool {
        node.index() < self.world.online.len() && self.world.online[node.index()]
    }

    /// The simulator's seeded random source. All randomness in a behaviour
    /// should come from here to keep runs reproducible. It is the stream
    /// the round model's loss draws come from too; sending a message draws
    /// nothing from it.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.world.rng
    }

    /// Sends a small control-plane message to `to`.
    ///
    /// Delivery is reliable (loss is modelled as retransmission delay) and
    /// per-destination FIFO, like messages on a persistent TCP connection.
    /// The delay is path latency plus serialisation plus the expected
    /// retransmission penalty: one round trip per expected retransmission,
    /// `2 · latency · min(p / (1 - p), 64)` at path loss rate `p`. Nothing
    /// is drawn from the random stream, so adding or removing a message
    /// leaves every other draw of the run where it was.
    ///
    /// # Errors
    ///
    /// [`NetError::NodeOffline`] when the destination has gone offline
    /// (models a connection reset) and [`NetError::UnknownNode`] for an
    /// out-of-range id.
    pub fn send(&mut self, to: NodeId, payload: Bytes) -> Result<(), NetError> {
        if let Some(at) = self.book_message(to, payload.len(), false, &mut None)? {
            let from = self.me;
            let event = NodeEvent::Message { from, payload };
            self.world
                .queue
                .push(at, Scheduled::Node { target: to, event });
        }
        Ok(())
    }

    /// Sends `payload` to each of `targets` in order, exactly as one
    /// [`Ctx::send`] per target would: the same checks, delays, per-pair
    /// FIFO order and counters, so a run is bit-identical either way. It
    /// is cheaper: the path delay is computed once per distinct
    /// receiver-link spec, and receivers that share a delivery instant
    /// share one queue entry.
    ///
    /// When `faulty`, each message is subject to the injected message-fault
    /// plane (see [`Simulator::set_message_faults`]): it may be silently
    /// dropped (modelling loss the application cannot observe) or delivered
    /// with extra delay. The plane rolls on its own stream, never the
    /// simulator's, and only after the destination checks, so an offline
    /// destination is still reported. With no plane installed a faulty
    /// multicast is exactly a plain one: same delay, no draw. Applications
    /// send their *droppable* traffic classes (periodic announcements a
    /// later one supersedes) this way and keep the rest (handshakes,
    /// requests, goodbyes) reliable.
    ///
    /// Returns how many sends succeeded (a message the fault plane dropped
    /// counts: its sender cannot tell) and, in order, the targets whose
    /// send would have returned an error. `targets` is walked once, as the
    /// messages go out; the failed list is the simulator's, reused by the
    /// next multicast.
    pub fn multicast(
        &mut self,
        targets: impl IntoIterator<Item = NodeId>,
        payload: &Bytes,
        faulty: bool,
    ) -> (u64, &[NodeId]) {
        // The receivers booked so far at `run_at`: their keys would be
        // consecutive, so they go out as one entry. A receiver whose
        // instant differs (the FIFO clamp or an injected delay moved it,
        // or its link is another) closes the run and opens the next.
        let mut run = std::mem::take(&mut self.world.scratch_run);
        let mut failed = std::mem::take(&mut self.world.failed);
        failed.clear();
        let mut run_at = SimTime::ZERO;
        let mut memo = None;
        let mut sent = 0;
        for to in targets {
            let Ok(booked) = self.book_message(to, payload.len(), faulty, &mut memo) else {
                failed.push(to);
                continue;
            };
            sent += 1;
            let Some(at) = booked else { continue };
            if at != run_at && !run.is_empty() {
                self.world
                    .queue
                    .push_message(run_at, self.me, payload, &run);
                run.clear();
            }
            run_at = at;
            run.push(to);
        }
        if !run.is_empty() {
            self.world
                .queue
                .push_message(run_at, self.me, payload, &run);
            run.clear();
        }
        self.world.scratch_run = run;
        self.world.failed = failed;
        (sent, &self.world.failed)
    }

    /// The one per-receiver path of every control message: books a
    /// message of `len` payload bytes to `to` and returns its delivery
    /// instant, or `None` when the fault plane dropped it. `memo` keeps the
    /// last path delay and its floor across one multicast's receivers:
    /// from one sender, receivers whose down links have equal specs have
    /// equal paths.
    fn book_message(
        &mut self,
        to: NodeId,
        len: usize,
        faulty: bool,
        memo: &mut Option<(Option<LinkSpec>, SimDuration, SimDuration)>,
    ) -> Result<Option<SimTime>, NetError> {
        let w = &mut *self.world;
        if to.index() >= w.online.len() {
            return Err(NetError::UnknownNode);
        }
        if !w.online[to.index()] {
            return Err(NetError::NodeOffline(to));
        }
        let mut extra = SimDuration::ZERO;
        if faulty {
            if let Some(plane) = &mut w.faults {
                match plane.roll() {
                    MessageFate::Deliver => {}
                    MessageFate::Drop => {
                        // The wire ate it; the sender never knows.
                        w.stats.messages_sent += 1;
                        w.fault_stats.messages_dropped += 1;
                        return Ok(None);
                    }
                    MessageFate::Delay(d) => {
                        w.fault_stats.messages_delayed += 1;
                        extra = d;
                    }
                }
            }
        }
        // `floor` is the least delay any message on the pair can have: the
        // path delay without its transmission time, which alone changes
        // during a run (the FIFO clamp's entries expire by it).
        let (delay, floor) = if to == self.me {
            (LOOPBACK_DELAY, LOOPBACK_DELAY)
        } else {
            let down = w.net.down_spec(to).copied();
            match *memo {
                Some((spec, delay, floor)) if spec == down => (delay, floor),
                _ => {
                    let route = w.net.route(self.me, to)?;
                    let props = w.net.path_properties(&route);
                    let wire_bytes = len as u64 + MESSAGE_OVERHEAD_BYTES;
                    let tx = SimDuration::from_secs_f64(
                        wire_bytes as f64 * 8.0 / props.min_capacity_bps,
                    );
                    let retransmissions =
                        (props.latency * 2).mul_f64(expected_retransmissions(props.loss));
                    let delay = props.latency + tx + retransmissions;
                    let floor = props.latency + retransmissions;
                    *memo = Some((down, delay, floor));
                    (delay, floor)
                }
            }
        };
        debug_assert!(floor <= delay, "a path delay below its floor");
        // Injected extra delay lands before the FIFO clamp: a delayed
        // message still cannot overtake or be overtaken on its connection.
        let deliver_at = w.msg_order.book(
            w.now,
            self.me.index(),
            to.index(),
            w.now + delay + extra,
            floor,
        );
        w.stats.messages_sent += 1;
        Ok(Some(deliver_at))
    }

    /// Starts a bulk TCP transfer of `bytes` payload bytes from this node to
    /// `to`. The receiver gets [`NodeEvent::TransferComplete`] when all bytes
    /// have arrived; this node gets [`NodeEvent::UploadComplete`].
    ///
    /// `tag` is an opaque application value echoed in the completion events
    /// (the swarm uses it for segment indices).
    ///
    /// # Errors
    ///
    /// [`NetError::EmptyTransfer`] for zero-byte transfers,
    /// [`NetError::NodeOffline`] when the destination is offline,
    /// [`NetError::UnknownNode`] for an out-of-range id and
    /// [`NetError::NoRoute`] for a transfer to oneself.
    pub fn start_transfer(&mut self, to: NodeId, bytes: u64, tag: u64) -> Result<FlowId, NetError> {
        self.transfer_inner(to, bytes, tag, false)
    }

    /// Like [`Ctx::start_transfer`], but over an already-established
    /// (kept-alive) connection: the three-way handshake is skipped and data
    /// starts flowing after half an RTT. The congestion window still starts
    /// fresh (slow-start restart after idle).
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::start_transfer`].
    pub fn start_transfer_warm(
        &mut self,
        to: NodeId,
        bytes: u64,
        tag: u64,
    ) -> Result<FlowId, NetError> {
        self.transfer_inner(to, bytes, tag, true)
    }

    fn transfer_inner(
        &mut self,
        to: NodeId,
        bytes: u64,
        tag: u64,
        warm: bool,
    ) -> Result<FlowId, NetError> {
        let w = &mut *self.world;
        if bytes == 0 {
            return Err(NetError::EmptyTransfer);
        }
        if to.index() >= w.online.len() {
            return Err(NetError::UnknownNode);
        }
        if !w.online[to.index()] {
            return Err(NetError::NodeOffline(to));
        }
        if to == self.me {
            return Err(NetError::NoRoute {
                src: self.me,
                dst: to,
            });
        }
        let route = w.net.route(self.me, to)?;
        let props = w.net.path_properties(&route);
        let rtt = props.latency * 2;
        let flow = Flow {
            id: FlowId(0), // assigned by the table
            stamp: 0,      // likewise
            src: self.me,
            dst: to,
            rtt,
            loss: props.loss,
            total: bytes,
            delivered: 0,
            cwnd: INITIAL_CWND,
            ssthresh: INITIAL_SSTHRESH,
            tag,
            started: w.now,
            fluid: Default::default(),
        };
        if w.tcp.flow_model == FlowModel::Fluid {
            // The pressure term of the flows on these links reads the load.
            w.fluid.touch(&route);
        }
        let id = w.flows.insert(flow);
        w.stats.flows_started += 1;
        // First data round: after the three-way handshake for a fresh
        // connection, after half an RTT (send → first data back) when the
        // connection is kept alive.
        let setup = if warm { 0.5 } else { HANDSHAKE_RTTS };
        let first_round = w.now + rtt.mul_f64(setup);
        w.queue
            .push(first_round, Scheduled::FlowRound { flow: id.raw() });
        Ok(id)
    }

    /// Arranges for [`NodeEvent::Timer`] with `token` to be delivered to this
    /// node after `after`.
    pub fn set_timer(&mut self, after: SimDuration, token: u64) {
        let at = self.world.now + after;
        self.world.queue.push(
            at,
            Scheduled::Node {
                target: self.me,
                event: NodeEvent::Timer { token },
            },
        );
    }

    /// Takes this node offline: all its flows fail (counterparts are
    /// notified), and no further events are delivered to it. Models a peer
    /// leaving the swarm.
    pub fn go_offline(&mut self) {
        let me = self.me;
        self.world.force_offline(me, false);
    }

    /// Recent utilization of the path from this node to `to`: the busiest
    /// link's estimated send rate over its capacity, in `[0, ~1]`. Returns
    /// 0 for this node itself (an empty route) and for an unknown one. Lets
    /// applications make load-aware choices (e.g. only push a duplicate
    /// upload when the uplink has spare capacity).
    pub fn path_utilization(&self, to: NodeId) -> f64 {
        match self.world.net.route(self.me, to) {
            Ok(route) => self.world.path_utilization(&route),
            Err(_) => 0.0,
        }
    }
}

/// The discrete-event simulator.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use splicecast_netsim::{
///     star, Ctx, LinkSpec, NodeBehavior, NodeEvent, NullBehavior, SimDuration, SimTime, Simulator,
/// };
///
/// struct Pinger { to: splicecast_netsim::NodeId }
/// struct Ponger { got: u32 }
///
/// impl NodeBehavior for Pinger {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         ctx.send(self.to, Bytes::from_static(b"ping")).unwrap();
///     }
///     fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
/// }
/// impl NodeBehavior for Ponger {
///     fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: NodeEvent) {
///         if let NodeEvent::Message { .. } = event {
///             self.got += 1;
///         }
///     }
/// }
///
/// let star = star(&[LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(25), 0.0); 2]);
/// let mut sim = Simulator::new(star.network, 42);
/// sim.add_node(Box::new(NullBehavior)); // the hub
/// sim.add_node(Box::new(Pinger { to: star.leaves[1] }));
/// sim.add_node(Box::new(Ponger { got: 0 }));
/// sim.run_until_idle(SimTime::from_secs_f64(10.0));
/// ```
pub struct Simulator {
    world: World,
    nodes: Vec<Box<dyn NodeBehavior>>,
    started: bool,
}

impl Simulator {
    /// Creates a simulator over `network`, with all randomness derived from
    /// `seed`.
    pub fn new(network: Network, seed: u64) -> Self {
        let node_count = network.node_count();
        let dir_links = network.link_count() * 2;
        let fluid = FluidSolver::new(
            (0..dir_links).map(|l| network.dir_spec(DirLinkId(l as u32)).capacity_bps),
        );
        Simulator {
            world: World {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                net: network,
                flows: FlowTable::new(dir_links),
                usage: vec![LinkUsage::default(); dir_links],
                rng: StdRng::seed_from_u64(seed),
                online: vec![true; node_count],
                tcp: TcpConfig::default(),
                stats: SimStats::default(),
                msg_order: FifoClamp::new(),
                scratch_run: Vec::new(),
                failed: Vec::new(),
                fluid,
                faults: None,
                fault_stats: InjectedFaults::default(),
                held_notices: Vec::new(),
            },
            nodes: Vec::new(),
            started: false,
        }
    }

    /// Selects the flow model. Must be called before `run`.
    pub fn set_tcp_config(&mut self, cfg: TcpConfig) {
        self.world.tcp = cfg;
    }

    /// Registers the behaviour for the next node id: the hub first, then
    /// the leaves in order.
    ///
    /// # Panics
    ///
    /// Panics if more behaviours are added than the network has nodes.
    pub fn add_node(&mut self, behavior: Box<dyn NodeBehavior>) -> NodeId {
        assert!(
            self.nodes.len() < self.world.net.node_count(),
            "more behaviors than network nodes"
        );
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(behavior);
        id
    }

    /// Schedules a capacity change of one link direction at an absolute time
    /// (bandwidth modulation, for variable-bandwidth experiments).
    pub fn schedule_capacity(&mut self, at: SimTime, dir: DirLinkId, capacity_bps: f64) {
        self.world
            .queue
            .push(at, Scheduled::Capacity { dir, capacity_bps });
    }

    /// Installs the injected message-fault plane (see [`Ctx::multicast`]).
    /// A config with every knob at zero installs nothing, so zero-fault runs
    /// stay bit-identical to fault-free ones. Must be called before `run`.
    pub fn set_message_faults(&mut self, cfg: MessageFaults) {
        self.world.faults = cfg.is_active().then(|| FaultPlane::new(cfg));
    }

    /// Schedules `node` to be offline for the window `[from, until)`: at
    /// `from` its flows fail and event delivery stops (exactly like
    /// [`Ctx::go_offline`]); at `until` it starts receiving events again,
    /// among them a [`NodeEvent::TransferFailed`] for each flow the outage
    /// failed. Models infrastructure outages (e.g. the CDN blinking).
    ///
    /// # Panics
    ///
    /// Panics when the window is empty.
    pub fn schedule_offline_window(&mut self, node: NodeId, from: SimTime, until: SimTime) {
        assert!(from < until, "offline window must have positive length");
        self.world.queue.push(
            from,
            Scheduled::SetOnline {
                node,
                online: false,
            },
        );
        self.world
            .queue
            .push(until, Scheduled::SetOnline { node, online: true });
    }

    /// Counters of injected faults so far (message drops/delays, outage
    /// window edges).
    pub fn fault_stats(&self) -> InjectedFaults {
        self.world.fault_stats
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Number of currently active flows.
    pub fn active_flow_count(&self) -> usize {
        self.world.flows.active_count()
    }

    /// Aggregate traffic counters for the whole run so far.
    pub fn stats(&self) -> SimStats {
        self.world.stats
    }

    /// Work counters of the fluid rate solver (all zero under the round
    /// model): how local the re-solves were.
    pub fn fluid_stats(&self) -> FluidSolverStats {
        self.world.fluid.stats
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        assert_eq!(
            self.nodes.len(),
            self.world.net.node_count(),
            "every network node needs a behavior before running"
        );
        self.started = true;
        for (index, node) in self.nodes.iter_mut().enumerate() {
            node.on_start(&mut Ctx {
                world: &mut self.world,
                me: NodeId::from_index(index),
            });
        }
    }

    fn dispatch(&mut self, target: NodeId, event: NodeEvent) {
        let online = self.world.online[target.index()];
        if let NodeEvent::TransferComplete { bytes, .. } = event {
            // A flow is booked where its receiver gets it: completed, with
            // its payload, when the receiver is online to take the last
            // data; failed when it left while that data was in flight.
            let stats = &mut self.world.stats;
            if online {
                stats.flows_completed += 1;
                stats.payload_bytes_delivered += bytes;
            } else {
                stats.flows_failed += 1;
            }
        }
        if !online {
            return;
        }
        self.nodes[target.index()].on_event(
            &mut Ctx {
                world: &mut self.world,
                me: target,
            },
            event,
        );
    }

    /// Lends the control message `payload` from `from` to `target`, if it
    /// is online.
    fn deliver(&mut self, target: NodeId, from: NodeId, payload: &Bytes) {
        if !self.world.online[target.index()] {
            return;
        }
        self.nodes[target.index()].on_message(
            &mut Ctx {
                world: &mut self.world,
                me: target,
            },
            from,
            payload,
        );
    }

    /// Runs the simulation until the event queue drains or the next event
    /// lies beyond `deadline`, then performs end-of-run accounting
    /// ([`NodeBehavior::on_sim_end`]). Returns the final simulated time.
    pub fn run_until_idle(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        while let Some(next) = self.world.queue.next_time() {
            if next > deadline {
                self.world.now = deadline;
                break;
            }
            let (time, what) = self.world.queue.pop().expect("queue peeked non-empty");
            debug_assert!(time >= self.world.now, "time ran backwards");
            self.world.now = time;
            match what {
                Scheduled::Node {
                    target,
                    event: NodeEvent::Message { from, payload },
                } => self.deliver(target, from, &payload),
                Scheduled::Node { target, event } => self.dispatch(target, event),
                Scheduled::Multicast {
                    from,
                    payload,
                    members,
                } => {
                    let list = self.world.queue.take_members(members);
                    for &target in &list {
                        self.deliver(target, from, &payload);
                    }
                    self.world.queue.recycle_members(members, list);
                }
                Scheduled::FlowRound { flow } => self.world.step_flow(flow),
                Scheduled::FlowDone { flow } => self.world.fluid_done(flow),
                Scheduled::Capacity { dir, capacity_bps } => {
                    self.world.net.set_capacity(dir, capacity_bps);
                    if self.world.tcp.flow_model == FlowModel::Fluid {
                        self.world.fluid.set_capacity(dir, capacity_bps);
                        self.world.fluid_rebalance();
                    }
                }
                Scheduled::SetOnline { node, online } => self.world.set_online(node, online),
            }
        }
        // Folds are lazy, so flows still running at the deadline have
        // progress and wire bytes outstanding: credit them before the
        // end-of-run accounting reads the counters.
        let w = &mut self.world;
        for f in w.flows.iter_mut() {
            fold_flow(f, w.now, &mut w.stats);
        }
        self.finish();
        self.world.now
    }

    fn finish(&mut self) {
        for (index, node) in self.nodes.iter_mut().enumerate() {
            if !self.world.online[index] {
                continue;
            }
            node.on_sim_end(&mut Ctx {
                world: &mut self.world,
                me: NodeId::from_index(index),
            });
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.world.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.world.queue.len())
            .field("active_flows", &self.world.flows.active_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::star;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Shared log the test behaviours write into.
    type Log = Rc<RefCell<Vec<String>>>;

    struct Echo {
        log: Log,
    }
    impl NodeBehavior for Echo {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            if let NodeEvent::Message { from, payload } = event {
                self.log.borrow_mut().push(format!(
                    "{} echo {} bytes at {}",
                    ctx.me(),
                    payload.len(),
                    ctx.now()
                ));
                let _ = ctx.send(from, payload);
            }
        }
    }

    struct Client {
        log: Log,
        peer: NodeId,
    }
    impl NodeBehavior for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.peer, Bytes::from_static(b"hello")).unwrap();
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            if let NodeEvent::Message { .. } = event {
                self.log
                    .borrow_mut()
                    .push(format!("reply at {}", ctx.now()));
            }
        }
    }

    fn two_leaf_star(loss: f64) -> crate::topology::Star {
        star(&[LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(25), loss); 2])
    }

    #[test]
    fn request_reply_round_trip() {
        let log: Log = Rc::default();
        let s = two_leaf_star(0.0);
        let mut sim = Simulator::new(s.network, 1);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Client {
            log: log.clone(),
            peer: s.leaves[1],
        }));
        sim.add_node(Box::new(Echo { log: log.clone() }));
        sim.run_until_idle(SimTime::from_secs_f64(5.0));
        let entries = log.borrow();
        assert_eq!(entries.len(), 2, "{entries:?}");
        assert!(entries[0].contains("echo 5 bytes"));
        // One-way latency 50ms + small serialisation; reply doubles it.
        assert!(entries[1].starts_with("reply at 0.10"), "{}", entries[1]);
    }

    struct Sender {
        to: NodeId,
        bytes: u64,
    }
    impl NodeBehavior for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.start_transfer(self.to, self.bytes, 7).unwrap();
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
    }

    #[derive(Default)]
    struct Receiver {
        done: Rc<RefCell<Option<(u64, f64)>>>,
    }
    impl NodeBehavior for Receiver {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            if let NodeEvent::TransferComplete { bytes, tag, .. } = event {
                assert_eq!(tag, 7);
                *self.done.borrow_mut() = Some((bytes, ctx.now().as_secs_f64()));
            }
        }
    }

    #[test]
    fn bulk_transfer_delivers_all_bytes() {
        let s = two_leaf_star(0.0);
        let done = Rc::new(RefCell::new(None));
        let mut sim = Simulator::new(s.network, 1);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Sender {
            to: s.leaves[1],
            bytes: 500_000,
        }));
        sim.add_node(Box::new(Receiver { done: done.clone() }));
        sim.run_until_idle(SimTime::from_secs_f64(60.0));
        let (bytes, at) = done.borrow().expect("transfer should complete");
        assert_eq!(bytes, 500_000);
        // 500 kB at a 125 kB/s bottleneck is at least 4 seconds.
        assert!(at >= 4.0, "completed suspiciously fast at {at}");
        assert!(at < 20.0, "completed suspiciously slow at {at}");
        assert_eq!(sim.active_flow_count(), 0);
    }

    #[test]
    fn transfer_to_offline_node_errors() {
        struct Quitter;
        impl NodeBehavior for Quitter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.go_offline();
            }
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
        }
        struct LateSender {
            to: NodeId,
            saw_err: Rc<RefCell<bool>>,
        }
        impl NodeBehavior for LateSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::Timer { .. } = event {
                    let err = ctx.start_transfer(self.to, 100, 0).unwrap_err();
                    assert!(matches!(err, NetError::NodeOffline(_)));
                    *self.saw_err.borrow_mut() = true;
                }
            }
        }
        let s = two_leaf_star(0.0);
        let saw = Rc::new(RefCell::new(false));
        let mut sim = Simulator::new(s.network, 1);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(LateSender {
            to: s.leaves[1],
            saw_err: saw.clone(),
        }));
        sim.add_node(Box::new(Quitter));
        sim.run_until_idle(SimTime::from_secs_f64(5.0));
        assert!(*saw.borrow());
    }

    #[test]
    fn going_offline_fails_inflight_transfers() {
        struct FlakySender {
            to: NodeId,
        }
        impl NodeBehavior for FlakySender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.start_transfer(self.to, 10_000_000, 0).unwrap();
                ctx.set_timer(SimDuration::from_secs(2), 0);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::Timer { .. } = event {
                    ctx.go_offline();
                }
            }
        }
        #[derive(Default)]
        struct FailWatcher {
            failed: Rc<RefCell<Option<u64>>>,
        }
        impl NodeBehavior for FailWatcher {
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::TransferFailed { delivered, .. } = event {
                    *self.failed.borrow_mut() = Some(delivered);
                }
            }
        }
        let s = two_leaf_star(0.0);
        let failed = Rc::new(RefCell::new(None));
        let mut sim = Simulator::new(s.network, 1);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(FlakySender { to: s.leaves[1] }));
        sim.add_node(Box::new(FailWatcher {
            failed: failed.clone(),
        }));
        sim.run_until_idle(SimTime::from_secs_f64(30.0));
        let delivered = failed.borrow().expect("receiver should see the failure");
        assert!(
            delivered > 0,
            "some bytes should have flowed before the failure"
        );
        assert!(delivered < 10_000_000);
        assert_eq!(sim.active_flow_count(), 0);
    }

    /// Per-pair FIFO across many interleaved pairs, under path loss
    /// (retransmission delays) and the fault plane's injected delays:
    /// every leaf sends numbered messages to every other leaf, round-robin
    /// over the destinations, and each receiver sees each sender's numbers
    /// in order. Once the queue drains, no clamp entry is live: the table
    /// holds only what is in flight.
    #[test]
    fn messages_between_a_pair_arrive_in_order() {
        const LEAVES: usize = 6;
        const PER_PAIR: u8 = 12;
        struct Chatter {
            peers: Vec<NodeId>,
            /// Last number seen from each sender, by node index.
            last: Vec<Option<u8>>,
            delivered: Rc<RefCell<usize>>,
        }
        impl NodeBehavior for Chatter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for i in 0..PER_PAIR {
                    for &to in &self.peers {
                        let (sent, _) = ctx.multicast([to], &Bytes::copy_from_slice(&[i]), true);
                        assert_eq!(sent, 1);
                    }
                }
            }
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::Message { from, payload } = event {
                    let slot = &mut self.last[from.index()];
                    let expected = slot.map_or(0, |n| n + 1);
                    assert_eq!(payload[0], expected, "out of order from {from}");
                    *slot = Some(payload[0]);
                    *self.delivered.borrow_mut() += 1;
                }
            }
        }
        // Heavy loss to force retransmission delays.
        let spec = LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(25), 0.3);
        let s = star(&[spec; LEAVES]);
        let delivered = Rc::new(RefCell::new(0));
        let mut sim = Simulator::new(s.network, 99);
        sim.set_message_faults(MessageFaults {
            seed: 7,
            loss: 0.0,
            delay_prob: 0.5,
            delay_max: SimDuration::from_millis(400),
        });
        sim.add_node(Box::new(crate::node::NullBehavior));
        let (_silent, talkers) = s.leaves.split_last().unwrap();
        for &me in talkers {
            sim.add_node(Box::new(Chatter {
                peers: s.leaves.iter().copied().filter(|&n| n != me).collect(),
                last: vec![None; LEAVES + 1],
                delivered: delivered.clone(),
            }));
        }
        sim.add_node(Box::new(Chatter {
            peers: Vec::new(),
            last: vec![None; LEAVES + 1],
            delivered: delivered.clone(),
        }));
        sim.run_until_idle(SimTime::from_secs_f64(120.0));
        assert_eq!(
            *delivered.borrow(),
            (LEAVES - 1) * (LEAVES - 1) * PER_PAIR as usize
        );
        assert!(sim.fault_stats().messages_delayed > 0, "delays were on");
        assert_eq!(sim.world.msg_order.live(sim.world.now), 0);
    }

    /// The FIFO clamp across 2³² µs (4 295 s), where `u32` offsets once
    /// rebased: bursts of different lengths from one sender to two
    /// receivers, sent before, across and after that instant, arrive in
    /// order at exactly the instants of a `u64` reference per connection,
    /// `max(sent + delay, last + 1 µs)`. A burst to one receiver crosses
    /// 2³² µs while a clamped chain to the other is in flight, and the
    /// other's next burst must queue behind that chain.
    #[test]
    fn fifo_clamp_holds_across_the_offset_rebase() {
        const WRAP: u64 = 1 << 32;
        /// (send instant in µs, burst length, receiver); the first burst
        /// measures the path delay (the same to both) on an idle
        /// connection.
        const BURSTS: [(u64, u32, usize); 9] = [
            (1_000_000, 1, 0),
            (WRAP - 60_000, 9_000, 1),
            (WRAP - 55_000, 6_000, 0),
            (WRAP - 54_000, 5, 1),
            (WRAP - 45_000, 2, 0),
            (WRAP - 40_000, 300, 1),
            (WRAP - 1, 7, 0),
            (WRAP + 100_000, 1, 1),
            (WRAP + 100_010, 5_000, 0),
        ];
        let arrivals: [ArrivalLog; 2] = Default::default();
        let spec = LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(25), 0.0);
        let s = star(&[spec; 3]);
        let mut sim = Simulator::new(s.network, 3);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Burster {
            bursts: &BURSTS,
            to: vec![s.leaves[1], s.leaves[2]],
            next: 0,
        }));
        for log in &arrivals {
            sim.add_node(Box::new(Numbered(log.clone())));
        }
        sim.run_until_idle(SimTime::from_micros(2 * WRAP));
        let delay = arrivals[0].borrow()[0].1 - BURSTS[0].0;
        let mut last = [0; 2];
        let mut expected: [Vec<(u32, u64)>; 2] = Default::default();
        let mut seq = 0;
        for (sent, len, to) in BURSTS {
            for _ in 0..len {
                last[to] = (sent + delay).max(last[to] + 1);
                expected[to].push((seq, last[to]));
                seq += 1;
            }
        }
        assert_eq!(*arrivals[0].borrow(), expected[0]);
        assert_eq!(*arrivals[1].borrow(), expected[1]);
        // The first receiver's second burst crosses 2³² µs while the chain
        // to the second is in flight, and the second's next burst is
        // clamped behind that chain.
        let crossing = &expected[0][1..6_001];
        assert!(crossing[0].1 < WRAP && crossing[5_999].1 > WRAP);
        let chain_end = expected[1][8_999].1;
        assert!(chain_end > BURSTS[2].0 && chain_end < WRAP);
        assert_eq!(expected[1][9_000].1, chain_end + 1);
        assert!(expected[1][9_000].1 > BURSTS[3].0 + delay);
    }

    /// Arrival log of a [`Numbered`] node: (sequence number, µs).
    type ArrivalLog = Rc<RefCell<Vec<(u32, u64)>>>;

    /// Logs the `u32` sequence number each message carries and when it
    /// arrived.
    struct Numbered(ArrivalLog);

    impl NodeBehavior for Numbered {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            if let NodeEvent::Message { payload, .. } = event {
                let seq = u32::from_le_bytes(payload[..].try_into().unwrap());
                self.0.borrow_mut().push((seq, ctx.now().as_micros()));
            }
        }
    }

    /// Sends numbered bursts, `(send instant in µs, burst length,
    /// receiver)`, one timer each.
    struct Burster {
        bursts: &'static [(u64, u32, usize)],
        to: Vec<NodeId>,
        next: u32,
    }

    impl NodeBehavior for Burster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (token, &(at, ..)) in self.bursts.iter().enumerate() {
                ctx.set_timer(SimDuration::from_micros(at), token as u64);
            }
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            if let NodeEvent::Timer { token } = event {
                let (_, len, to) = self.bursts[token as usize];
                for _ in 0..len {
                    let seq = Bytes::copy_from_slice(&self.next.to_le_bytes());
                    ctx.send(self.to[to], seq).unwrap();
                    self.next += 1;
                }
            }
        }
    }

    /// A message sent at t = 0 whose path delay rounds to 0 µs arrives at
    /// 1 µs: a pair that never sent reads as delivered at
    /// [`SimTime::ZERO`], and a delivery comes after the pair's last. A
    /// message sent later on the pair arrives unclamped.
    #[test]
    fn a_zero_delay_send_at_time_zero_arrives_at_one_microsecond() {
        const BURSTS: [(u64, u32, usize); 2] = [(0, 2, 0), (10, 1, 0)];
        // No latency, no loss, and a link so fast that a message's
        // transmission rounds to 0 µs.
        let spec = LinkSpec::new(1e12, SimDuration::ZERO, 0.0);
        let s = star(&[spec; 2]);
        let log = ArrivalLog::default();
        let mut sim = Simulator::new(s.network, 1);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Burster {
            bursts: &BURSTS,
            to: vec![s.leaves[1]],
            next: 0,
        }));
        sim.add_node(Box::new(Numbered(log.clone())));
        sim.run_until_idle(SimTime::from_secs_f64(1.0));
        assert_eq!(*log.borrow(), [(0, 1), (1, 2), (2, 10)]);
    }

    /// A capacity change moves the transmission time of what is sent after
    /// it, never the clamp's floor: bursts sent on a slow up link, after it
    /// sped up and after it slowed again arrive at the instants of the
    /// dense per-pair model. The fast burst queues behind the slow one,
    /// which a floor holding the slow transmission time would have let it
    /// overtake.
    #[test]
    fn fifo_clamp_holds_across_capacity_changes() {
        const SLOW: f64 = 8_000.0;
        const FAST: f64 = 8_000_000.0;
        const MS: u64 = 1_000;
        const BURSTS: [(u64, u32, usize); 6] = [
            (1_000 * MS, 50, 0),
            (1_000 * MS, 3, 1),
            (1_020 * MS, 10, 0),
            (1_020 * MS, 2, 1),
            (1_040 * MS, 5, 0),
            (1_200 * MS, 1, 0),
        ];
        let latency = SimDuration::from_millis(10);
        let slow = LinkSpec::new(SLOW, latency, 0.0);
        let fast = LinkSpec::new(FAST, latency, 0.0);
        let s = star(&[slow, fast, fast]);
        let up = DirLinkId::new_forward(s.links[0]);
        let logs: [ArrivalLog; 2] = Default::default();
        let mut sim = Simulator::new(s.network, 5);
        sim.schedule_capacity(SimTime::from_micros(1_010 * MS), up, FAST);
        sim.schedule_capacity(SimTime::from_micros(1_030 * MS), up, SLOW);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Burster {
            bursts: &BURSTS,
            to: s.leaves[1..].to_vec(),
            next: 0,
        }));
        for log in &logs {
            sim.add_node(Box::new(Numbered(log.clone())));
        }
        sim.run_until_idle(SimTime::from_secs_f64(10.0));

        // A message is a 4-byte sequence number and 66 bytes of framing.
        let mut model = crate::fifo::DenseRows::new(4);
        let mut expected: [Vec<(u32, u64)>; 2] = Default::default();
        let mut seq = 0;
        for (sent, len, to) in BURSTS {
            let capacity = if (1_010 * MS..1_030 * MS).contains(&sent) {
                FAST
            } else {
                SLOW
            };
            let tx = SimDuration::from_secs_f64(70.0 * 8.0 / capacity);
            let arrives = SimTime::from_micros(sent) + latency * 2 + tx;
            for _ in 0..len {
                let at = model.book(1, 2 + to, arrives);
                expected[to].push((seq, at.as_micros()));
                seq += 1;
            }
        }
        assert_eq!(*logs[0].borrow(), expected[0]);
        assert_eq!(*logs[1].borrow(), expected[1]);
        // The fast burst was clamped behind the slow one; the burst after
        // the link slowed again was not.
        assert_eq!(expected[0][50].1, expected[0][49].1 + 1);
        assert_eq!(expected[0][60].1, 1_040 * MS + 20 * MS + 70 * MS);
    }

    /// What a [`Recorder`] saw: (node, event kind, time, bytes).
    type EventLog = Rc<RefCell<Vec<(NodeId, &'static str, SimTime, u64)>>>;

    /// Logs every event it is handed; with `send` set, it first sends a
    /// message there and starts a transfer of `bytes`.
    struct Recorder {
        send: Option<(NodeId, u64)>,
        log: EventLog,
    }
    impl NodeBehavior for Recorder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some((to, bytes)) = self.send {
                ctx.send(to, Bytes::from_static(b"hello")).unwrap();
                ctx.start_transfer(to, bytes, 0).unwrap();
            }
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            let (kind, bytes) = match event {
                NodeEvent::Message { payload, .. } => ("message", payload.len() as u64),
                NodeEvent::TransferComplete { bytes, .. } => ("received", bytes),
                NodeEvent::UploadComplete { .. } => ("acked", 0),
                NodeEvent::TransferFailed { delivered, .. } => ("failed", delivered),
                NodeEvent::Timer { token } => ("timer", token),
            };
            self.log
                .borrow_mut()
                .push((ctx.me(), kind, ctx.now(), bytes));
        }
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        fn run(seed: u64) -> Vec<(NodeId, &'static str, SimTime, u64)> {
            let s = two_leaf_star(0.05);
            let log = EventLog::default();
            let mut sim = Simulator::new(s.network, seed);
            sim.add_node(Box::new(crate::node::NullBehavior));
            for send in [Some((s.leaves[1], 300_000)), None] {
                let log = log.clone();
                sim.add_node(Box::new(Recorder { send, log }));
            }
            sim.run_until_idle(SimTime::from_secs_f64(120.0));
            let log = log.borrow().clone();
            assert_eq!(log.len(), 3, "{log:?}");
            log
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn capacity_modulation_slows_a_flow() {
        fn completion_time(modulate: bool) -> f64 {
            let s = two_leaf_star(0.0);
            let done = Rc::new(RefCell::new(None));
            let dir = s.network.route(s.leaves[0], s.leaves[1]).unwrap();
            let mut sim = Simulator::new(s.network, 3);
            if modulate {
                // Throttle the second hop to 1/10 capacity after 1 second.
                sim.schedule_capacity(SimTime::from_secs_f64(1.0), dir[1], 100_000.0);
            }
            sim.add_node(Box::new(crate::node::NullBehavior));
            sim.add_node(Box::new(Sender {
                to: s.leaves[1],
                bytes: 1_000_000,
            }));
            sim.add_node(Box::new(Receiver { done: done.clone() }));
            sim.run_until_idle(SimTime::from_secs_f64(300.0));
            let (_, at) = done.borrow().expect("transfer should complete");
            at
        }
        assert!(completion_time(true) > completion_time(false) * 2.0);
    }

    #[test]
    #[should_panic(expected = "every network node needs a behavior")]
    fn missing_behaviors_panic() {
        let s = two_leaf_star(0.0);
        let mut sim = Simulator::new(s.network, 1);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.run_until_idle(SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn bigger_messages_take_longer() {
        struct TwoSends {
            to: NodeId,
        }
        impl NodeBehavior for TwoSends {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.to, Bytes::from(vec![0u8; 10])).unwrap();
                ctx.send(self.to, Bytes::from(vec![1u8; 60_000])).unwrap();
            }
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
        }
        #[derive(Default)]
        struct Stamps {
            at: Rc<RefCell<Vec<(u8, f64)>>>,
        }
        impl NodeBehavior for Stamps {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::Message { payload, .. } = event {
                    self.at
                        .borrow_mut()
                        .push((payload[0], ctx.now().as_secs_f64()));
                }
            }
        }
        let s = two_leaf_star(0.0);
        let at = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(s.network, 1);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(TwoSends { to: s.leaves[1] }));
        sim.add_node(Box::new(Stamps { at: at.clone() }));
        sim.run_until_idle(SimTime::from_secs_f64(10.0));
        let at = at.borrow();
        assert_eq!(at.len(), 2);
        // 60 kB over a 125 kB/s bottleneck adds ~0.5 s of serialisation
        // beyond the small message's latency-dominated delay.
        assert!(at[1].1 - at[0].1 > 0.3, "{at:?}");
    }

    #[test]
    fn path_utilization_rises_under_load() {
        struct Probe {
            to: NodeId,
            seen: Rc<RefCell<Vec<f64>>>,
        }
        impl NodeBehavior for Probe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.seen.borrow_mut().push(ctx.path_utilization(self.to));
                ctx.start_transfer(self.to, 400_000, 0).unwrap();
                ctx.set_timer(SimDuration::from_secs(2), 1);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::Timer { .. } = event {
                    self.seen.borrow_mut().push(ctx.path_utilization(self.to));
                }
            }
        }
        let s = two_leaf_star(0.0);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(s.network, 1);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Probe {
            to: s.leaves[1],
            seen: seen.clone(),
        }));
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.run_until_idle(SimTime::from_secs_f64(30.0));
        let seen = seen.borrow();
        assert_eq!(seen[0], 0.0, "idle link reads zero");
        assert!(seen[1] > 0.5, "busy link utilization {seen:?}");
    }

    #[test]
    fn stats_account_for_traffic() {
        let s = two_leaf_star(0.05);
        let done = Rc::new(RefCell::new(None));
        let mut sim = Simulator::new(s.network, 4);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Sender {
            to: s.leaves[1],
            bytes: 300_000,
        }));
        sim.add_node(Box::new(Receiver { done: done.clone() }));
        sim.run_until_idle(SimTime::from_secs_f64(120.0));
        assert!(done.borrow().is_some());
        let stats = sim.stats();
        assert_eq!(stats.flows_started, 1);
        assert_eq!(stats.flows_completed, 1);
        assert_eq!(stats.flows_failed, 0);
        assert_eq!(stats.payload_bytes_delivered, 300_000);
        // Loss means retransmission waste: wire ≥ payload, but bounded.
        assert!(stats.wire_bytes_sent >= 300_000, "{stats:?}");
        assert!(stats.wire_bytes_sent < 600_000, "{stats:?}");
    }

    /// A zero-byte transfer, a transfer to oneself (the one `NoRoute` on a
    /// star) and one to a node past the star are each refused.
    #[test]
    fn zero_byte_transfer_is_rejected() {
        struct Z {
            me: NodeId,
            to: NodeId,
        }
        impl NodeBehavior for Z {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                assert!(matches!(
                    ctx.start_transfer(self.to, 0, 0),
                    Err(NetError::EmptyTransfer)
                ));
                assert_eq!(
                    ctx.start_transfer(self.me, 10, 0),
                    Err(NetError::NoRoute {
                        src: self.me,
                        dst: self.me
                    })
                );
                assert_eq!(
                    ctx.start_transfer(NodeId::from_index(3), 10, 0),
                    Err(NetError::UnknownNode)
                );
            }
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
        }
        let s = two_leaf_star(0.0);
        let mut sim = Simulator::new(s.network, 1);
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Z {
            me: s.leaves[0],
            to: s.leaves[1],
        }));
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.run_until_idle(SimTime::from_secs_f64(1.0));
    }

    fn fluid_tcp() -> TcpConfig {
        TcpConfig {
            flow_model: FlowModel::Fluid,
        }
    }

    #[test]
    fn fluid_bulk_transfer_delivers_all_bytes() {
        let s = two_leaf_star(0.0);
        let done = Rc::new(RefCell::new(None));
        let mut sim = Simulator::new(s.network, 1);
        sim.set_tcp_config(fluid_tcp());
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Sender {
            to: s.leaves[1],
            bytes: 500_000,
        }));
        sim.add_node(Box::new(Receiver { done: done.clone() }));
        sim.run_until_idle(SimTime::from_secs_f64(60.0));
        let (bytes, at) = done.borrow().expect("transfer should complete");
        assert_eq!(bytes, 500_000);
        // 500 kB at a 125 kB/s bottleneck is 4 s of serialisation plus the
        // handshake — the fluid model should land in the same ballpark as
        // the round model.
        assert!(at >= 4.0, "completed suspiciously fast at {at}");
        assert!(at < 10.0, "completed suspiciously slow at {at}");
        assert_eq!(sim.active_flow_count(), 0);
        let stats = sim.stats();
        assert_eq!(stats.flows_completed, 1);
        assert_eq!(stats.payload_bytes_delivered, 500_000);
        assert!(stats.wire_bytes_sent >= 500_000, "{stats:?}");
    }

    /// The contract of `complete_flow`, under both flow models: the
    /// receiver hears half an RTT after the sender finished, the sender a
    /// full RTT after, and the flow is counted exactly once.
    #[test]
    fn completion_notifies_both_ends_and_counts_once() {
        use NodeEvent::{TransferComplete, UploadComplete};
        struct Stamp {
            send: Option<NodeId>,
            log: Rc<RefCell<Vec<(&'static str, SimTime)>>>,
        }
        impl NodeBehavior for Stamp {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                if let Some(to) = self.send {
                    ctx.start_transfer(to, 300_000, 7).unwrap();
                }
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                let what = match event {
                    TransferComplete { bytes: 300_000, .. } => "received",
                    UploadComplete { tag: 7, .. } => "acked",
                    other => panic!("unexpected {other:?}"),
                };
                self.log.borrow_mut().push((what, ctx.now()));
            }
        }
        for model in [FlowModel::Rounds, FlowModel::Fluid] {
            let s = two_leaf_star(0.0);
            let rtt = SimDuration::from_millis(100);
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(s.network, 3);
            sim.set_tcp_config(TcpConfig { flow_model: model });
            sim.add_node(Box::new(crate::node::NullBehavior));
            for send in [Some(s.leaves[1]), None] {
                let log = log.clone();
                sim.add_node(Box::new(Stamp { send, log }));
            }
            sim.run_until_idle(SimTime::from_secs_f64(60.0));
            let log = log.borrow();
            let [("received", received), ("acked", acked)] = log[..] else {
                panic!("{model:?}: {log:?}");
            };
            assert_eq!(acked, received + rtt / 2, "{model:?}");
            let finished = acked.saturating_since(SimTime::ZERO + rtt);
            assert!(finished >= rtt.mul_f64(1.5), "{model:?}: {finished:?}");
            if model == FlowModel::Rounds {
                // The sender finishes on a round boundary after the handshake.
                let rounds = finished.as_micros() - rtt.mul_f64(1.5).as_micros();
                assert_eq!(rounds % rtt.as_micros(), 0, "{finished:?}");
            }
            let stats = sim.stats();
            assert_eq!(stats.flows_completed, 1, "{model:?}");
            assert_eq!(stats.payload_bytes_delivered, 300_000, "{model:?}");
            assert_eq!(sim.active_flow_count(), 0, "{model:?}");
        }
    }

    /// A flow is booked where its receiver gets it: a receiver that leaves
    /// after the sender's last byte went out, but before that byte
    /// arrives, fails the flow and is delivered nothing. The sender still
    /// hears its final ack.
    #[test]
    fn a_receiver_gone_before_the_last_data_arrives_fails_the_flow() {
        struct LeaveAt(SimDuration);
        impl NodeBehavior for LeaveAt {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(self.0, 0);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::Timer { .. } = event {
                    ctx.go_offline();
                }
            }
        }
        let run = |leave: Option<SimDuration>| {
            let s = two_leaf_star(0.0);
            let log = EventLog::default();
            let mut sim = Simulator::new(s.network, 3);
            sim.add_node(Box::new(crate::node::NullBehavior));
            sim.add_node(Box::new(Recorder {
                send: Some((s.leaves[1], 300_000)),
                log: log.clone(),
            }));
            sim.add_node(match leave {
                Some(at) => Box::new(LeaveAt(at)),
                None => Box::new(Recorder {
                    send: None,
                    log: log.clone(),
                }),
            });
            sim.run_until_idle(SimTime::from_secs_f64(60.0));
            let log = log.borrow().clone();
            (log, sim.stats())
        };
        let (log, stats) = run(None);
        let received = log.iter().find(|e| e.1 == "received").expect("delivered").2;
        assert_eq!((stats.flows_completed, stats.flows_failed), (1, 0));
        // The last data is half an RTT (50 ms) in flight: leave 10 ms
        // before it lands.
        let leave = received.saturating_since(SimTime::ZERO) - SimDuration::from_millis(10);
        let (log, stats) = run(Some(leave));
        let acked = received + SimDuration::from_millis(50);
        assert_eq!(log, [(NodeId::from_index(1), "acked", acked, 0)]);
        assert_eq!(stats.flows_started, 1);
        assert_eq!(stats.flows_failed, 1);
        assert_eq!(stats.flows_completed, 0);
        assert_eq!(stats.payload_bytes_delivered, 0);
    }

    #[test]
    fn fluid_matches_round_model_on_lossy_link() {
        // Same transfer under both models: completion times must agree
        // within a modest tolerance (the fluid model folds the round
        // model's window dynamics into a steady Mathis rate).
        let run = |model: FlowModel| -> f64 {
            let s = two_leaf_star(0.02);
            let done = Rc::new(RefCell::new(None));
            let mut sim = Simulator::new(s.network, 9);
            sim.set_tcp_config(TcpConfig { flow_model: model });
            sim.add_node(Box::new(crate::node::NullBehavior));
            sim.add_node(Box::new(Sender {
                to: s.leaves[1],
                bytes: 2_000_000,
            }));
            sim.add_node(Box::new(Receiver { done: done.clone() }));
            sim.run_until_idle(SimTime::from_secs_f64(600.0));
            let (bytes, at) = done.borrow().expect("transfer should complete");
            assert_eq!(bytes, 2_000_000);
            at
        };
        let rounds = run(FlowModel::Rounds);
        let fluid = run(FlowModel::Fluid);
        let ratio = fluid / rounds;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "fluid {fluid:.1}s vs rounds {rounds:.1}s (ratio {ratio:.2})"
        );
    }

    #[test]
    fn fluid_two_flows_share_the_uplink() {
        // Two simultaneous downloads from the same sender: each should see
        // roughly half the uplink, so they finish close together and take
        // about twice the solo time.
        struct DoubleSender {
            to: [NodeId; 2],
        }
        impl NodeBehavior for DoubleSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.start_transfer(self.to[0], 250_000, 7).unwrap();
                ctx.start_transfer(self.to[1], 250_000, 7).unwrap();
            }
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
        }
        let spec = LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(25), 0.0);
        let s = star(&[spec; 3]);
        let d1 = Rc::new(RefCell::new(None));
        let d2 = Rc::new(RefCell::new(None));
        let mut sim = Simulator::new(s.network, 1);
        sim.set_tcp_config(fluid_tcp());
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(DoubleSender {
            to: [s.leaves[1], s.leaves[2]],
        }));
        sim.add_node(Box::new(Receiver { done: d1.clone() }));
        sim.add_node(Box::new(Receiver { done: d2.clone() }));
        sim.run_until_idle(SimTime::from_secs_f64(60.0));
        let (_, t1) = d1.borrow().expect("first transfer completes");
        let (_, t2) = d2.borrow().expect("second transfer completes");
        // 500 kB total through a 125 kB/s uplink: at least 4 s.
        assert!(t1 >= 3.9 && t2 >= 3.9, "{t1} {t2}");
        assert!(
            (t1 - t2).abs() < 0.5,
            "fair shares finish together: {t1} {t2}"
        );
    }

    /// The three things a popped `FlowDone` can be, on one 2 MB flow whose
    /// second hop is throttled and restored twice: live but early (the
    /// rate dropped since it was pushed) — re-armed once, at `done_at`;
    /// superseded by an earlier arm — ignored; live and due — the flow
    /// completes exactly at `done_at`.
    #[test]
    fn fluid_done_pop_rearms_is_ignored_or_completes() {
        let s = two_leaf_star(0.0);
        let done = Rc::new(RefCell::new(None));
        let hop = s.network.route(s.leaves[0], s.leaves[1]).unwrap()[1];
        let mut sim = Simulator::new(s.network, 3);
        sim.set_tcp_config(fluid_tcp());
        let full = 1_000_000.0;
        for (at, capacity_bps) in [(1, full / 2.0), (20, full), (22, full / 8.0), (40, full)] {
            sim.schedule_capacity(SimTime::from_secs_f64(at as f64), hop, capacity_bps);
        }
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Sender {
            to: s.leaves[1],
            bytes: 2_000_000,
        }));
        sim.add_node(Box::new(Receiver { done: done.clone() }));
        // Runs to `secs`; returns (armed_at, done_at, completion events
        // pushed so far) of the one flow.
        let mut at = |secs: f64| {
            sim.run_until_idle(SimTime::from_secs_f64(secs));
            let pushed = sim.fluid_stats().flows_rescheduled;
            let f = sim.world.flows.iter_mut().next().expect("still running");
            (f.fluid.armed_at, f.fluid.done_at, pushed)
        };

        // Activation arms the first event, E1, at the finish under the full
        // rate (about 16 s).
        let (e1, done_at, pushed) = at(0.5);
        assert_eq!((e1, pushed), (done_at, 1));
        // The throttle at 1 s moves the finish later and pushes nothing.
        let (armed, d2, pushed) = at(5.0);
        assert_eq!((armed, pushed), (e1, 1));
        assert!(d2 > e1);
        // E1 pops early and re-arms itself once, as E2 at the new finish.
        let (e2, done_at, pushed) = at(e1.as_secs_f64() + 0.1);
        assert_eq!((e2, done_at, pushed), (d2, d2, 2));
        // The restore at 20 s moves the finish ahead of E2: E3 is pushed.
        let (e3, done_at, pushed) = at(21.0);
        assert_eq!((e3, pushed), (done_at, 3));
        assert!(e3 < e2);
        // The deep throttle at 22 s moves the finish past E2; E3 pops
        // early and re-arms as E4.
        let (e4, done_at, pushed) = at(e3.as_secs_f64() + 0.1);
        assert_eq!((e4, pushed), (done_at, 4));
        assert!(e4 > e2);
        // E2, superseded by the earlier E3, pops on a flow armed elsewhere
        // and is ignored: nothing completes, nothing is pushed.
        assert_eq!(at(e2.as_secs_f64() + 0.1), (e4, e4, 4));
        // The restore at 40 s arms E5 ahead of E4; it pops when due and
        // the flow completes at exactly that instant.
        let (e5, done_at, pushed) = at(40.5);
        assert_eq!((e5, pushed), (done_at, 5));
        assert!(e5 < e4);
        sim.run_until_idle(SimTime::from_secs_f64(300.0));
        let (_, heard) = done.borrow().expect("transfer completes");
        // The receiver hears half an RTT (4 x 25 ms / 2) after the sender
        // finished.
        assert_eq!(
            SimTime::from_secs_f64(heard),
            e5 + SimDuration::from_millis(50)
        );
        assert_eq!(sim.stats().flows_completed, 1);
        // E4 popped on a flow that is gone.
        assert_eq!(sim.fluid_stats().flows_rescheduled, 5);
    }

    #[test]
    fn fluid_churn_rebalances_survivors() {
        // Three flows share the hub; one endpoint goes offline mid-run and
        // the survivors' rates must rise (they finish earlier than 3-way
        // sharing would allow).
        struct TriSender {
            to: [NodeId; 3],
        }
        impl NodeBehavior for TriSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for to in &self.to {
                    ctx.start_transfer(*to, 400_000, 7).unwrap();
                }
            }
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
        }
        struct EarlyQuitter;
        impl NodeBehavior for EarlyQuitter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::Timer { .. } = event {
                    ctx.go_offline();
                }
            }
        }
        let spec = LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(25), 0.0);
        let s = star(&[spec; 4]);
        let d1 = Rc::new(RefCell::new(None));
        let d2 = Rc::new(RefCell::new(None));
        let mut sim = Simulator::new(s.network, 1);
        sim.set_tcp_config(fluid_tcp());
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(TriSender {
            to: [s.leaves[1], s.leaves[2], s.leaves[3]],
        }));
        sim.add_node(Box::new(Receiver { done: d1.clone() }));
        sim.add_node(Box::new(Receiver { done: d2.clone() }));
        sim.add_node(Box::new(EarlyQuitter));
        sim.run_until_idle(SimTime::from_secs_f64(60.0));
        let (_, t1) = d1.borrow().expect("first survivor completes");
        let (_, t2) = d2.borrow().expect("second survivor completes");
        // Full 3-way sharing would put each survivor past 9.6 s; dropping
        // the third flow at t=1 s must pull them clearly below that.
        assert!(t1 < 9.0 && t2 < 9.0, "{t1} {t2}");
        assert_eq!(sim.stats().flows_failed, 1);
        assert_eq!(sim.stats().flows_completed, 2);
    }

    #[test]
    fn fluid_runs_are_deterministic() {
        let run = || {
            let s = two_leaf_star(0.01);
            let done = Rc::new(RefCell::new(None));
            let mut sim = Simulator::new(s.network, 3);
            sim.set_tcp_config(fluid_tcp());
            sim.add_node(Box::new(crate::node::NullBehavior));
            sim.add_node(Box::new(Sender {
                to: s.leaves[1],
                bytes: 750_000,
            }));
            sim.add_node(Box::new(Receiver { done: done.clone() }));
            sim.run_until_idle(SimTime::from_secs_f64(120.0));
            let at = done.borrow().expect("completes").1;
            (at, sim.stats().wire_bytes_sent)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fluid_progress_tracks_between_rebalances() {
        let s = two_leaf_star(0.0);
        let mut sim = Simulator::new(s.network, 1);
        sim.set_tcp_config(fluid_tcp());
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Sender {
            to: s.leaves[1],
            bytes: 500_000,
        }));
        sim.add_node(Box::new(crate::node::NullBehavior));
        let seen: Vec<u64> = (1..=3)
            .map(|secs| {
                sim.run_until_idle(SimTime::from_secs_f64(secs as f64));
                let flow = sim.world.flows.iter_mut().next().expect("still running");
                flow.delivered
            })
            .collect();
        assert_eq!(sim.fluid_stats().rebalances, 1);
        // Progress advances between deadlines even with no rebalance events.
        assert!(
            seen[0] > 0 && seen[0] < seen[1] && seen[1] < seen[2],
            "{seen:?}"
        );
    }

    #[test]
    fn fluid_deadline_credits_flows_still_running() {
        // A lone 500 kB transfer cut off three seconds in. Nothing
        // rebalances after its activation, so without a fold at the end of
        // the run its progress and wire bytes would never be credited.
        let s = two_leaf_star(0.02);
        let mut sim = Simulator::new(s.network, 1);
        sim.set_tcp_config(fluid_tcp());
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Sender {
            to: s.leaves[1],
            bytes: 500_000,
        }));
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.run_until_idle(SimTime::from_secs_f64(3.0));
        assert_eq!(sim.fluid_stats().rebalances, 1);
        let flow = sim.world.flows.iter_mut().next().expect("still running");
        let (delivered, eff_loss) = (flow.delivered, flow.fluid.eff_loss);
        assert!(delivered > 100_000 && delivered < 500_000, "{delivered}");
        assert!(eff_loss > 0.0);
        let wire = sim.stats().wire_bytes_sent;
        let expected = delivered as f64 / (1.0 - eff_loss);
        assert!(
            (wire as f64 - expected).abs() <= 2.0,
            "{wire} vs {expected}"
        );
    }

    /// Sends one tagged message per timer tick (1 Hz), recording send errors:
    /// by `send`, or when `faulty` by a one-target faulty multicast.
    struct Ticker {
        to: NodeId,
        faulty: bool,
        ticks: u64,
        errors: Rc<RefCell<Vec<f64>>>,
    }
    impl NodeBehavior for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(500), 0);
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            if let NodeEvent::Timer { .. } = event {
                let tick = Bytes::from_static(b"tick");
                let sent = if self.faulty {
                    ctx.multicast([self.to], &tick, true).0 == 1
                } else {
                    ctx.send(self.to, tick).is_ok()
                };
                if !sent {
                    self.errors.borrow_mut().push(ctx.now().as_secs_f64());
                }
                self.ticks -= 1;
                if self.ticks > 0 {
                    ctx.set_timer(SimDuration::from_secs(1), 0);
                }
            }
        }
    }

    /// Records arrival times of every message.
    #[derive(Default)]
    struct Arrivals {
        at: Rc<RefCell<Vec<f64>>>,
    }
    impl NodeBehavior for Arrivals {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            if let NodeEvent::Message { .. } = event {
                self.at.borrow_mut().push(ctx.now().as_secs_f64());
            }
        }
    }

    #[test]
    fn scheduled_offline_window_blocks_and_restores_delivery() {
        let s = two_leaf_star(0.0);
        let errors = Rc::new(RefCell::new(Vec::new()));
        let at = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(s.network, 5);
        // Sends at 0.5, 1.5, 2.5, 3.5; the receiver is down for [1, 3).
        sim.schedule_offline_window(
            s.leaves[1],
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(3.0),
        );
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Ticker {
            to: s.leaves[1],
            faulty: false,
            ticks: 4,
            errors: errors.clone(),
        }));
        sim.add_node(Box::new(Arrivals { at: at.clone() }));
        sim.run_until_idle(SimTime::from_secs_f64(10.0));
        let errors = errors.borrow();
        let at = at.borrow();
        assert_eq!(errors.len(), 2, "sends during the outage error: {errors:?}");
        assert!(
            errors.iter().all(|&t| (1.0..3.0).contains(&t)),
            "{errors:?}"
        );
        assert_eq!(at.len(), 2, "sends outside the outage deliver: {at:?}");
        assert!(at[0] < 1.0 && at[1] > 3.0, "{at:?}");
        let faults = sim.fault_stats();
        assert_eq!(faults.outages_started, 1);
        assert_eq!(faults.outages_ended, 1);
    }

    /// An outage is a pause: a node taken offline in the middle of an
    /// upload is told the upload failed once it is back, as its receiver
    /// was told at once.
    #[test]
    fn offline_window_notifies_the_node_of_its_failed_flows_on_return() {
        struct Failures {
            seen: Rc<RefCell<Vec<(f64, NodeId, u64)>>>,
            upload_to: Option<NodeId>,
        }
        impl NodeBehavior for Failures {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                if let Some(to) = self.upload_to {
                    ctx.start_transfer(to, 10_000_000, 7).unwrap();
                }
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::TransferFailed { peer, tag, .. } = event {
                    let at = ctx.now().as_secs_f64();
                    self.seen.borrow_mut().push((at, peer, tag));
                }
            }
        }
        let s = two_leaf_star(0.0);
        let (uploader, receiver) = (s.leaves[0], s.leaves[1]);
        let (up_seen, down_seen) = (Rc::default(), Rc::default());
        let mut sim = Simulator::new(s.network, 5);
        sim.schedule_offline_window(
            uploader,
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(3.0),
        );
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Failures {
            seen: Rc::clone(&up_seen),
            upload_to: Some(receiver),
        }));
        sim.add_node(Box::new(Failures {
            seen: Rc::clone(&down_seen),
            upload_to: None,
        }));
        sim.run_until_idle(SimTime::from_secs_f64(10.0));
        let down = down_seen.borrow();
        assert_eq!(down.len(), 1, "{down:?}");
        assert!(down[0].0 > 1.0 && down[0].0 < 1.5, "{down:?}");
        assert_eq!((down[0].1, down[0].2), (uploader, 7));
        let up = up_seen.borrow();
        assert_eq!(
            up.as_slice(),
            [(3.0, receiver, 7)],
            "the uploader hears of its failed upload when it is back"
        );
        assert_eq!(sim.active_flow_count(), 0);
    }

    #[test]
    fn send_faulty_without_plane_matches_send() {
        let run = |faulty: bool| -> (Vec<f64>, SimStats) {
            let s = two_leaf_star(0.05);
            let at = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(s.network, 21);
            sim.add_node(Box::new(crate::node::NullBehavior));
            sim.add_node(Box::new(Ticker {
                to: s.leaves[1],
                faulty,
                ticks: 10,
                errors: Rc::default(),
            }));
            sim.add_node(Box::new(Arrivals { at: at.clone() }));
            sim.run_until_idle(SimTime::from_secs_f64(60.0));
            let at = at.borrow().clone();
            (at, sim.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn send_faulty_with_certain_loss_drops_silently() {
        let s = two_leaf_star(0.0);
        let at = Rc::new(RefCell::new(Vec::new()));
        let errors = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(s.network, 21);
        sim.set_message_faults(MessageFaults {
            seed: 77,
            loss: 1.0,
            delay_prob: 0.0,
            delay_max: SimDuration::ZERO,
        });
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(Ticker {
            to: s.leaves[1],
            faulty: true,
            ticks: 5,
            errors: errors.clone(),
        }));
        sim.add_node(Box::new(Arrivals { at: at.clone() }));
        sim.run_until_idle(SimTime::from_secs_f64(60.0));
        assert!(at.borrow().is_empty(), "all messages should be dropped");
        assert!(errors.borrow().is_empty(), "drops are silent to the sender");
        assert_eq!(sim.stats().messages_sent, 5);
        assert_eq!(sim.fault_stats().messages_dropped, 5);
    }

    #[test]
    fn injected_delay_defers_delivery_and_keeps_order() {
        let run = |delay_prob: f64| -> Vec<f64> {
            let s = two_leaf_star(0.0);
            let at = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(s.network, 13);
            sim.set_message_faults(MessageFaults {
                seed: 5,
                loss: 0.0,
                delay_prob,
                delay_max: SimDuration::from_secs(4),
            });
            sim.add_node(Box::new(crate::node::NullBehavior));
            sim.add_node(Box::new(Ticker {
                to: s.leaves[1],
                faulty: true,
                ticks: 8,
                errors: Rc::default(),
            }));
            sim.add_node(Box::new(Arrivals { at: at.clone() }));
            sim.run_until_idle(SimTime::from_secs_f64(120.0));
            let at = at.borrow().clone();
            at
        };
        let plain = run(0.0);
        let delayed = run(1.0);
        assert_eq!(plain.len(), 8);
        assert_eq!(delayed.len(), 8, "delayed messages still arrive");
        assert!(
            delayed.iter().sum::<f64>() > plain.iter().sum::<f64>(),
            "injected delay should defer deliveries"
        );
        // FIFO per connection survives the injected jitter.
        assert!(delayed.windows(2).all(|w| w[0] <= w[1]), "{delayed:?}");
    }

    /// A control message draws nothing from the simulator's stream. A
    /// thousand extra messages leave every round-model transfer and every
    /// `Ctx::rng` draw where it was, and a lone message pays exactly its
    /// expected retransmission delay.
    #[test]
    fn a_message_draws_nothing() {
        use rand::Rng;

        /// Starts two round-model transfers over lossy links and draws from
        /// `Ctx::rng` at each completion; sends `chatter` messages, one per
        /// 5 ms, while the transfers run.
        struct Mixed {
            to: NodeId,
            chatter: u32,
            log: Rc<RefCell<Vec<(u64, SimTime, u64)>>>,
        }
        impl NodeBehavior for Mixed {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.start_transfer(self.to, 300_000, 1).unwrap();
                ctx.start_transfer(self.to, 200_000, 2).unwrap();
                if self.chatter > 0 {
                    ctx.set_timer(SimDuration::from_millis(5), 0);
                }
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                match event {
                    NodeEvent::UploadComplete { tag, .. } => {
                        let draw = ctx.rng().gen::<u64>();
                        self.log.borrow_mut().push((tag, ctx.now(), draw));
                    }
                    NodeEvent::Timer { .. } => {
                        ctx.send(self.to, Bytes::from_static(b"chatter")).unwrap();
                        self.chatter -= 1;
                        if self.chatter > 0 {
                            ctx.set_timer(SimDuration::from_millis(5), 0);
                        }
                    }
                    _ => {}
                }
            }
        }
        let run = |chatter: u32| {
            let s = two_leaf_star(0.05);
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(s.network, 9);
            sim.add_node(Box::new(crate::node::NullBehavior));
            sim.add_node(Box::new(Mixed {
                to: s.leaves[1],
                chatter,
                log: log.clone(),
            }));
            sim.add_node(Box::new(crate::node::NullBehavior));
            sim.run_until_idle(SimTime::from_secs_f64(120.0));
            assert_eq!(sim.stats().messages_sent, u64::from(chatter));
            let log = log.borrow().clone();
            log
        };
        let quiet = run(0);
        assert_eq!(quiet.len(), 2, "both transfers complete");
        assert_eq!(run(1_000), quiet);

        let lone = |losses: [f64; 2]| {
            let specs = losses
                .map(|l| LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(25), l));
            let s = star(&specs);
            let at = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(s.network, 1);
            sim.add_node(Box::new(crate::node::NullBehavior));
            sim.add_node(Box::new(Client {
                log: Log::default(),
                peer: s.leaves[1],
            }));
            sim.add_node(Box::new(Arrivals { at: at.clone() }));
            sim.run_until_idle(SimTime::from_secs_f64(60.0));
            let at = at.borrow().clone();
            at
        };
        // 50 ms of latency over two hops, 568 us to serialise the 5-byte
        // payload and its 66 framing bytes at 1 Mbit/s, and p / (1 - p) =
        // 0.25 expected retransmissions of a 100 ms round trip at p = 0.2.
        let at = |micros| [SimTime::from_micros(micros).as_secs_f64()];
        assert_eq!(lone([0.2, 0.0]), at(50_000 + 568 + 25_000));
        // Two 0.99-loss hops lose 99.99 % of tries: the 64 cap binds.
        assert_eq!(lone([0.99, 0.99]), at(50_000 + 568 + 6_400_000));
    }

    /// The default `on_message` is the contract a forwarding wrapper that
    /// implements only `on_event` relies on: it hands `on_event` one owned
    /// `NodeEvent::Message` with the sender and the very bytes lent.
    #[test]
    fn default_on_message_forwards_an_equal_owned_message() {
        #[derive(Default)]
        struct OwnedOnly(Vec<NodeEvent>);
        impl NodeBehavior for OwnedOnly {
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: NodeEvent) {
                self.0.push(event);
            }
        }

        let s = two_leaf_star(0.0);
        let mut sim = Simulator::new(s.network, 1);
        let (me, from) = (s.leaves[1], s.leaves[0]);
        let payload = Bytes::from(b"have 17".to_vec());
        let mut node = OwnedOnly::default();
        node.on_message(
            &mut Ctx {
                world: &mut sim.world,
                me,
            },
            from,
            &payload,
        );
        let [NodeEvent::Message {
            from: got_from,
            payload: got,
        }] = &node.0[..]
        else {
            panic!("expected one message event, got {:?}", node.0);
        };
        assert_eq!(*got_from, from);
        assert_eq!(got, &payload);
        // A refcount was copied, not the payload.
        assert_eq!(got.as_ptr(), payload.as_ptr());
    }
}
