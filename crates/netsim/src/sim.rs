//! The simulator: event loop, node contexts, and the world state.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::NetError;
use crate::event::{EventQueue, Scheduled};
use crate::fault::{FaultPlane, InjectedFaults, MessageFate, MessageFaults};
use crate::fluid::{FluidSolver, FluidSolverStats};
use crate::id::{DirLinkId, FlowId, NodeId};
use crate::node::{NodeBehavior, NodeEvent};
use crate::tcp::{
    Flow, FlowModel, FlowTable, LinkUsage, RoundOutcome, TcpConfig, HANDSHAKE_RTTS, INITIAL_CWND,
    INITIAL_SSTHRESH, LOSS_UTILIZATION_FLOOR, MAX_CWND, MIN_CWND, MSS, OVERLOAD_LOSS_COEFF,
    OVERLOAD_LOSS_MAX, OVERLOAD_PRESSURE_THRESHOLD, UTILIZATION_TAU_SECS,
};
use crate::time::{SimDuration, SimTime};
use crate::topology::Network;
use crate::trace::{Trace, TraceRecord};

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

/// Aggregate counters of everything the simulator moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SimStats {
    /// Control-plane messages sent.
    pub messages_sent: u64,
    /// Bulk transfers started.
    pub flows_started: u64,
    /// Bulk transfers that delivered all bytes.
    pub flows_completed: u64,
    /// Bulk transfers that failed or were cancelled.
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
    trace: Option<Trace>,
    stats: SimStats,
    /// Last scheduled delivery per (src, dst), to keep the control channel
    /// in order like a TCP connection would: one row per source, indexed
    /// by destination, empty until that source first sends.
    msg_order: Vec<Vec<SimTime>>,
    /// Scratch for the route of the message being sent (or the path being
    /// probed), so looking at a route allocates nothing.
    scratch_route: Vec<DirLinkId>,
    /// Scratch for `step_flow`: per-link decayed rates, computed once per
    /// round and reused for both the utilization read and the usage update.
    scratch_rates: Vec<f64>,
    /// Fluid model: the rate solver and the per-link, per-flow state it
    /// keeps between rebalances. Its pass-2 link rates double as the
    /// utilization source for [`Ctx::path_utilization`].
    fluid: FluidSolver,
    /// Injected message-fault plane, if any; `None` means `send_faulty`
    /// degenerates to `send` with no extra RNG draws.
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
            self.fluid.remove_flow(id, &flow.path);
            self.fluid_rebalance();
        }
        self.stats.flows_failed += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord::FlowFailed {
                at: self.now,
                flow: id,
                delivered: flow.delivered,
            });
        }
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
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord::NodeOffline { at: self.now, node });
        }
        // fail_flow removes each flow from the per-node index, so taking
        // the first id each time walks the list in insertion order.
        while let Some(&id) = self.flows.flows_touching(node).first() {
            let Some(f) = self.flows.get(id) else {
                debug_assert!(false, "per-node flow index held a stale id");
                break;
            };
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
        // A stale round event for a flow that was cancelled or failed.
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
        // The decayed per-link rates are kept so the usage update after the
        // round reuses them instead of re-evaluating the decay.
        let mut share_bps = f64::INFINITY;
        let mut utilization: f64 = 0.0;
        let mut pressure: f64 = 0.0;
        let mut rates = std::mem::take(&mut self.scratch_rates);
        rates.clear();
        for dir in &flow.path {
            let cap = self.net.dir_spec(*dir).capacity_bps;
            let load = self.flows.load(*dir);
            share_bps = share_bps.min(cap / load.max(1) as f64);
            let rate = self.usage[dir.index()].rate_bps_at(now, UTILIZATION_TAU_SECS);
            rates.push(rate);
            utilization = utilization.max(rate / cap);
            pressure = pressure.max(link_pressure(cap, load, rtt_secs));
        }
        let effective_loss = effective_loss(flow.loss, utilization.min(1.0), pressure);

        let flow = self.flows.get_mut(id).expect("flow vanished");
        let rtt = flow.rtt;
        let (outcome, sent_bytes) = flow.advance_round(share_bps, effective_loss, &mut self.rng);
        self.stats.wire_bytes_sent += sent_bytes;
        // `flow` borrows only the flow table; usage is a disjoint field, so
        // the path needs no defensive clone.
        let added_bps = sent_bytes as f64 * 8.0 / UTILIZATION_TAU_SECS;
        for (dir, &rate) in flow.path.iter().zip(&rates) {
            self.usage[dir.index()].set_rate(now, rate + added_bps);
        }
        self.scratch_rates = rates;
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

    /// A flow delivered its last byte at the sender: it leaves the table,
    /// is counted, and both ends hear of it — the receiver sees the last
    /// data half an RTT after the sender finishes, the sender the final ack
    /// a full RTT after.
    fn complete_flow(&mut self, id: FlowId) -> Flow {
        let flow = self
            .flows
            .remove(id)
            .expect("completing flow is in the table");
        self.stats.flows_completed += 1;
        self.stats.payload_bytes_delivered += flow.total;
        let recv_at = self.now + flow.rtt / 2;
        let ack_at = self.now + flow.rtt;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord::FlowCompleted {
                at: recv_at,
                flow: id,
            });
        }
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
        // The flow may have been cancelled before the handshake completed.
        let Some(f) = self.flows.get_mut(id) else {
            return;
        };
        debug_assert!(!f.fluid.active, "flow activated twice");
        f.fluid.active = true;
        f.fluid.rate_since = now;
        f.fluid.armed_at = SimTime::MAX;
        self.fluid.add_flow(id, &f.path);
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
        self.fluid.remove_flow(id, &flow.path);
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
        let ceiling = |id: FlowId, utilization: f64| {
            let f = flows.get(id).expect("rated flow is in the table");
            let rtt_secs = f.rtt.as_secs_f64();
            let mut pressure = 0.0_f64;
            for dir in &f.path {
                let cap = net.dir_spec(*dir).capacity_bps;
                pressure = pressure.max(link_pressure(cap, flows.load(*dir), rtt_secs));
            }
            fluid_ceiling(rtt_secs, f.loss, utilization, pressure)
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

    /// Total number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.world.online.len()
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
        self.send_inner(to, payload, false)
    }

    /// Like [`Ctx::send`], but subject to the injected message-fault plane
    /// (see [`Simulator::set_message_faults`]): the message may be silently
    /// dropped (the sender still sees `Ok`, modelling loss the application
    /// cannot observe) or delivered with extra delay. The plane rolls on
    /// its own stream, never the simulator's. With no plane installed this
    /// is exactly `send`: same code path, same delay, no draw.
    ///
    /// Applications route their *droppable* traffic classes (periodic
    /// announcements a later one supersedes) through here and keep the
    /// rest (handshakes, requests, goodbyes) on `send`.
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::send`]; destination validation happens before the
    /// fault roll, so an offline destination is still reported.
    pub fn send_faulty(&mut self, to: NodeId, payload: Bytes) -> Result<(), NetError> {
        self.send_inner(to, payload, true)
    }

    fn send_inner(&mut self, to: NodeId, payload: Bytes, faulty: bool) -> Result<(), NetError> {
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
                        return Ok(());
                    }
                    MessageFate::Delay(d) => {
                        w.fault_stats.messages_delayed += 1;
                        extra = d;
                    }
                }
            }
        }
        let delay = if to == self.me {
            LOOPBACK_DELAY
        } else {
            w.net.route(self.me, to, &mut w.scratch_route)?;
            let props = w.net.path_properties(&w.scratch_route);
            let wire_bytes = payload.len() as u64 + MESSAGE_OVERHEAD_BYTES;
            let tx = SimDuration::from_secs_f64(wire_bytes as f64 * 8.0 / props.min_capacity_bps);
            props.latency + tx + (props.latency * 2).mul_f64(expected_retransmissions(props.loss))
        };
        // Injected extra delay lands before the FIFO clamp: a delayed
        // message still cannot overtake or be overtaken on its connection.
        let mut deliver_at = w.now + delay + extra;
        // FIFO per (src, dst) pair, like an ordered byte stream.
        let row = &mut w.msg_order[self.me.index()];
        if row.is_empty() {
            row.resize(w.online.len(), SimTime::ZERO);
        }
        let slot = &mut row[to.index()];
        if deliver_at <= *slot {
            deliver_at = *slot + SimDuration::from_micros(1);
        }
        *slot = deliver_at;
        w.stats.messages_sent += 1;
        if let Some(trace) = &mut w.trace {
            trace.push(TraceRecord::MessageSent {
                at: w.now,
                from: self.me,
                to,
                len: payload.len(),
                deliver_at,
            });
        }
        w.queue.push(
            deliver_at,
            Scheduled::Node {
                target: to,
                event: NodeEvent::Message {
                    from: self.me,
                    payload,
                },
            },
        );
        Ok(())
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
        let path = w.net.path(self.me, to)?;
        let props = w.net.path_properties(&path);
        let rtt = props.latency * 2;
        let flow = Flow {
            id: FlowId(0), // assigned by the table
            src: self.me,
            dst: to,
            path,
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
            w.fluid.touch(&flow.path);
        }
        let id = w.flows.insert(flow);
        w.stats.flows_started += 1;
        if let Some(trace) = &mut w.trace {
            trace.push(TraceRecord::FlowStarted {
                at: w.now,
                flow: id,
                src: self.me,
                dst: to,
                bytes,
            });
        }
        // First data round: after the three-way handshake for a fresh
        // connection, after half an RTT (send → first data back) when the
        // connection is kept alive.
        let setup = if warm { 0.5 } else { HANDSHAKE_RTTS };
        let first_round = w.now + rtt.mul_f64(setup);
        w.queue
            .push(first_round, Scheduled::FlowRound { flow: id.raw() });
        Ok(id)
    }

    /// Cancels an in-flight transfer. The *other* endpoint is notified with
    /// [`NodeEvent::TransferFailed`]; the caller is not. Cancelling an
    /// already-finished flow is a no-op.
    pub fn cancel_transfer(&mut self, flow: FlowId) {
        let Some(f) = self.world.flows.get(flow) else {
            return;
        };
        let counterpart = if f.src == self.me { f.dst } else { f.src };
        self.world.fail_flow(flow, &[counterpart]);
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
    pub fn path_utilization(&mut self, to: NodeId) -> f64 {
        let w = &mut *self.world;
        match w.net.route(self.me, to, &mut w.scratch_route) {
            Ok(()) => w.path_utilization(&w.scratch_route),
            Err(_) => 0.0,
        }
    }

    /// Bytes already delivered for an in-flight transfer, if it is still
    /// active. Useful for progress-aware policies.
    pub fn transfer_progress(&self, flow: FlowId) -> Option<(u64, u64)> {
        self.world.flows.get(flow).map(|f| {
            if f.fluid.active && f.fluid.rate_bps > 0.0 {
                // Fluid flows advance analytically between rebalances;
                // integrate virtually without mutating the flow.
                let dt = self
                    .world
                    .now
                    .saturating_since(f.fluid.rate_since)
                    .as_secs_f64();
                let delivered =
                    (f.fluid.delivered + f.fluid.rate_bps * dt / 8.0).min(f.total as f64);
                (delivered as u64, f.total)
            } else {
                (f.delivered, f.total)
            }
        })
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
    nodes: Vec<Option<Box<dyn NodeBehavior>>>,
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
                trace: None,
                stats: SimStats::default(),
                msg_order: vec![Vec::new(); node_count],
                scratch_route: Vec::new(),
                scratch_rates: Vec::new(),
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

    /// Starts recording a [`Trace`] of notable events.
    pub fn enable_trace(&mut self) {
        self.world.trace = Some(Trace::new());
    }

    /// Takes the recorded trace, leaving tracing enabled with a fresh log.
    pub fn take_trace(&mut self) -> Trace {
        match &mut self.world.trace {
            Some(t) => std::mem::take(t),
            None => Trace::new(),
        }
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
        self.nodes.push(Some(behavior));
        id
    }

    /// Schedules a capacity change of one link direction at an absolute time
    /// (bandwidth modulation, for variable-bandwidth experiments).
    pub fn schedule_capacity(&mut self, at: SimTime, dir: DirLinkId, capacity_bps: f64) {
        self.world
            .queue
            .push(at, Scheduled::Capacity { dir, capacity_bps });
    }

    /// Installs the injected message-fault plane (see [`Ctx::send_faulty`]).
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
        for index in 0..self.nodes.len() {
            let target = NodeId::from_index(index);
            let mut node = self.nodes[index].take().expect("node missing");
            node.on_start(&mut Ctx {
                world: &mut self.world,
                me: target,
            });
            self.nodes[index] = Some(node);
        }
    }

    fn dispatch(&mut self, target: NodeId, event: NodeEvent) {
        if !self.world.online[target.index()] {
            return;
        }
        let mut node = self.nodes[target.index()].take().expect("node missing");
        node.on_event(
            &mut Ctx {
                world: &mut self.world,
                me: target,
            },
            event,
        );
        self.nodes[target.index()] = Some(node);
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
                Scheduled::Node { target, event } => self.dispatch(target, event),
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
        for index in 0..self.nodes.len() {
            let target = NodeId::from_index(index);
            if !self.world.online[index] {
                continue;
            }
            let mut node = self.nodes[index].take().expect("node missing");
            node.on_sim_end(&mut Ctx {
                world: &mut self.world,
                me: target,
            });
            self.nodes[index] = Some(node);
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
    use crate::link::LinkSpec;
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
    /// in order. The last leaf never sends and so owns no FIFO row.
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
                        ctx.send_faulty(to, Bytes::copy_from_slice(&[i])).unwrap();
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
        let (&silent, talkers) = s.leaves.split_last().unwrap();
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
        for &talker in talkers {
            assert_eq!(sim.world.msg_order[talker.index()].len(), LEAVES + 1);
        }
        assert!(sim.world.msg_order[silent.index()].is_empty());
        assert!(sim.world.msg_order[s.hub.index()].is_empty());
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        fn run(seed: u64) -> Trace {
            let s = two_leaf_star(0.05);
            let mut sim = Simulator::new(s.network, seed);
            sim.enable_trace();
            sim.add_node(Box::new(crate::node::NullBehavior));
            sim.add_node(Box::new(Sender {
                to: s.leaves[1],
                bytes: 300_000,
            }));
            sim.add_node(Box::new(Receiver::default()));
            sim.run_until_idle(SimTime::from_secs_f64(120.0));
            sim.take_trace()
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn capacity_modulation_slows_a_flow() {
        fn completion_time(modulate: bool) -> f64 {
            let s = two_leaf_star(0.0);
            let done = Rc::new(RefCell::new(None));
            let dir = s.network.path(s.leaves[0], s.leaves[1]).unwrap();
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
            sim.enable_trace();
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
            let traced = sim.take_trace();
            let completions: Vec<_> = traced
                .records()
                .iter()
                .filter_map(|r| match r {
                    TraceRecord::FlowCompleted { at, .. } => Some(*at),
                    _ => None,
                })
                .collect();
            assert_eq!(completions, [received], "{model:?}");
            let stats = sim.stats();
            assert_eq!(stats.flows_completed, 1, "{model:?}");
            assert_eq!(stats.payload_bytes_delivered, 300_000, "{model:?}");
            assert_eq!(sim.active_flow_count(), 0, "{model:?}");
        }
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

    #[test]
    fn fluid_cancel_invalidates_scheduled_completion() {
        // Cancel a fluid transfer before its FlowDone fires: the stale
        // event must be ignored and the receiver must see a failure, not a
        // completion.
        struct CancellingSender {
            to: NodeId,
        }
        impl NodeBehavior for CancellingSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let flow = ctx.start_transfer(self.to, 1_000_000, 0).unwrap();
                ctx.set_timer(SimDuration::from_secs(2), flow.raw());
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::Timer { token } = event {
                    ctx.cancel_transfer(FlowId(token));
                }
            }
        }
        #[derive(Default)]
        struct FailWatcher {
            failed: Rc<RefCell<bool>>,
            completed: Rc<RefCell<bool>>,
        }
        impl NodeBehavior for FailWatcher {
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: NodeEvent) {
                match event {
                    NodeEvent::TransferFailed { .. } => *self.failed.borrow_mut() = true,
                    NodeEvent::TransferComplete { .. } => *self.completed.borrow_mut() = true,
                    _ => {}
                }
            }
        }
        let s = two_leaf_star(0.0);
        let failed = Rc::new(RefCell::new(false));
        let completed = Rc::new(RefCell::new(false));
        let mut sim = Simulator::new(s.network, 1);
        sim.set_tcp_config(fluid_tcp());
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(CancellingSender { to: s.leaves[1] }));
        sim.add_node(Box::new(FailWatcher {
            failed: failed.clone(),
            completed: completed.clone(),
        }));
        sim.run_until_idle(SimTime::from_secs_f64(60.0));
        assert!(*failed.borrow(), "receiver should see the failure");
        assert!(!*completed.borrow(), "stale FlowDone must not complete");
        assert_eq!(sim.active_flow_count(), 0);
        // Partial progress still hit the wire.
        let stats = sim.stats();
        assert_eq!(stats.flows_failed, 1);
        assert!(stats.wire_bytes_sent > 0, "{stats:?}");
        assert!(stats.wire_bytes_sent < 1_000_000, "{stats:?}");
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
        let hop = s.network.path(s.leaves[0], s.leaves[1]).unwrap()[1];
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
        struct ProgressProbe {
            to: NodeId,
            seen: Rc<RefCell<Vec<u64>>>,
        }
        impl NodeBehavior for ProgressProbe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let flow = ctx.start_transfer(self.to, 500_000, 0).unwrap();
                for i in 1..=3u64 {
                    ctx.set_timer(SimDuration::from_secs(i), flow.raw());
                }
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::Timer { token } = event {
                    if let Some((done, _)) = ctx.transfer_progress(FlowId(token)) {
                        self.seen.borrow_mut().push(done);
                    }
                }
            }
        }
        let s = two_leaf_star(0.0);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(s.network, 1);
        sim.set_tcp_config(fluid_tcp());
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.add_node(Box::new(ProgressProbe {
            to: s.leaves[1],
            seen: seen.clone(),
        }));
        sim.add_node(Box::new(crate::node::NullBehavior));
        sim.run_until_idle(SimTime::from_secs_f64(60.0));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3, "{seen:?}");
        // Progress advances between probes even with no rebalance events.
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

    /// Sends one tagged message per timer tick (1 Hz), recording send errors.
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
                let result = if self.faulty {
                    ctx.send_faulty(self.to, Bytes::from_static(b"tick"))
                } else {
                    ctx.send(self.to, Bytes::from_static(b"tick"))
                };
                if result.is_err() {
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
}
