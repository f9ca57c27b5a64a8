//! Application nodes: the behaviour trait and the events delivered to it.

use bytes::Bytes;

use crate::id::{FlowId, NodeId};
use crate::sim::Ctx;
use crate::time::SimTime;

/// Events delivered to a [`NodeBehavior`] through
/// [`NodeBehavior::on_event`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum NodeEvent {
    /// A control-plane message arrived. The simulator lends each message
    /// to [`NodeBehavior::on_message`]; this owned form is what that
    /// method's default forwards to [`NodeBehavior::on_event`].
    Message {
        /// Sender of the message.
        from: NodeId,
        /// Opaque payload (the application defines the encoding).
        payload: Bytes,
    },
    /// A bulk transfer *to this node* finished; all bytes arrived.
    TransferComplete {
        /// The finished flow.
        flow: FlowId,
        /// The node that was sending.
        from: NodeId,
        /// Application tag supplied when the transfer was started.
        tag: u64,
        /// Total bytes delivered.
        bytes: u64,
        /// When the transfer was started (useful for goodput estimation).
        started: SimTime,
    },
    /// A bulk transfer *from this node* finished sending.
    UploadComplete {
        /// The finished flow.
        flow: FlowId,
        /// The node that was receiving.
        to: NodeId,
        /// Application tag supplied when the transfer was started.
        tag: u64,
    },
    /// A bulk transfer involving this node failed (an endpoint went
    /// offline).
    TransferFailed {
        /// The failed flow.
        flow: FlowId,
        /// The other endpoint.
        peer: NodeId,
        /// Application tag supplied when the transfer was started.
        tag: u64,
        /// Bytes that had been delivered before the failure.
        delivered: u64,
    },
    /// A timer set via [`Ctx::set_timer`] fired.
    Timer {
        /// The token passed when the timer was set.
        token: u64,
    },
}

/// The behaviour of one simulated host.
///
/// Implementations are single-threaded state machines: the simulator calls
/// [`NodeBehavior::on_message`] with each control message and
/// [`NodeBehavior::on_event`] with every other event, in simulated-time
/// order, and the behaviour reacts through the [`Ctx`] handle (sending
/// messages, starting transfers, setting timers). A behaviour that
/// implements only `on_event` still sees every message, as a
/// [`NodeEvent::Message`]; one that overrides `on_message` reads the
/// payload in place, with no clone per receiver.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use splicecast_netsim::{Ctx, NodeBehavior, NodeEvent, NodeId};
///
/// /// Counts how many messages it receives.
/// struct Counter(u64);
///
/// impl NodeBehavior for Counter {
///     fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _payload: &Bytes) {
///         self.0 += 1;
///     }
///     fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
/// }
/// ```
pub trait NodeBehavior {
    /// Called once, before any event, when the simulation starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called for every event addressed to this node while it is online,
    /// messages included unless [`Self::on_message`] is overridden.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent);

    /// Called for every control message addressed to this node while it
    /// is online. The payload is lent: one multicast's receivers all read
    /// the same bytes. The default forwards an owned
    /// [`NodeEvent::Message`] to [`Self::on_event`]; cloning a [`Bytes`]
    /// copies a refcount, not the payload.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        let payload = payload.clone();
        self.on_event(ctx, NodeEvent::Message { from, payload });
    }

    /// Called once when the simulation run ends (deadline reached or queue
    /// drained), for final accounting.
    fn on_sim_end(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}

/// A node that ignores every event. Useful for switch/hub nodes that only
/// exist to join links.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullBehavior;

impl NodeBehavior for NullBehavior {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
}
