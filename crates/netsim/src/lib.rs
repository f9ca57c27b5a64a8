//! # splicecast-netsim
//!
//! A deterministic discrete-event **network simulator** purpose-built to
//! stand in for the GENI testbed used in *"Video Splicing Techniques for P2P
//! Video Streaming"* (ICDCS 2015): a handful of hosts joined by rate-limited,
//! lossy, high-latency links, exchanging control messages and bulk TCP
//! transfers.
//!
//! The simulator is organised as:
//!
//! - a [`Network`]: the paper's [`star`] of [`LinkSpec`]-described access
//!   links around one hub, every route up one link and down another;
//! - application [`NodeBehavior`]s that react to [`NodeEvent`]s through a
//!   [`Ctx`] handle (messages, transfers, timers, churn);
//! - a TCP flow model ([`TcpConfig`]) advanced in RTT rounds with slow
//!   start, AIMD, Bernoulli loss, and max–min fair capacity sharing, or as
//!   event-driven fluid rates ([`FlowModel::Fluid`]) for large swarms;
//! - the [`Simulator`] event loop, seeded for bit-exact reproducibility.
//!
//! ## Example
//!
//! ```
//! use splicecast_netsim::{star, LinkSpec, NullBehavior, SimDuration, SimTime, Simulator};
//!
//! // Two peers behind 128 kB/s access links with 25 ms latency, via a hub.
//! let spec = LinkSpec::from_bytes_per_sec(128_000.0, SimDuration::from_millis(25), 0.0);
//! let star = star(&[spec, spec]);
//! let mut sim = Simulator::new(star.network, 42);
//! sim.add_node(Box::new(NullBehavior)); // hub
//! sim.add_node(Box::new(NullBehavior));
//! sim.add_node(Box::new(NullBehavior));
//! let end = sim.run_until_idle(SimTime::from_secs_f64(1.0));
//! assert_eq!(end, SimTime::ZERO); // nothing scheduled anything
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod event;
mod fault;
mod fifo;
mod fluid;
mod id;
mod link;
mod node;
mod sim;
mod tcp;
mod time;
mod topology;

pub mod rng;

pub use error::NetError;
pub use fault::{InjectedFaults, MessageFaults};
pub use fluid::FluidSolverStats;
pub use id::{DirLinkId, FlowId, LinkId, NodeId};
pub use link::LinkSpec;
pub use node::{NodeBehavior, NodeEvent, NullBehavior};
pub use sim::{Ctx, SimStats, Simulator};
pub use tcp::{FlowModel, TcpConfig};
pub use time::{SimDuration, SimTime};
pub use topology::{star, Network, PathProperties, Route, Star};
