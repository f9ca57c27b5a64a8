//! Cross traffic: competing flows on the viewers' access links.
//!
//! The paper's §VIII asks for exactly this experiment: "we also should
//! experiment how the splicing works in case of competing flows and high
//! congestion environment". A [`CrossTrafficNode`] is a bulk-download
//! server off to the side of the star that keeps a configurable number of
//! long-lived transfers running *toward every viewer*, so the stream has
//! to share each access link with unrelated traffic.

use splicecast_netsim::{Ctx, NodeBehavior, NodeEvent, NodeId, SimDuration};

use crate::{must, rule};

/// Size of each background transfer, bytes; a finished transfer is
/// restarted immediately while the load window is open.
const TRANSFER_BYTES: u64 = 2_000_000;
/// How long the background load keeps restarting, seconds (bounded so runs
/// terminate).
const DURATION_SECS: f64 = 300.0;
/// Transfer tag of every background transfer: an index no segment has, so
/// a viewer drops the completion instead of booking it as video.
const BACKGROUND_TAG: u64 = u64::MAX;

/// Configuration of the background load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossTrafficConfig {
    /// Concurrent competing downloads per viewer.
    pub flows_per_peer: usize,
}

impl Default for CrossTrafficConfig {
    fn default() -> Self {
        CrossTrafficConfig { flows_per_peer: 1 }
    }
}

impl CrossTrafficConfig {
    /// Checks the configuration: zero flows is an `Err` naming the rule.
    pub fn check(&self) -> Result<(), String> {
        rule(
            self.flows_per_peer > 0,
            "cross traffic needs at least one flow per peer",
        )
    }
}

const TOKEN_STOP: u64 = 1;

/// The background bulk server.
#[derive(Debug)]
pub struct CrossTrafficNode {
    targets: Vec<NodeId>,
    config: CrossTrafficConfig,
    active: bool,
}

impl CrossTrafficNode {
    /// Creates a server that loads every node in `targets`.
    pub fn new(targets: Vec<NodeId>, config: CrossTrafficConfig) -> Self {
        must(config.check());
        CrossTrafficNode {
            targets,
            config,
            active: true,
        }
    }
}

impl NodeBehavior for CrossTrafficNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for &target in &self.targets {
            for _ in 0..self.config.flows_per_peer {
                let _ = ctx.start_transfer(target, TRANSFER_BYTES, BACKGROUND_TAG);
            }
        }
        ctx.set_timer(SimDuration::from_secs_f64(DURATION_SECS), TOKEN_STOP);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        match event {
            NodeEvent::Timer { token: TOKEN_STOP } => self.active = false,
            NodeEvent::UploadComplete { to, .. } if self.active && ctx.is_online(to) => {
                let _ = ctx.start_transfer(to, TRANSFER_BYTES, BACKGROUND_TAG);
            }
            // A failed upload means the viewer churned out: stop loading it.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(CrossTrafficConfig::default().check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn zero_flows_panics() {
        CrossTrafficNode::new(Vec::new(), CrossTrafficConfig { flows_per_peer: 0 });
    }
}
