//! Deterministic fault injection: control-message loss/delay and scheduled
//! offline windows.
//!
//! The fault plane draws from its **own** seeded RNG stream, so installing it
//! (or changing its knobs) never perturbs the simulator's main RNG: a run
//! with every knob at zero takes exactly the code paths — and produces
//! exactly the output — of a run with no fault plane at all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// Injected control-message fault knobs, applied only to messages sent by a
/// faulty [`crate::Ctx::multicast`] (applications choose which traffic
/// classes are droppable; e.g. handshakes and goodbyes stay reliable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageFaults {
    /// Seed of the fault plane's dedicated RNG stream.
    pub seed: u64,
    /// Probability that a droppable message silently vanishes. The sender
    /// still sees `Ok` — that is the point.
    pub loss: f64,
    /// Probability that a surviving droppable message is delayed by an extra
    /// uniform `[0, delay_max)` on top of its normal path delay.
    pub delay_prob: f64,
    /// Upper bound of the injected extra delay.
    pub delay_max: SimDuration,
}

impl MessageFaults {
    /// Whether any knob is nonzero. An inactive config installs no plane, so
    /// zero-fault scenarios stay bit-identical to fault-free ones.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0 || (self.delay_prob > 0.0 && !self.delay_max.is_zero())
    }
}

/// Counters of faults the simulator actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Droppable messages silently discarded.
    pub messages_dropped: u64,
    /// Droppable messages delivered with injected extra delay.
    pub messages_delayed: u64,
    /// Scheduled offline windows that began (node was up and went down).
    pub outages_started: u64,
    /// Scheduled offline windows that ended (node came back up).
    pub outages_ended: u64,
}

impl InjectedFaults {
    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: &InjectedFaults) {
        self.messages_dropped += other.messages_dropped;
        self.messages_delayed += other.messages_delayed;
        self.outages_started += other.outages_started;
        self.outages_ended += other.outages_ended;
    }
}

/// The fate the fault plane assigns one droppable message.
pub(crate) enum MessageFate {
    Deliver,
    Drop,
    Delay(SimDuration),
}

/// Installed fault plane: the knobs plus the dedicated RNG stream.
pub(crate) struct FaultPlane {
    cfg: MessageFaults,
    rng: StdRng,
}

impl FaultPlane {
    pub(crate) fn new(cfg: MessageFaults) -> Self {
        FaultPlane {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// Rolls the dice for one droppable message. Loss is checked first: a
    /// dropped message consumes only the loss draw, keeping the stream
    /// deterministic regardless of the delay knobs.
    pub(crate) fn roll(&mut self) -> MessageFate {
        if self.cfg.loss > 0.0 && self.rng.gen::<f64>() < self.cfg.loss {
            return MessageFate::Drop;
        }
        if self.cfg.delay_prob > 0.0
            && !self.cfg.delay_max.is_zero()
            && self.rng.gen::<f64>() < self.cfg.delay_prob
        {
            let frac = self.rng.gen::<f64>();
            return MessageFate::Delay(self.cfg.delay_max.mul_f64(frac));
        }
        MessageFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_knobs_are_inactive() {
        let cfg = MessageFaults {
            seed: 7,
            loss: 0.0,
            delay_prob: 0.0,
            delay_max: SimDuration::from_secs(1),
        };
        assert!(!cfg.is_active());
        // Delay probability without a window is equally inert.
        let cfg = MessageFaults {
            delay_prob: 0.5,
            delay_max: SimDuration::ZERO,
            ..cfg
        };
        assert!(!cfg.is_active());
        let cfg = MessageFaults { loss: 0.01, ..cfg };
        assert!(cfg.is_active());
    }

    #[test]
    fn certain_loss_drops_everything() {
        let mut plane = FaultPlane::new(MessageFaults {
            seed: 3,
            loss: 1.0,
            delay_prob: 1.0,
            delay_max: SimDuration::from_secs(1),
        });
        for _ in 0..100 {
            assert!(matches!(plane.roll(), MessageFate::Drop));
        }
    }

    #[test]
    fn rolls_are_deterministic_per_seed() {
        let cfg = MessageFaults {
            seed: 99,
            loss: 0.3,
            delay_prob: 0.5,
            delay_max: SimDuration::from_secs(2),
        };
        let fate_key = |fate: MessageFate| match fate {
            MessageFate::Deliver => 0,
            MessageFate::Drop => u64::MAX,
            MessageFate::Delay(d) => d.as_micros(),
        };
        let a: Vec<u64> = {
            let mut p = FaultPlane::new(cfg);
            (0..1000).map(|_| fate_key(p.roll())).collect()
        };
        let b: Vec<u64> = {
            let mut p = FaultPlane::new(cfg);
            (0..1000).map(|_| fate_key(p.roll())).collect()
        };
        assert_eq!(a, b);
        assert!(a.contains(&u64::MAX), "no drops at loss 0.3");
        assert!(
            a.iter().any(|&k| k != 0 && k != u64::MAX),
            "no delays at delay_prob 0.5"
        );
    }
}
