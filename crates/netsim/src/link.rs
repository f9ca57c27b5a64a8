//! Links: the capacity, latency, and loss model of the simulated network.

use crate::time::SimDuration;

/// Static properties of one direction of a link.
///
/// Only the capacity may change during a run (see
/// [`crate::Simulator::schedule_capacity`]); latency and loss are fixed
/// for it. The control channel's FIFO clamp relies on that: an entry
/// expires once no later send on its pair can arrive at or before it,
/// which it reads from the least delay latency and loss allow.
///
/// # Examples
///
/// ```
/// use splicecast_netsim::{LinkSpec, SimDuration};
///
/// // A 128 kB/s access link with 25 ms one-way latency and ~2.5% loss.
/// let spec = LinkSpec::new(128_000.0 * 8.0, SimDuration::from_millis(25), 0.025);
/// assert_eq!(spec.capacity_bps / 8.0, 128_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub capacity_bps: f64,
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Probability that any given packet crossing the link is lost.
    pub loss: f64,
}

impl LinkSpec {
    /// Creates a link spec.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bps` is not positive/finite or `loss` is outside
    /// `[0, 1)`.
    pub fn new(capacity_bps: f64, latency: SimDuration, loss: f64) -> Self {
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "link capacity must be positive, got {capacity_bps}"
        );
        assert!(
            (0.0..1.0).contains(&loss),
            "loss must be in [0,1), got {loss}"
        );
        LinkSpec {
            capacity_bps,
            latency,
            loss,
        }
    }

    /// Convenience constructor taking capacity in bytes per second.
    pub fn from_bytes_per_sec(bytes_per_sec: f64, latency: SimDuration, loss: f64) -> Self {
        Self::new(bytes_per_sec * 8.0, latency, loss)
    }
}

/// One access link of the star, with independent per-direction specs
/// (capacity is *not* shared between directions, as on full-duplex
/// Ethernet).
#[derive(Debug, Clone)]
pub(crate) struct Link {
    /// Spec of the forward (leaf -> hub) direction.
    pub(crate) forward: LinkSpec,
    /// Spec of the backward (hub -> leaf) direction.
    pub(crate) backward: LinkSpec,
}

impl Link {
    /// Spec for the given direction.
    pub(crate) fn spec(&self, forward: bool) -> &LinkSpec {
        if forward {
            &self.forward
        } else {
            &self.backward
        }
    }

    pub(crate) fn spec_mut(&mut self, forward: bool) -> &mut LinkSpec {
        if forward {
            &mut self.forward
        } else {
            &mut self.backward
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_conversions() {
        let s = LinkSpec::from_bytes_per_sec(1_000.0, SimDuration::from_millis(10), 0.0);
        assert_eq!(s.capacity_bps, 8_000.0);
        assert_eq!(s.capacity_bps / 8.0, 1_000.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LinkSpec::new(0.0, SimDuration::ZERO, 0.0);
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn full_loss_panics() {
        let _ = LinkSpec::new(1.0, SimDuration::ZERO, 1.0);
    }

    #[test]
    fn directions() {
        let link = Link {
            forward: LinkSpec::new(8.0, SimDuration::ZERO, 0.0),
            backward: LinkSpec::new(16.0, SimDuration::ZERO, 0.0),
        };
        assert_eq!(link.spec(true).capacity_bps, 8.0);
        assert_eq!(link.spec(false).capacity_bps, 16.0);
    }
}
