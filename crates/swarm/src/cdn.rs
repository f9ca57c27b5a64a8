//! Hybrid-CDN support (§IV): an origin with a fat pipe that serves
//! segments one at a time per peer.

use serde::{Deserialize, Serialize};

use crate::{must, rule};

/// Configuration of the CDN node added to the star in hybrid mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CdnConfig {
    /// Access-link capacity of the CDN node, bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// One-way latency from a peer to the CDN, seconds.
    pub one_way_latency_secs: f64,
    /// Concurrent uploads the CDN will serve.
    pub upload_slots: usize,
}

impl Default for CdnConfig {
    fn default() -> Self {
        // A modest edge cache: 10 Mbps, 100 ms away, 32 parallel streams.
        CdnConfig {
            bandwidth_bytes_per_sec: 1_250_000.0,
            one_way_latency_secs: 0.1,
            upload_slots: 32,
        }
    }
}

impl CdnConfig {
    /// Checks the configuration: non-positive bandwidth/slots or a
    /// negative latency is an `Err` naming the rule.
    pub fn check(&self) -> Result<(), String> {
        rule(
            self.bandwidth_bytes_per_sec > 0.0,
            "cdn bandwidth must be positive",
        )?;
        rule(
            self.one_way_latency_secs >= 0.0,
            "cdn latency must be non-negative",
        )?;
        rule(self.upload_slots > 0, "cdn upload slots must be positive")
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`Self::check`]'s message when it fails.
    pub fn validate(&self) {
        must(self.check());
    }
}

/// The §IV bound: when a CDN serves the video one segment at a time, a
/// segment must be at most `B·T` bytes or fetching it will outlast the
/// buffer.
pub fn max_cdn_segment_bytes(bandwidth_bytes_per_sec: f64, buffered_secs: f64) -> u64 {
    // NaN inputs fall into the guard like non-positive ones.
    if bandwidth_bytes_per_sec.is_nan()
        || bandwidth_bytes_per_sec <= 0.0
        || buffered_secs.is_nan()
        || buffered_secs <= 0.0
    {
        return 0;
    }
    (bandwidth_bytes_per_sec * buffered_secs).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CdnConfig::default().validate();
    }

    #[test]
    fn segment_bound_is_b_times_t() {
        assert_eq!(max_cdn_segment_bytes(128_000.0, 4.0), 512_000);
        assert_eq!(max_cdn_segment_bytes(128_000.0, 0.0), 0);
        assert_eq!(max_cdn_segment_bytes(0.0, 4.0), 0);
        assert_eq!(max_cdn_segment_bytes(f64::NAN, 4.0), 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        CdnConfig {
            bandwidth_bytes_per_sec: 0.0,
            ..CdnConfig::default()
        }
        .validate();
    }
}
