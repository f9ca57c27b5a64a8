//! Hybrid-CDN support (§IV): an origin with a fat pipe that serves
//! segments one at a time per peer.

use crate::{link_rate, rule, MAX_KNOB_SECS};

/// Configuration of the CDN node added to the star in hybrid mode.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Checks the configuration: a bandwidth that is not a finite positive
    /// rate, a latency outside `[0, MAX_KNOB_SECS]` or no upload slot is an
    /// `Err` naming the rule — the CDN link's constructors would refuse
    /// them with a panic.
    pub fn check(&self) -> Result<(), String> {
        rule(
            link_rate(self.bandwidth_bytes_per_sec),
            format!(
                "cdn bandwidth must be positive and finite, got {}",
                self.bandwidth_bytes_per_sec
            ),
        )?;
        rule(
            (0.0..=MAX_KNOB_SECS).contains(&self.one_way_latency_secs),
            format!(
                "cdn latency must be in [0,{MAX_KNOB_SECS}] s, got {}",
                self.one_way_latency_secs
            ),
        )?;
        rule(self.upload_slots > 0, "cdn upload slots must be positive")
    }
}

/// §IV: the largest segment a CDN-served peer can afford.
///
/// When a CDN serves the stream, peers fetch one segment at a time; the
/// next segment must arrive within the `T` seconds of buffered playback,
/// so its size is bounded by `B·T` bytes.
///
/// # Examples
///
/// ```
/// use splicecast_swarm::max_cdn_segment_bytes;
///
/// assert_eq!(max_cdn_segment_bytes(128_000.0, 4.0), 512_000);
/// ```
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

/// Inverts §IV for planning: the largest segment *duration* (seconds) that
/// stays under the `B·T` byte bound of [`max_cdn_segment_bytes`] for a
/// video of the given bitrate, assuming the steady state where `T` equals
/// one segment duration `d` (the buffer holds the previous segment while
/// the next downloads): `d · bitrate/8 ≤ B·d` holds for any `d` iff
/// `bitrate/8 ≤ B`, so the constraint binds through the startup condition
/// `T = d₀` instead: `d · bitrate/8 ≤ B·T` ⇒ `d ≤ 8·B·T / bitrate`.
pub fn max_cdn_segment_secs(
    bandwidth_bytes_per_sec: f64,
    buffered_secs: f64,
    video_bitrate_bps: f64,
) -> f64 {
    // NaN bitrates fall into the guard like non-positive ones.
    if video_bitrate_bps.is_nan() || video_bitrate_bps <= 0.0 {
        return 0.0;
    }
    (8.0 * bandwidth_bytes_per_sec * buffered_secs / video_bitrate_bps).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(CdnConfig::default().check(), Ok(()));
    }

    #[test]
    fn segment_bound_is_b_times_t() {
        assert_eq!(max_cdn_segment_bytes(128_000.0, 4.0), 512_000);
        assert_eq!(max_cdn_segment_bytes(128_000.0, 0.0), 0);
        assert_eq!(max_cdn_segment_bytes(0.0, 4.0), 0);
        assert_eq!(max_cdn_segment_bytes(f64::NAN, 4.0), 0);
    }

    #[test]
    fn cdn_duration_bound() {
        // 1 Mbps video, 128 kB/s link, 4 s buffered → ≈ 4.1 s segments max.
        let d = max_cdn_segment_secs(128_000.0, 4.0, 1_000_000.0);
        assert!((d - 4.096).abs() < 1e-9, "{d}");
        assert_eq!(max_cdn_segment_secs(128_000.0, 4.0, 0.0), 0.0);
    }

    #[test]
    fn cdn_byte_bound_consistency() {
        // The byte bound at (B, T) divided by the byte-rate of the video
        // equals the duration bound.
        let bytes = max_cdn_segment_bytes(128_000.0, 4.0) as f64;
        let secs = max_cdn_segment_secs(128_000.0, 4.0, 1_000_000.0);
        assert!((bytes / 125_000.0 - secs).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        crate::SwarmConfig {
            cdn: Some(CdnConfig {
                bandwidth_bytes_per_sec: 0.0,
                ..CdnConfig::default()
            }),
            ..crate::SwarmConfig::default()
        }
        .validate();
    }
}
