//! The §IV segment-duration bound, standalone.
//!
//! Eq. 1 ([`crate::optimal_pool_size`]) and the §IV byte bound
//! ([`crate::max_cdn_segment_bytes`]) live in the swarm, which applies them
//! in its adaptive policy and CDN mode; the crate root re-exports them so
//! downstream users can apply them without running a simulation.

/// Inverts §IV for planning: the largest segment *duration* (seconds) that
/// stays under the `B·T` byte bound for a video of the given bitrate,
/// assuming the steady state where `T` equals one segment duration `d`
/// (the buffer holds the previous segment while the next downloads):
/// `d · bitrate/8 ≤ B·d` holds for any `d` iff `bitrate/8 ≤ B`, so the
/// constraint binds through the startup condition `T = d₀` instead:
/// `d · bitrate/8 ≤ B·T` ⇒ `d ≤ 8·B·T / bitrate`.
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
        let bytes = crate::max_cdn_segment_bytes(128_000.0, 4.0) as f64;
        let secs = max_cdn_segment_secs(128_000.0, 4.0, 1_000_000.0);
        assert!((bytes / 125_000.0 - secs).abs() < 1e-3);
    }
}
