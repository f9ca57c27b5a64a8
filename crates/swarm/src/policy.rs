//! Download policies: how many segments to fetch simultaneously.
//!
//! This is the paper's §III. A peer that has `T` seconds of playback
//! buffered, sees `B` bytes/s of per-peer bandwidth, and downloads
//! `W`-byte segments should keep at most
//!
//! ```text
//! k = max( ⌊B·T / W⌋, 1 )            (Eq. 1)
//! ```
//!
//! downloads in flight: all `k` must land within `T` seconds or the play-out
//! runs dry, and `B·T` bytes is all the pipe can move in that window.

/// Eq. 1 (§III): the number of segments a peer should download
/// simultaneously.
///
/// With per-peer bandwidth `B` (bytes/s), `T` seconds of playback already
/// buffered, and `W`-byte segments:
///
/// ```text
/// k = max( ⌊B·T / W⌋, 1 )
/// ```
///
/// All `k` in-flight segments must finish within `T` seconds (their order
/// of completion is unknowable, so each must be assumed last); the pipe
/// moves `B·T` bytes in that window, hence at most `B·T/W` segments. At
/// stream start, right after a stall, or with a drained buffer (`T <= 0`)
/// the peer downloads exactly one segment; likewise whenever `B·T < W`.
///
/// # Examples
///
/// ```
/// use splicecast_swarm::optimal_pool_size;
///
/// // 128 kB/s, 8 s buffered, 256 kB segments → 4 parallel downloads.
/// assert_eq!(optimal_pool_size(128_000.0, 8.0, 256_000), 4);
/// // Nothing buffered → sequential.
/// assert_eq!(optimal_pool_size(128_000.0, 0.0, 256_000), 1);
/// ```
pub fn optimal_pool_size(
    bandwidth_bytes_per_sec: f64,
    buffered_secs: f64,
    next_segment_bytes: u64,
) -> usize {
    // NaN inputs fall into the guard like non-positive ones.
    if bandwidth_bytes_per_sec.is_nan()
        || bandwidth_bytes_per_sec <= 0.0
        || buffered_secs.is_nan()
        || buffered_secs <= 0.0
        || next_segment_bytes == 0
    {
        return 1;
    }
    let k = (bandwidth_bytes_per_sec * buffered_secs / next_segment_bytes as f64).floor();
    if k < 1.0 {
        1
    } else if k >= usize::MAX as f64 {
        usize::MAX
    } else {
        k as usize
    }
}

/// How the policy's `W` (segment size) is obtained.
///
/// Eq. 1 assumes "the size of each segment is W bytes" — i.e. uniform
/// segments. With GOP-based splicing sizes vary wildly, and a client
/// implementing the paper's formula plugs in the only scalar it has: the
/// mean. [`WEstimate::NextSegment`] is the smarter variant that reads the
/// actual size of the next wanted segment from the manifest (an ablation
/// of the paper's design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WEstimate {
    /// `W` = total transfer bytes / segment count (the paper's model).
    MeanSegment,
    /// `W` = the next wanted segment's actual size.
    NextSegment,
}

/// Policy selector for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyConfig {
    /// Eq. 1 adaptive pooling.
    Adaptive,
    /// Fixed pool of the given size.
    Fixed(usize),
}

impl PolicyConfig {
    /// The rule the selector breaks, if any: a fixed pool of zero would
    /// report itself as `pool-0` and run as a pool of one.
    pub fn check(&self) -> Result<(), String> {
        crate::rule(
            *self != PolicyConfig::Fixed(0),
            "a fixed pool needs at least one slot",
        )
    }

    /// The pool size this selector allows with `B` =
    /// `bandwidth_bytes_per_sec`, `T` = `buffered_secs` and `W` =
    /// `next_segment_bytes`: Eq. 1 ([`optimal_pool_size`]) when adaptive,
    /// the fixed size (at least one) otherwise.
    ///
    /// # Examples
    ///
    /// ```
    /// use splicecast_swarm::PolicyConfig;
    ///
    /// assert_eq!(PolicyConfig::Adaptive.pool_size(128_000.0, 8.0, 256_000), 4); // ⌊128k · 8 / 256k⌋
    /// assert_eq!(PolicyConfig::Fixed(8).pool_size(128_000.0, 8.0, 256_000), 8);
    /// ```
    pub fn pool_size(
        &self,
        bandwidth_bytes_per_sec: f64,
        buffered_secs: f64,
        next_segment_bytes: u64,
    ) -> usize {
        match *self {
            PolicyConfig::Adaptive => {
                optimal_pool_size(bandwidth_bytes_per_sec, buffered_secs, next_segment_bytes)
            }
            PolicyConfig::Fixed(k) => k.max(1),
        }
    }

    /// Retired: the selector is the policy, so this returns it unchanged.
    /// It stays only because `benchmark/src/traced.rs` calls it to fill
    /// [`LeecherConfig::policy`](crate::LeecherConfig::policy)
    /// (ROADMAP 5(a)).
    pub fn build(&self) -> PolicyConfig {
        *self
    }
}

/// How the `B` of Eq. 1 is obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Use the configured bandwidth directly (the paper "simulated the
    /// bandwidth on GENI" and plugged the known value in).
    Oracle,
    /// Exponentially-weighted moving average of observed per-transfer
    /// goodput, seeded with the configured hint — what a real client does.
    Ewma {
        /// Weight of each new observation, in `(0, 1]`.
        alpha: f64,
    },
}

/// Estimates per-peer available bandwidth from completed transfers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthEstimator {
    kind: EstimatorKind,
    current_bytes_per_sec: f64,
}

impl BandwidthEstimator {
    /// Creates an estimator seeded with `hint_bytes_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if the hint is not positive or an EWMA alpha is out of range.
    pub fn new(kind: EstimatorKind, hint_bytes_per_sec: f64) -> Self {
        assert!(hint_bytes_per_sec > 0.0, "bandwidth hint must be positive");
        if let EstimatorKind::Ewma { alpha } = kind {
            assert!(
                (0.0..=1.0).contains(&alpha) && alpha > 0.0,
                "alpha must be in (0,1]"
            );
        }
        BandwidthEstimator {
            kind,
            current_bytes_per_sec: hint_bytes_per_sec,
        }
    }

    /// Feeds one completed transfer (`bytes` over `secs`).
    pub fn observe(&mut self, bytes: u64, secs: f64) {
        if secs <= 0.0 {
            return;
        }
        if let EstimatorKind::Ewma { alpha } = self.kind {
            let sample = bytes as f64 / secs;
            self.current_bytes_per_sec =
                alpha * sample + (1.0 - alpha) * self.current_bytes_per_sec;
        }
    }

    /// The current estimate in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.current_bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_matches_the_paper_edge_cases() {
        // T = 0 (start of streaming / just stalled) → always 1.
        assert_eq!(optimal_pool_size(128_000.0, 0.0, 256_000), 1);
        // B·T < W → 1.
        assert_eq!(optimal_pool_size(128_000.0, 1.0, 256_000), 1);
        // Otherwise ⌊B·T/W⌋.
        assert_eq!(optimal_pool_size(128_000.0, 16.0, 256_000), 8);
        assert_eq!(optimal_pool_size(128_000.0, 15.99, 256_000), 7);
    }

    #[test]
    fn eq1_degenerate_inputs_fall_back_to_one() {
        assert_eq!(optimal_pool_size(0.0, 10.0, 1), 1);
        assert_eq!(optimal_pool_size(-5.0, 10.0, 1), 1);
        assert_eq!(optimal_pool_size(f64::NAN, 10.0, 1), 1);
        assert_eq!(optimal_pool_size(100.0, f64::NAN, 1), 1);
        assert_eq!(optimal_pool_size(100.0, 10.0, 0), 1);
    }

    #[test]
    fn eq1_is_monotone_in_b_and_t_and_antitone_in_w() {
        let base = optimal_pool_size(100_000.0, 10.0, 100_000);
        assert!(optimal_pool_size(200_000.0, 10.0, 100_000) >= base);
        assert!(optimal_pool_size(100_000.0, 20.0, 100_000) >= base);
        assert!(optimal_pool_size(100_000.0, 10.0, 200_000) <= base);
    }

    #[test]
    fn fixed_pool_ignores_inputs() {
        let p = PolicyConfig::Fixed(4);
        assert_eq!(p.pool_size(1.0, 0.0, 1), 4);
        assert_eq!(p.pool_size(1e9, 1e9, 1), 4);
        assert_eq!(
            PolicyConfig::Fixed(0).pool_size(1.0, 1.0, 1),
            1,
            "clamped to 1"
        );
    }

    #[test]
    fn policy_config_builds() {
        for policy in [PolicyConfig::Adaptive, PolicyConfig::Fixed(8)] {
            assert_eq!(policy.build(), policy, "retired: the identity");
        }
        assert_eq!(PolicyConfig::Adaptive.pool_size(128_000.0, 8.0, 256_000), 4);
        assert_eq!(PolicyConfig::Fixed(8).pool_size(128_000.0, 8.0, 256_000), 8);
    }

    #[test]
    fn oracle_estimator_never_moves() {
        let mut e = BandwidthEstimator::new(EstimatorKind::Oracle, 128_000.0);
        e.observe(1, 100.0);
        assert_eq!(e.bytes_per_sec(), 128_000.0);
    }

    #[test]
    fn ewma_estimator_tracks_observations() {
        let mut e = BandwidthEstimator::new(EstimatorKind::Ewma { alpha: 0.5 }, 100.0);
        e.observe(300, 1.0); // sample 300 → 200
        assert!((e.bytes_per_sec() - 200.0).abs() < 1e-9);
        e.observe(200, 1.0); // sample 200 → 200
        assert!((e.bytes_per_sec() - 200.0).abs() < 1e-9);
        e.observe(0, 0.0); // ignored
        assert!((e.bytes_per_sec() - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "hint must be positive")]
    fn zero_hint_panics() {
        let _ = BandwidthEstimator::new(EstimatorKind::Oracle, 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn bad_alpha_panics() {
        let _ = BandwidthEstimator::new(EstimatorKind::Ewma { alpha: 0.0 }, 1.0);
    }
}
