//! Peer churn: the arrival/departure dynamics of §III's motivation
//! ("peers can leave the swarm anytime").

use rand::rngs::StdRng;
use rand::Rng;

use crate::{must, positive_secs, rule};

/// Configures which peers leave and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Fraction of leechers that will depart before finishing.
    pub volatile_fraction: f64,
    /// Mean lifetime of a volatile peer after joining, seconds
    /// (exponentially distributed).
    pub mean_lifetime_secs: f64,
}

impl ChurnConfig {
    /// Creates a churn config.
    ///
    /// # Panics
    ///
    /// Panics if `volatile_fraction` is outside `[0, 1]` or the lifetime is
    /// not positive.
    pub fn new(volatile_fraction: f64, mean_lifetime_secs: f64) -> Self {
        let config = ChurnConfig {
            volatile_fraction,
            mean_lifetime_secs,
        };
        must(config.check());
        config
    }

    /// Checks the knobs: a fraction outside `[0, 1]` or a lifetime that is
    /// not positive or longer than a day is an `Err` naming the rule.
    pub fn check(&self) -> Result<(), String> {
        rule(
            (0.0..=1.0).contains(&self.volatile_fraction),
            format!(
                "volatile fraction must be in [0,1], got {}",
                self.volatile_fraction
            ),
        )?;
        positive_secs("mean lifetime", self.mean_lifetime_secs)
    }

    /// Samples a departure delay (seconds after joining) for each of
    /// `n_peers` leechers; `None` means the peer stays.
    pub fn sample_departures(&self, n_peers: usize, rng: &mut StdRng) -> Vec<Option<f64>> {
        sample_lifetimes(
            self.volatile_fraction,
            self.mean_lifetime_secs,
            n_peers,
            rng,
        )
    }
}

/// For each of `n_peers` peers: with probability `fraction`, an
/// exponentially distributed lifetime of mean `mean_secs`, else `None`.
/// Graceful departures and crash-stops draw alike.
pub(crate) fn sample_lifetimes(
    fraction: f64,
    mean_secs: f64,
    n_peers: usize,
    rng: &mut StdRng,
) -> Vec<Option<f64>> {
    (0..n_peers)
        .map(|_| {
            if rng.gen::<f64>() < fraction {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                Some(-u.ln() * mean_secs)
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_fraction_means_no_departures() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = ChurnConfig::new(0.0, 10.0).sample_departures(50, &mut rng);
        assert!(d.iter().all(Option::is_none));
    }

    #[test]
    fn full_fraction_means_all_depart() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = ChurnConfig::new(1.0, 10.0).sample_departures(50, &mut rng);
        assert!(d.iter().all(Option::is_some));
        assert!(d.iter().flatten().all(|&t| t > 0.0));
    }

    #[test]
    fn mean_lifetime_is_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = ChurnConfig::new(1.0, 30.0).sample_departures(4_000, &mut rng);
        let mean: f64 = d.iter().flatten().sum::<f64>() / 4_000.0;
        assert!((mean - 30.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let cfg = ChurnConfig::new(0.5, 20.0);
        let a = cfg.sample_departures(10, &mut StdRng::seed_from_u64(3));
        let b = cfg.sample_departures(10, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn bad_fraction_panics() {
        let _ = ChurnConfig::new(1.5, 10.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_lifetime_panics() {
        let _ = ChurnConfig::new(0.5, 0.0);
    }

    /// A departure sampled from an infinite mean is no instant of the
    /// simulator's clock.
    #[test]
    fn unbounded_lifetime_is_a_check_error() {
        for mean_lifetime_secs in [f64::INFINITY, 1e30, f64::NAN] {
            let config = ChurnConfig {
                volatile_fraction: 0.5,
                mean_lifetime_secs,
            };
            let err = config.check().unwrap_err();
            assert!(err.contains("at most 86400 s"), "{err}");
        }
    }
}
