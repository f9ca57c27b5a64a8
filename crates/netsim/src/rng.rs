//! Deterministic random sampling helpers.
//!
//! The simulator owns one seeded [`rand::rngs::StdRng`], which is what
//! makes runs reproducible. Two kinds of code read it, in event order: the
//! round model's per-round loss draws, and node behaviours through
//! `Ctx::rng` (a leecher's random pick among equal sources). A control
//! message draws nothing: it pays its expected retransmission delay. The
//! fault plane and swarm setup seed streams of their own. The helpers here
//! implement the distributions the simulator needs without pulling in
//! extra dependencies.

use rand::Rng;

/// Draws from a binomial distribution `Bin(n, p)`.
///
/// For small `n` the exact distribution is sampled by inversion — one
/// uniform draw walked down the CDF via the pmf recurrence — which costs
/// `O(np)` arithmetic instead of the `n` uniform draws of per-trial
/// sampling. For large `n` a normal approximation is used (with clamping to
/// `[0, n]`), which is accurate to well under a packet for the window sizes
/// the TCP model produces.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let k = splicecast_netsim::rng::binomial(&mut rng, 100, 0.05);
/// assert!(k <= 100);
/// ```
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if n <= 128 {
        // Keep the walked tail short and the starting pmf well away from
        // underflow by sampling the complement when p > 1/2.
        if p > 0.5 {
            n - binomial_inversion(rng, n, 1.0 - p)
        } else {
            binomial_inversion(rng, n, p)
        }
    } else {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let z = standard_normal(rng);
        let draw = (mean + sd * z).round();
        draw.clamp(0.0, n as f64) as u64
    }
}

/// Exact binomial sampling by CDF inversion, for `p <= 0.5` and small `n`.
fn binomial_inversion<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let q = 1.0 - p;
    let ratio = p / q;
    let mut pmf = q.powi(n as i32);
    let mut cdf = pmf;
    let u: f64 = rng.gen();
    let mut k = 0u64;
    while u > cdf && k < n {
        k += 1;
        pmf *= ratio * (n - k + 1) as f64 / k as f64;
        cdf += pmf;
    }
    k
}

/// Draws a standard normal variate via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn binomial_edges() {
        let mut r = rng();
        assert_eq!(binomial(&mut r, 0, 0.5), 0);
        assert_eq!(binomial(&mut r, 10, 0.0), 0);
        assert_eq!(binomial(&mut r, 10, 1.0), 10);
        assert_eq!(binomial(&mut r, 10, -1.0), 0);
        assert_eq!(binomial(&mut r, 10, 2.0), 10);
    }

    #[test]
    fn binomial_small_n_mean_is_close() {
        let mut r = rng();
        let trials = 4_000;
        let total: u64 = (0..trials).map(|_| binomial(&mut r, 20, 0.25)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn binomial_large_n_mean_is_close() {
        let mut r = rng();
        let trials = 4_000;
        let total: u64 = (0..trials).map(|_| binomial(&mut r, 10_000, 0.05)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 500.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn binomial_large_n_stays_in_range() {
        let mut r = rng();
        for _ in 0..1_000 {
            let k = binomial(&mut r, 1_000, 0.999);
            assert!(k <= 1_000);
        }
    }
}
