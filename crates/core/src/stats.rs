//! Small statistics helpers for experiment summaries.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Median (mean of middle two for even n).
    pub median: f64,
}

impl Summary {
    /// Summarises a sample. Returns the zero summary for an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median,
        }
    }
}

/// The paper's "rounded average": round half away from zero to an integer.
pub fn rounded_mean(values: &[f64]) -> i64 {
    Summary::of(values).mean.round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn summary_edge_cases() {
        assert_eq!(Summary::of(&[]), Summary::default());
        let single = Summary::of(&[3.5]);
        assert_eq!(single.n, 1);
        assert_eq!(single.mean, 3.5);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.median, 3.5);
    }

    #[test]
    fn odd_median() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
    }

    #[test]
    fn rounded_mean_matches_paper_convention() {
        assert_eq!(rounded_mean(&[1.0, 2.0]), 2); // 1.5 rounds up
        assert_eq!(rounded_mean(&[1.0, 1.0, 2.0]), 1);
        assert_eq!(rounded_mean(&[]), 0);
    }
}
