//! Small statistics helpers for experiment summaries.

/// The arithmetic mean of a sample; 0 for an empty one.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The paper's "rounded average": round half away from zero to an integer.
pub fn rounded_mean(values: &[f64]) -> i64 {
    mean(values).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        assert_eq!(mean(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]), 5.0);
    }

    #[test]
    fn summary_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[3.5]), 3.5);
    }

    #[test]
    fn rounded_mean_matches_paper_convention() {
        assert_eq!(rounded_mean(&[1.0, 2.0]), 2); // 1.5 rounds up
        assert_eq!(rounded_mean(&[1.0, 1.0, 2.0]), 1);
        assert_eq!(rounded_mean(&[]), 0);
    }
}
