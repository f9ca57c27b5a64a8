//! The parts of the splicecast benchmark: workloads, counter reads, the
//! traced rebuild, the layer drivers, the shape predicates and a small
//! JSON module. `main.rs` is the command line over them; `README.md` says
//! what is measured and why.

pub mod counters;
pub mod drivers;
pub mod json;
pub mod shapes;
pub mod traced;
pub mod workloads;

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
