//! The 30 pre-registered Figure 2–5 shape predicates of
//! `tests/figure_shapes.rs`, re-stated over a grid pass so the benchmark
//! can count how many fail on each stack. The repository holds no numeric
//! reference from the paper, so this count is the accuracy figure.

use crate::counters::Qoe;

pub const PREDICATES: usize = 30;

/// Evaluates every predicate; `at(fig, variant, kbps)` returns a grid
/// point's seed-averaged QoE. Returns the descriptions of those that fail.
pub fn violations(at: &dyn Fn(&str, &str, u32) -> Qoe) -> Vec<String> {
    let mut checked = 0;
    let mut failed = Vec::new();
    let mut check = |holds: bool, what: String| {
        checked += 1;
        if !holds {
            failed.push(what);
        }
    };
    let stalls = |variant: &str, kbps: u32| at("fig2", variant, kbps).stalls;

    // Figure 2: GOP splicing stalls most at every bandwidth (12).
    for kbps in [128, 256, 512, 768] {
        for d in ["2s", "4s", "8s"] {
            check(
                stalls("gop", kbps) > stalls(d, kbps),
                format!("fig2: gop stalls more than {d} at {kbps} kB/s"),
            );
        }
    }
    // Figure 2: 2 s splicing clearly loses to 4 s on thin links and the
    // gap shrinks with bandwidth (2).
    let low_gap = stalls("2s", 128) / stalls("4s", 128);
    let high_gap = stalls("2s", 768) / stalls("4s", 768);
    check(
        low_gap > 1.3,
        "fig2: 2s stalls over 1.3x of 4s at 128 kB/s".into(),
    );
    check(
        high_gap < low_gap,
        "fig2: the 2s/4s gap shrinks from 128 to 768 kB/s".into(),
    );
    // Figure 3: GOP splicing has the longest stall time (3).
    for kbps in [128, 256, 768] {
        check(
            at("fig2", "gop", kbps).stall_secs > at("fig2", "4s", kbps).stall_secs,
            format!("fig3: gop stalls longer than 4s at {kbps} kB/s"),
        );
    }
    // Figure 4: startup orders by segment size and by bandwidth (7).
    let startup = |d: &str, kbps: u32| at("fig4", d, kbps).startup_secs;
    for kbps in [128, 1024] {
        check(
            startup("2s", kbps) < startup("4s", kbps),
            format!("fig4: 2s starts before 4s at {kbps} kB/s"),
        );
        check(
            startup("4s", kbps) < startup("8s", kbps),
            format!("fig4: 4s starts before 8s at {kbps} kB/s"),
        );
    }
    for d in ["2s", "4s", "8s"] {
        check(
            startup(d, 1024) < startup(d, 128),
            format!("fig4: {d} starts sooner at 1024 than at 128 kB/s"),
        );
    }
    // Figure 5: adaptive pooling starts fastest (6).
    for kbps in [128, 768] {
        for fixed in ["fixed2", "fixed4", "fixed8"] {
            check(
                at("fig5", "adaptive", kbps).startup_secs < at("fig5", fixed, kbps).startup_secs,
                format!("fig5: adaptive starts before {fixed} at {kbps} kB/s"),
            );
        }
    }
    assert_eq!(checked, PREDICATES, "the predicate list drifted");
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_grid_shaped_like_the_paper_passes_and_a_flat_one_does_not() {
        // Stalls fall with segment length and bandwidth, startup grows
        // with segment length and falls with bandwidth, fixed pools start
        // later than the adaptive one.
        let paper_like = |fig: &str, variant: &str, kbps: u32| {
            let size = match variant {
                "gop" => 0.5,
                "2s" | "adaptive" => 2.0,
                "4s" | "fixed2" => 4.0,
                _ => 8.0,
            };
            let bw = f64::from(kbps);
            Qoe {
                stalls: 1000.0 / (size * bw) + if fig == "fig2" { 1.0 } else { 0.0 },
                stall_secs: 5000.0 / (size * bw),
                startup_secs: size * 100.0 / bw,
            }
        };
        assert_eq!(violations(&paper_like), Vec::<String>::new());
        let flat = |_: &str, _: &str, _: u32| Qoe {
            stalls: 1.0,
            stall_secs: 1.0,
            startup_secs: 1.0,
        };
        assert_eq!(violations(&flat).len(), PREDICATES);
    }
}
