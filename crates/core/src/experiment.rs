//! Multi-seed experiments and the worker pool that fans them out.
//!
//! The paper "ran the application three times for each bandwidth and took
//! the rounded average" (§VI-A), so the unit of work is one seeded run of
//! one experiment. [`run_all`] is the only place such runs are fanned out
//! over threads — a [`Grid`](crate::figures::Grid) hands it an experiment
//! per cell, [`run_averaged`] a single one — and
//! [`AveragedMetrics::from_runs`] the only fold. The adaptive-bitrate
//! baseline's runs go through [`run_abr_all`], on the same pool.

use splicecast_media::Ladder;
use splicecast_swarm::{run_abr, AbrConfig, SwarmMetrics};

use crate::config::ExperimentConfig;
use crate::runner::{PreparedExperiment, RunResult};
use crate::stats::{mean, rounded_mean};

/// Seeds used when the caller does not supply their own (three runs, like
/// the paper).
pub const DEFAULT_SEEDS: [u64; 3] = [101, 202, 303];

/// Averages over seeded runs of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedMetrics {
    /// Number of runs.
    pub runs: usize,
    /// Mean (over runs) of the per-viewer mean stall count.
    pub stalls: f64,
    /// The paper's headline number: the rounded average stall count.
    pub rounded_stalls: i64,
    /// Mean of per-viewer total stall duration, seconds.
    pub stall_secs: f64,
    /// Mean of per-viewer startup time, seconds.
    pub startup_secs: f64,
    /// Mean fraction of viewers that finished the video.
    pub completion_rate: f64,
    /// Mean fraction of segment deliveries served by other peers.
    pub peer_offload: f64,
    /// Splicing overhead ratio (identical across runs).
    pub overhead_ratio: f64,
    /// Number of segments (identical across runs).
    pub segment_count: usize,
    /// Control-plane counters summed over every run (divide by `runs` for
    /// a per-run view).
    pub control: splicecast_swarm::ControlPlaneStats,
    /// Scheduler counters summed over every run.
    pub sched: splicecast_swarm::SchedulerStats,
    /// Peer-side fault/defense counters summed over every run.
    pub fault: splicecast_swarm::PeerFaultStats,
    /// Netsim-level injected-fault counters summed over every run.
    pub injected: splicecast_netsim::InjectedFaults,
    /// Peer memory accounting summed over every run (divide by `runs` ×
    /// leechers for bytes per peer).
    pub mem: splicecast_swarm::PeerMemStats,
}

impl AveragedMetrics {
    /// Folds per-run results into averages.
    ///
    /// # Panics
    ///
    /// Panics on an empty result list.
    pub fn from_runs(results: &[RunResult]) -> Self {
        assert!(!results.is_empty(), "no runs to average");
        let per_run = |metric: fn(&SwarmMetrics) -> f64| -> Vec<f64> {
            results.iter().map(|r| metric(&r.metrics)).collect()
        };
        let stalls = per_run(SwarmMetrics::mean_stalls);
        let mut control = splicecast_swarm::ControlPlaneStats::default();
        let mut sched = splicecast_swarm::SchedulerStats::default();
        let mut fault = splicecast_swarm::PeerFaultStats::default();
        let mut injected = splicecast_netsim::InjectedFaults::default();
        let mut mem = splicecast_swarm::PeerMemStats::default();
        for r in results {
            control.absorb(&r.metrics.control_totals());
            sched.absorb(&r.metrics.sched_totals());
            fault.absorb(&r.metrics.fault_totals());
            injected.absorb(&r.metrics.injected);
            mem.absorb(&r.metrics.mem_totals());
        }
        AveragedMetrics {
            runs: results.len(),
            rounded_stalls: rounded_mean(&stalls),
            stalls: mean(&stalls),
            stall_secs: mean(&per_run(SwarmMetrics::mean_stall_secs)),
            startup_secs: mean(&per_run(SwarmMetrics::mean_startup_secs)),
            completion_rate: mean(&per_run(SwarmMetrics::completion_rate)),
            peer_offload: mean(&per_run(SwarmMetrics::peer_offload_ratio)),
            overhead_ratio: results[0].overhead_ratio,
            segment_count: results[0].segment_count,
            control,
            sched,
            fault,
            injected,
            mem,
        }
    }

    /// Mean measured bytes of swarm state per leecher: the summed memory
    /// accounting divided over `leechers_per_run` peers in each run.
    pub fn mem_bytes_per_peer(&self, leechers_per_run: usize) -> f64 {
        let peers = (self.runs * leechers_per_run) as f64;
        if peers == 0.0 {
            0.0
        } else {
            self.mem.total_bytes() as f64 / peers
        }
    }
}

/// Runs `config` once per seed and averages, exactly like the paper's
/// three-run methodology (the video is encoded and spliced once).
///
/// # Panics
///
/// Panics when `seeds` is empty or a run panics.
pub fn run_averaged(config: &ExperimentConfig, seeds: &[u64]) -> AveragedMetrics {
    let prepared = [PreparedExperiment::new(config)];
    AveragedMetrics::from_runs(&run_all(&prepared, seeds, 1, |_| "the run".to_owned())[0])
}

/// Runs every experiment once per seed on up to `workers` threads — with
/// `k` seeds, job `j` is `prepared[j / k].run(seeds[j % k])` — and returns
/// each experiment's runs in seed order. Every job is an independent
/// deterministic run, so the result is the same for any count ≥ 1; up to
/// `min(workers, jobs)` swarms are resident at once.
///
/// # Panics
///
/// Panics when `seeds` is empty, `workers` is zero, or a run panics, with
/// `"seed <s> of <label(i)> panicked: <message>"` for experiment `i`.
pub fn run_all(
    prepared: &[PreparedExperiment],
    seeds: &[u64],
    workers: usize,
    label: impl Fn(usize) -> String + Sync,
) -> Vec<Vec<RunResult>> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let k = seeds.len();
    let mut runs = run_ordered(
        prepared.len() * k,
        workers,
        |j| format!("seed {} of {}", seeds[j % k], label(j / k)),
        |j| prepared[j / k].run(seeds[j % k]),
    )
    .into_iter();
    prepared
        .iter()
        .map(|_| runs.by_ref().take(k).collect())
        .collect()
}

/// Runs every ABR configuration once per seed on up to `workers` threads,
/// job `j` being `configs[j / k]` on `seeds[j % k]` as in [`run_all`], and
/// returns each configuration's seed means of `[stalls, stall seconds,
/// startup seconds, delivered bits per second]`. The sums fold in seed
/// order, so no value depends on `workers`.
///
/// # Panics
///
/// Panics when `seeds` is empty, `workers` is zero, or a run panics, with
/// `"seed <s> of <algorithm> at <bandwidth> panicked: <message>"`.
pub fn run_abr_all(
    ladder: &Ladder,
    configs: &[AbrConfig],
    seeds: &[u64],
    workers: usize,
) -> Vec<[f64; 4]> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let k = seeds.len();
    let runs = run_ordered(
        configs.len() * k,
        workers,
        |j| {
            let config = &configs[j / k];
            let kbps = config.client_bandwidth_bytes_per_sec / 1e3;
            format!(
                "seed {} of {:?} at {kbps:.0} kB/s",
                seeds[j % k],
                config.algorithm
            )
        },
        |j| {
            let m = run_abr(ladder, &configs[j / k], seeds[j % k]);
            [
                m.mean_stalls(),
                m.mean_stall_secs(),
                m.mean_startup_secs(),
                m.mean_bitrate_bps(),
            ]
        },
    );
    runs.chunks(k)
        .map(|config_runs| {
            let mut sums = [0.0; 4];
            for run in config_runs {
                for (sum, value) in sums.iter_mut().zip(run) {
                    *sum += value;
                }
            }
            sums.map(|sum| sum / k as f64)
        })
        .collect()
}

/// Runs `job(i)` for every `i < n` on up to `workers` scoped threads and
/// returns the results in index order, whichever thread ran which. A
/// panicking job stops the pool and is re-raised on the caller's thread as
/// `"<label_of(i)> panicked: <message>"`.
///
/// # Panics
///
/// Panics when `workers` is zero or any job panics.
pub(crate) fn run_ordered<T: Send>(
    n: usize,
    workers: usize,
    label_of: impl Fn(usize) -> String + Sync,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;
    assert!(workers >= 1, "need at least one worker");

    let next = AtomicUsize::new(0);
    // `failed` only stops workers from claiming more jobs; the message
    // itself travels through the mutex.
    let failed = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let failure = Mutex::new(None::<String>);
    // Jobs run outside both locks and under `catch_unwind`, so neither
    // mutex can be poisoned.
    const UNPOISONED: &str = "no job runs while a lock is held";

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || failed.load(Ordering::Relaxed) {
                    break;
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i))) {
                    Ok(value) => slots.lock().expect(UNPOISONED)[i] = Some(value),
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        *failure.lock().expect(UNPOISONED) =
                            Some(format!("{} panicked: {msg}", label_of(i)));
                        failed.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });

    if let Some(msg) = failure.into_inner().expect(UNPOISONED) {
        panic!("{msg}");
    }
    slots
        .into_inner()
        .expect(UNPOISONED)
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VideoSpec;
    use crate::figures::Grid;
    use crate::runner::run_once;
    use crate::SplicingSpec;

    fn quick_config(bandwidth: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_baseline()
            .with_bandwidth(bandwidth)
            .with_leechers(3);
        cfg.video = VideoSpec {
            duration_secs: 12.0,
        };
        cfg.swarm.max_sim_secs = 300.0;
        cfg
    }

    /// The message `job` panics with, re-raised on this thread by the pool.
    fn panic_message(job: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(job).expect_err("the pool re-raises the panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn averaging_matches_manual_fold() {
        let cfg = quick_config(512_000.0);
        let seeds = [1, 2];
        let avg = run_averaged(&cfg, &seeds);
        assert_eq!(avg.runs, 2);
        let manual: Vec<f64> = seeds
            .iter()
            .map(|&s| run_once(&cfg, s).metrics.mean_stalls())
            .collect();
        assert!((avg.stalls - mean(&manual)).abs() < 1e-12);
        assert_eq!(avg.rounded_stalls, rounded_mean(&manual));
        assert_eq!(avg.segment_count, 3);
    }

    /// A one-series grid over `bandwidths`, each cell `make(bandwidth)`.
    fn bandwidth_grid(bandwidths: &[f64], make: impl Fn(f64) -> ExperimentConfig) -> Grid {
        let rows: Vec<(String, f64)> = bandwidths.iter().map(|&bw| (format!("{bw}"), bw)).collect();
        Grid::new("bandwidth", &rows, &[("quick", ())], |&bw, _| make(bw))
    }

    #[test]
    fn sweep_preserves_order_and_matches_serial() {
        let bandwidths = [512_000.0, 768_000.0];
        let seeds = [3];
        let parallel = bandwidth_grid(&bandwidths, quick_config).run(&seeds, 2);
        for (row, &bw) in bandwidths.iter().enumerate() {
            let serial = run_averaged(&quick_config(bw), &seeds);
            assert_eq!(*parallel.at(row, 0), serial, "parallel and serial disagree");
        }
    }

    #[test]
    fn gop_vs_duration_overhead_shows_up_in_averages() {
        let gop = run_averaged(
            &quick_config(512_000.0).with_splicing(SplicingSpec::Gop),
            &[1],
        );
        let dur = run_averaged(
            &quick_config(512_000.0).with_splicing(SplicingSpec::Duration(2.0)),
            &[1],
        );
        assert_eq!(gop.overhead_ratio, 0.0);
        assert!(dur.overhead_ratio > 0.0);
    }

    #[test]
    fn eventful_control_plane_preserves_qoe_on_the_paper_baseline() {
        // The eventful control plane is a transport optimisation, not a
        // policy change: on the paper's baseline swarm it must deliver the
        // same viewer experience as the legacy plane — equal rounded stall
        // counts, stall time within a fifth — while replacing per-segment
        // `Have` floods with coalesced bundles.
        let legacy_cfg = ExperimentConfig::paper_baseline();
        let eventful_cfg = ExperimentConfig::paper_baseline()
            .with_control_plane(splicecast_swarm::ControlPlane::EVENTFUL);
        let legacy = run_averaged(&legacy_cfg, &DEFAULT_SEEDS);
        let eventful = run_averaged(&eventful_cfg, &DEFAULT_SEEDS);

        assert_eq!(legacy.completion_rate, 1.0);
        assert_eq!(eventful.completion_rate, 1.0);
        assert_eq!(
            legacy.rounded_stalls, eventful.rounded_stalls,
            "stall counts diverged: legacy {:.2} vs eventful {:.2}",
            legacy.stalls, eventful.stalls
        );
        let (lt, et) = (legacy.stall_secs, eventful.stall_secs);
        assert!(
            (et - lt).abs() <= (lt * 0.2).max(1.0),
            "stall time diverged: legacy {lt:.1} s vs eventful {et:.1} s"
        );

        // The equivalence is not vacuous: the eventful plane really did
        // swap the dissemination mechanism and shrink the message volume.
        assert_eq!(eventful.control.haves_sent, 0);
        assert!(eventful.control.have_bundles_sent > 0);
        assert!(eventful.control.pumps() > 0);
        assert!(legacy.control.haves_sent > eventful.control.have_bundles_sent);
    }

    /// The contract of the one fan-out: cell `(i, s)` of the result is
    /// `prepared[i].run(seeds[s])`, whatever the worker count, on the paper
    /// stack and on the scale profile's.
    #[test]
    fn run_all_is_each_prepared_run_at_any_worker_count() {
        let seeds = [3, 4];
        for base in [
            quick_config(512_000.0),
            quick_config(512_000.0).with_scale_profile(),
        ] {
            let prepared = [
                PreparedExperiment::new(&base),
                PreparedExperiment::new(&base.clone().with_splicing(SplicingSpec::Gop)),
            ];
            let expected: Vec<Vec<RunResult>> = prepared
                .iter()
                .map(|p| seeds.iter().map(|&s| p.run(s)).collect())
                .collect();
            assert_ne!(expected[0], expected[1]);
            assert_ne!(expected[0][0], expected[0][1]);
            for workers in [1, 2, 8] {
                let got = run_all(&prepared, &seeds, workers, |i| format!("experiment {i}"));
                assert_eq!(got, expected, "{workers} workers");
            }
        }
    }

    #[test]
    fn run_all_reraises_a_panic_naming_label_and_seed() {
        let prepared = [
            PreparedExperiment::new(&quick_config(512_000.0)),
            PreparedExperiment::new(&quick_config(512_000.0).with_leechers(0)),
        ];
        let label = |i| format!("experiment {i}");
        assert_eq!(
            panic_message(|| drop(run_all(&prepared, &[7], 2, label))),
            "seed 7 of experiment 1 panicked: a swarm needs at least one leecher"
        );
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_panic() {
        let _ = run_averaged(&quick_config(512_000.0), &[]);
    }

    #[test]
    fn sweep_is_identical_across_worker_counts() {
        let grid = bandwidth_grid(&[512_000.0, 640_000.0, 768_000.0], quick_config);
        let seeds = [3, 4];
        assert_eq!(grid.run(&seeds, 1), grid.run(&seeds, 4));
    }

    #[test]
    fn sweep_propagates_worker_panics() {
        // An invalid configuration makes the worker panic inside the run;
        // the grid must report it instead of dying on a poisoned lock.
        let grid = bandwidth_grid(&[512_000.0], |bw| quick_config(bw).with_leechers(0));
        assert!(grid.check().is_err());
        let msg = panic_message(|| drop(grid.run(&[1], 2)));
        assert!(
            msg.contains("grid cell 'quick @ 512000' panicked"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn fluid_sweep_is_identical_across_worker_counts() {
        let make = |bw: f64| quick_config(bw).with_flow_model(splicecast_netsim::FlowModel::Fluid);
        let bandwidths = [512_000.0, 640_000.0];
        let grid = bandwidth_grid(&bandwidths, make);
        let seeds = [7];
        let serial = grid.run(&seeds, 1);
        assert_eq!(serial, grid.run(&seeds, 3));
        for (row, &bw) in bandwidths.iter().enumerate() {
            assert_eq!(*serial.at(row, 0), run_averaged(&make(bw), &seeds));
        }
    }
}
