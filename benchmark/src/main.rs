//! The splicecast benchmark. See `../README.md` for what it measures and
//! why; this file is the command line, the process fan-out and the report.
//!
//! Three ways in:
//!
//! - `--workload W --seed N --seconds S --trace 0|1` runs one workload and
//!   prints its metrics, ending with the one-line JSON result the driver
//!   of `BENCHMARK.json` reads (end-to-end metrics with `--trace 0`,
//!   per-layer metrics with `--trace 1`);
//! - no `--workload` runs all six workloads both ways, prints every metric
//!   and writes one results file (`--out`), which `compare.py` reads;
//! - `--child KIND` is the parent re-executing itself: every simulation
//!   runs in a fresh child process, one at a time, one thread each, with no
//!   warm-up — a user pays the cold start on every CLI run.

use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use splicecast_benchmark::counters::{Qoe, Totals, COUNT_NAMES, METRIC_COUNTS};
use splicecast_benchmark::json::Json;
use splicecast_benchmark::traced::{self, Trace, KINDS, MSG_KINDS};
use splicecast_benchmark::workloads::{Workload, NAMES};
use splicecast_benchmark::{drivers, median, shapes};
use splicecast_core::PreparedExperiment;

/// A run makes at least this many passes, each with a sub-seed of its
/// own — pass `i` of a run with `--seed S` uses seed `S + 1000·(i mod 5)` —
/// and averages its simulated metrics over them (the paper averages three
/// runs; five are needed to steady the small swarms). A sixth pass repeats
/// the first, and must reproduce its digest and counts exactly.
const SUB_SEEDS: usize = 5;
const SUB_SEED_STRIDE: u64 = 1000;

/// `--seconds` when none is given; the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 0.5;
/// Share of a traced run's `--seconds` that goes to the layer drivers.
const DRIVER_SHARE: f64 = 0.2;
/// Set-ups are timed in a burst after every child pass, so that a run
/// samples the host at several moments; `setup_s` is the median of the
/// bursts' medians. A burst lasts this long and makes at least this many
/// calls.
const SETUP_BURST: Duration = Duration::from_millis(100);
const SETUP_BURST_CALLS: usize = 17;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    child: Option<String>,
    out: Option<String>,
}

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  --workload NAME  one of paper_grid paper_grid_scale swarm_fat swarm_thin
                   swarm_gop swarm_churn; without it, all six run, traced
                   and untraced, and --out names the results file
  --seed N         run seed [5]
  --seconds S      how long one run measures [15]
  --trace 0|1      0: end-to-end metrics; 1: the traced run, per-layer metrics [0]
  --smoke          every workload at <=12 leechers and a 24 s clip
  --out FILE       where to write the results JSON [none]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 5,
        seconds: None,
        trace: false,
        smoke: false,
        child: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                let secs: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(secs);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--child" => args.child = Some(value()?),
            "--out" => args.out = Some(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if !NAMES.contains(&name.as_str()) {
            return Err(format!("unknown workload `{name}`"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = &args.child {
        let name = args.workload.as_deref().expect("a child has a workload");
        let workload = Workload::build(name, args.seed, args.smoke).expect("validated name");
        let report = match kind.as_str() {
            "pass" => run_pass(&workload, false),
            "half" => run_pass(&workload.half_size(), false),
            "traced" => run_pass(&workload, true),
            other => panic!("unknown child kind {other}"),
        };
        println!("{}", report.dump());
        return ExitCode::SUCCESS;
    }

    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let mut ok = true;
    match &args.workload {
        Some(name) => {
            let report = if args.trace {
                run_traced_workload(name, &args, seconds, &run_drivers(seconds))
            } else {
                run_workload(name, &args, seconds)
            };
            ok &= report.print();
            // The contract's result: the last line of standard output.
            println!("{}", report.contract_line().dump());
        }
        None => {
            // The drivers do not depend on the workload: once is enough.
            let drivers = run_drivers(seconds);
            let mut results = Vec::new();
            for name in NAMES {
                let untraced = run_workload(name, &args, seconds);
                ok &= untraced.print();
                let traced = run_traced_workload(name, &args, seconds, &drivers);
                ok &= traced.print();
                let mut entry = untraced.to_json();
                entry
                    .set("per_layer", metrics_json(&traced.metrics, false))
                    .set("trace_spans", traced.spans.clone())
                    .set("traced_check_failures", traced.check_failures.clone());
                results.push(entry);
            }
            if let Some(path) = &args.out {
                let mut meta = Json::obj();
                meta.set("seed", args.seed)
                    .set("seconds", seconds)
                    .set("smoke", args.smoke)
                    .set("sub_seeds", SUB_SEEDS)
                    .set("nproc", nproc())
                    .set("cpu", cpu_model());
                let mut doc = Json::obj();
                doc.set("meta", meta).set("workloads", results);
                if let Err(err) = std::fs::write(path, doc.dump() + "\n") {
                    eprintln!("error: cannot write {path}: {err}");
                    ok = false;
                } else {
                    println!("results written to {path}");
                }
            }
            println!(
                "{}",
                if ok {
                    "all checks passed"
                } else {
                    "CHECKS FAILED"
                }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// Child side: one pass of a workload, in this process.
// ---------------------------------------------------------------------

/// Runs every configuration of `workload` with every seed, serially, and
/// reports what happened as one JSON object. When `trace` is set each run
/// goes through the traced rebuild first and then through the program's
/// own path, and the two results must be equal.
fn run_pass(workload: &Workload, trace: bool) -> Json {
    let mut totals = Totals::new();
    let mut spans = Trace::default();
    let mut wall = Duration::ZERO;
    for point in &workload.points {
        let prepared = PreparedExperiment::new(&point.config);
        // `PreparedExperiment` keeps its segment list private; the traced
        // rebuild needs one, so build it the way `new` does.
        let segments =
            trace.then(|| Arc::new(point.config.splicing.splice(&point.config.video.build())));
        for &seed in &workload.seeds {
            let label = format!(
                "{} {} {} kB/s seed {seed}",
                point.fig, point.variant, point.kbps
            );
            let started = Instant::now();
            let result = match &segments {
                None => {
                    let result = prepared.run(seed);
                    wall += started.elapsed();
                    result
                }
                Some(segments) => {
                    let (metrics, run_spans) =
                        traced::run_traced(segments, &point.config.swarm, seed);
                    wall += started.elapsed();
                    spans.absorb(&run_spans);
                    let result = prepared.run(seed);
                    if metrics != result.metrics {
                        totals
                            .check_failures
                            .push(format!("{label}: traced run differs from untraced"));
                    }
                    result
                }
            };
            let swarm = &point.config.swarm;
            totals.add_run(&label, &result, swarm.n_leechers, swarm.max_sim_secs);
        }
    }
    let vmhwm_kb = vmhwm_kb();

    let mut report = totals.to_json();
    report
        .set("wall_s", wall.as_secs_f64())
        .set("vmhwm_kb", vmhwm_kb);
    if workload.is_grid {
        // Runs are in point order, seeds innermost: average each point's.
        let per_point: Vec<Qoe> = totals
            .qoe
            .chunks(workload.seeds.len())
            .map(Qoe::mean)
            .collect();
        let at = |fig: &str, variant: &str, kbps: u32| {
            let i = workload
                .points
                .iter()
                .position(|p| p.fig == fig && p.variant == variant && p.kbps == kbps)
                .unwrap_or_else(|| panic!("no grid point {fig} {variant} {kbps}"));
            per_point[i]
        };
        let failed = shapes::violations(&at);
        report
            .set("shape_violations", failed.len())
            .set("shape_failures", failed);
    }
    if trace {
        report
            .set(
                "layer",
                metrics_json(&layer_metrics(&spans, &totals), false),
            )
            .set("trace_spans", spans.to_json());
    }
    report
}

/// The per-layer metrics a traced pass can compute on its own: the
/// `netsim` / `swarm` / `core` split of the run span.
fn layer_metrics(spans: &Trace, totals: &Totals) -> Vec<Metric> {
    let secs = |ns: u64| ns as f64 / 1e9;
    let handlers = spans.handlers();
    let self_s = secs(spans.run_ns.saturating_sub(handlers.total_ns));
    let flows = totals.count("netsim.flows_n") as f64;
    let (messages, timers, transfers) = (
        spans.messages(),
        spans.kind("timer"),
        spans.kind("transfer"),
    );
    let mut m = vec![
        Metric::plain("netsim.self_s", "s", self_s),
        Metric::plain("netsim.self_frac", "ratio", self_s / secs(spans.run_ns)),
        Metric::plain("netsim.events_n", "count", handlers.count as f64),
        Metric::plain(
            "netsim.self_us_per_flow",
            "us",
            self_s * 1e6 / flows.max(1.0),
        ),
        Metric::plain("swarm.handlers_s", "s", secs(handlers.total_ns)),
        Metric::plain("swarm.msg_s", "s", secs(messages.total_ns)),
        Metric::plain("swarm.msg_n", "count", messages.count as f64),
        Metric::plain("swarm.timer_s", "s", secs(timers.total_ns)),
        Metric::plain("swarm.timer_n", "count", timers.count as f64),
        Metric::plain("swarm.timer_p99_us", "us", timers.quantile_ns(0.99) / 1e3),
        Metric::plain("swarm.transfer_s", "s", secs(transfers.total_ns)),
        Metric::plain("swarm.transfer_n", "count", transfers.count as f64),
        Metric::plain("swarm.seeder_s", "s", secs(spans.seeder_total().total_ns)),
    ];
    for kind in &KINDS[..MSG_KINDS] {
        let s = spans.kind(kind);
        m.push(Metric::plain(
            &format!("swarm.msg.{kind}_s"),
            "s",
            secs(s.total_ns),
        ));
        m.push(Metric::plain(
            &format!("swarm.msg.{kind}_n"),
            "count",
            s.count as f64,
        ));
    }
    m.push(Metric::plain("core.build_s", "s", secs(spans.build_ns)));
    m
}

/// This process's peak resident set, from the kernel's own high-water mark.
fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .expect("VmHWM in /proc/self/status")
}

// ---------------------------------------------------------------------
// Parent side: fan out children, gather, report.
// ---------------------------------------------------------------------

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Re-executes this binary as `--child kind` and returns what it reported
/// and how long the whole process took.
fn spawn_child(kind: &str, name: &str, seed: u64, smoke: bool) -> Result<(Json, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", name, "--seed"])
        .arg(seed.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let started = Instant::now();
    // `output` waits for the child to exit, so none outlives the parent.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let took = started.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "{kind} child of {name} seed {seed}: {}",
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let report = Json::parse(line).map_err(|e| format!("{kind} child of {name}: {e}"))?;
    Ok((report, took))
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: String,
    value: f64,
    /// Per-pass samples behind a host-time metric (empty otherwise).
    samples: Vec<f64>,
}

impl Metric {
    fn plain(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            samples: Vec::new(),
        }
    }

    /// A metric whose value is `pick` of its per-pass samples.
    fn of_samples(name: &str, unit: &str, samples: Vec<f64>, pick: fn(&[f64]) -> f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value: pick(&samples),
            samples,
        }
    }
}

/// The host only ever slows a pass down (another tenant's busy minute adds
/// up to 50 %; nothing subtracts), so the fastest pass is the one least
/// disturbed. Over the noise recorded on this box, ten runs of the fastest
/// of five passes spread half as wide as ten runs of their median.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn highest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    let mut out = Json::obj();
    for m in metrics {
        let samples = with_samples.then_some(m.samples.as_slice());
        let mut metric = Json::obj();
        metric.set("value", m.value).set("unit", m.unit.as_str());
        if let Some(samples) = samples.filter(|s| !s.is_empty()) {
            metric.set("samples", samples.to_vec());
        }
        out.set(&m.name, metric);
    }
    out
}

/// What one run of one workload, traced or not, found.
#[derive(Debug)]
struct Report {
    name: String,
    title: String,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Values that must repeat exactly for a seed: digest, viewers, counts.
    exact: Json,
    /// Things a reader should know that are not failures.
    flags: Vec<String>,
    check_failures: Vec<String>,
    /// The traced run's span aggregates (null when untraced).
    spans: Json,
}

impl Report {
    /// A run that could not be reported on; `check_failures` say why.
    fn broken(name: &str, title: String, check_failures: Vec<String>) -> Report {
        Report {
            name: name.to_owned(),
            title,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            exact: Json::obj(),
            flags: Vec::new(),
            check_failures,
            spans: Json::Null,
        }
    }

    /// Prints every metric by name with its unit, then flags and failed
    /// checks. Returns whether every check passed.
    fn print(&self) -> bool {
        println!("== {}", self.title);
        for m in &self.metrics {
            if m.samples.is_empty() {
                println!("  {:<42} {:>14.6} {}", m.name, m.value, m.unit);
            } else {
                let (min, max) = m
                    .samples
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                        (lo.min(*v), hi.max(*v))
                    });
                println!(
                    "  {:<42} {:>14.6} {}  ({} samples, min {:.6}, max {:.6})",
                    m.name,
                    m.value,
                    m.unit,
                    m.samples.len(),
                    min,
                    max
                );
            }
        }
        // Exact values, without the long count tables (the results file
        // has them): one line per sub-seed, or the traced seed's own.
        let exact_line = |label: &str, part: &Json| {
            let brief: Vec<String> = part
                .as_obj()
                .into_iter()
                .flatten()
                .filter(|(key, _)| key != "counts")
                .map(|(key, value)| format!("{key} {}", value.dump()))
                .collect();
            println!("  {label:<42} {}", brief.join(", "));
        };
        match self.exact.get("sim_digest") {
            Some(_) => exact_line("exact", &self.exact),
            None => {
                for (key, part) in self.exact.as_obj().into_iter().flatten() {
                    exact_line(key, part);
                }
            }
        }
        println!(
            "  viewers: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for flag in &self.flags {
            println!("  flag: {flag}");
        }
        for failure in &self.check_failures {
            println!("  CHECK FAILED: {failure}");
        }
        self.check_failures.is_empty()
    }

    fn contract_line(&self) -> Json {
        let mut line = Json::obj();
        line.set("correct", self.check_failures.is_empty())
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", metrics_json(&self.metrics, false));
        line
    }

    fn to_json(&self) -> Json {
        let mut out = Json::obj();
        out.set("name", self.name.as_str())
            .set("end_to_end", metrics_json(&self.metrics, true))
            .set("viewers_attempted", self.attempted)
            .set("viewers_failed", self.failed)
            .set("exact", self.exact.clone())
            .set("flags", self.flags.clone())
            .set("check_failures", self.check_failures.clone());
        out
    }
}

fn strings(report: &Json, key: &str) -> Vec<String> {
    report
        .get(key)
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|s| s.as_str().map(str::to_owned))
        .collect()
}

/// The part of a pass report that must repeat exactly for a seed.
fn exact_part(report: &Json) -> Json {
    let mut exact = Json::obj();
    for key in [
        "sim_digest",
        "viewers_attempted",
        "viewers_failed",
        "capped_runs",
        "shape_violations",
        "counts",
    ] {
        if let Some(value) = report.get(key) {
            exact.set(key, value.clone());
        }
    }
    exact
}

fn sub_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_add(SUB_SEED_STRIDE * (pass % SUB_SEEDS) as u64)
}

/// The median time of one burst of set-ups of the workload: encoding and
/// splicing every configuration's video, as `PreparedExperiment::new`
/// does. Run here, in the parent, which is otherwise idle.
fn time_setups(workload: &Workload) -> f64 {
    let burst = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < SETUP_BURST_CALLS || burst.elapsed() < SETUP_BURST {
        let started = Instant::now();
        for point in &workload.points {
            std::hint::black_box(PreparedExperiment::new(&point.config));
        }
        calls.push(started.elapsed().as_secs_f64());
    }
    median(&calls)
}

/// The untraced run: child passes until `seconds` are used (at least one
/// per sub-seed), then the end-to-end metrics.
fn run_workload(name: &str, args: &Args, seconds: f64) -> Report {
    let started = Instant::now();
    let mut passes: Vec<Json> = Vec::new();
    let mut took: Vec<f64> = Vec::new();
    let mut check_failures = Vec::new();
    let mut flags = Vec::new();
    let workload = Workload::build(name, args.seed, args.smoke).expect("validated name");
    let mut setups = Vec::new();
    loop {
        let i = passes.len();
        if i >= SUB_SEEDS && started.elapsed().as_secs_f64() + median(&took) > seconds {
            break;
        }
        match spawn_child("pass", name, sub_seed(args.seed, i), args.smoke) {
            Ok((report, secs)) => {
                // A repeat of a sub-seed must reproduce it exactly.
                if i >= SUB_SEEDS && exact_part(&passes[i % SUB_SEEDS]) != exact_part(&report) {
                    check_failures.push(format!(
                        "pass {i} does not repeat pass {} (same seed)",
                        i % SUB_SEEDS
                    ));
                }
                passes.push(report);
                took.push(secs);
                setups.push(time_setups(&workload));
            }
            Err(err) => {
                check_failures.push(err);
                break;
            }
        }
    }
    let title = format!(
        "{name} seed {} ({} runs a pass, {} passes)",
        args.seed,
        workload.runs_per_pass(),
        passes.len()
    );
    if passes.len() < SUB_SEEDS {
        return Report::broken(name, title, check_failures);
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.num("wall_s")).collect();
    let throughput = passes
        .iter()
        .map(|p| p.num("viewers_finished") * workload.clip_secs() / p.num("wall_s"))
        .collect();
    let rss = passes.iter().map(|p| p.num("vmhwm_kb") / 1024.0).collect();
    // Simulated quantities: the mean over the sub-seeds, first pass each.
    let firsts = &passes[..SUB_SEEDS];
    let mean = |key: &str| firsts.iter().map(|p| p.num(key)).sum::<f64>() / SUB_SEEDS as f64;
    let violations = workload.is_grid.then(|| mean("shape_violations"));
    let metrics = vec![
        Metric::of_samples("wall_s", "s", walls, fastest),
        Metric::of_samples("viewer_s_per_s", "viewer_s/s", throughput, highest),
        Metric::of_samples("peak_rss_mb", "MB", rss, median),
        Metric::of_samples("setup_s", "s", setups, median),
        Metric::plain("stalls_per_viewer", "count", mean("stalls_per_viewer")),
        // Simulated seconds, unlike every `s` above.
        Metric::plain("stall_s_per_viewer", "sim_s", mean("stall_s_per_viewer")),
        Metric::plain("startup_s", "sim_s", mean("startup_s")),
        // `shape_violations` can be 0, which the regression bound cannot
        // divide by, so the bounded metric is its complement.
        Metric::plain(
            "shapes_held",
            "count",
            shapes::PREDICATES as f64 - violations.unwrap_or(0.0),
        ),
    ];
    let mut exact = Json::obj();
    for (i, pass) in firsts.iter().enumerate() {
        exact.set(
            &format!("seed_{}", sub_seed(args.seed, i)),
            exact_part(pass),
        );
    }
    if workload.is_grid {
        for (i, pass) in firsts.iter().enumerate() {
            let failed = strings(pass, "shape_failures");
            if !failed.is_empty() {
                flags.push(format!(
                    "seed {}: {} shape(s) not held: {}",
                    sub_seed(args.seed, i),
                    failed.len(),
                    failed.join("; ")
                ));
            }
        }
    }
    for (i, pass) in passes.iter().enumerate() {
        check_failures.extend(strings(pass, "check_failures"));
        if i < SUB_SEEDS && pass.num("capped_runs") > 0.0 {
            flags.push(format!(
                "seed {}: {} run(s) hit max_sim_secs",
                sub_seed(args.seed, i),
                pass.num("capped_runs")
            ));
        }
    }
    Report {
        name: name.to_owned(),
        title,
        metrics,
        attempted: firsts
            .iter()
            .map(|p| p.num("viewers_attempted") as u64)
            .sum(),
        failed: firsts.iter().map(|p| p.num("viewers_failed") as u64).sum(),
        exact,
        flags,
        check_failures,
        spans: Json::Null,
    }
}

type DriverResults = Vec<(&'static str, &'static str, f64)>;

/// Runs the layer drivers in `DRIVER_SHARE` of `seconds`.
fn run_drivers(seconds: f64) -> DriverResults {
    drivers::run_all(Duration::from_secs_f64(seconds * DRIVER_SHARE))
}

/// The traced run, on the run seed itself: one untraced pass, the traced
/// pass (which checks itself against the untraced path), a half-size
/// pass, and more untraced passes while time remains; `drivers` holds the
/// layer drivers' results, which are reported alongside.
fn run_traced_workload(name: &str, args: &Args, seconds: f64, drivers: &DriverResults) -> Report {
    let started = Instant::now();
    let title = format!("{name} seed {} traced", args.seed);
    let mut check_failures = Vec::new();
    let mut child = |kind: &str| match spawn_child(kind, name, args.seed, args.smoke) {
        Ok((report, secs)) => Some((report, secs)),
        Err(err) => {
            check_failures.push(err);
            None
        }
    };
    let (Some(first), Some(traced), Some(half)) = (child("pass"), child("traced"), child("half"))
    else {
        return Report::broken(name, title, check_failures);
    };
    let mut untraced = vec![first.0];
    let budget = seconds * (1.0 - DRIVER_SHARE);
    while started.elapsed().as_secs_f64() + first.1 <= budget {
        match child("pass") {
            Some((report, _)) => untraced.push(report),
            None => break,
        }
    }
    let (traced, half) = (traced.0, half.0);
    for pass in &untraced {
        if exact_part(pass) != exact_part(&traced) {
            check_failures.push("an untraced pass differs from the traced pass".to_owned());
        }
        check_failures.extend(strings(pass, "check_failures"));
    }
    check_failures.extend(strings(&traced, "check_failures"));
    check_failures.extend(strings(&half, "check_failures"));

    let mut metrics = Vec::new();
    let layer = traced.get("layer").and_then(Json::as_obj).unwrap_or(&[]);
    for (metric_name, m) in layer {
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
        metrics.push(Metric::plain(metric_name, unit, m.num("value")));
    }
    let counts = traced.get("counts").cloned().unwrap_or(Json::obj());
    for count in &COUNT_NAMES[..METRIC_COUNTS] {
        metrics.push(Metric::plain(count, "count", counts.num(count)));
    }
    metrics.push(Metric::plain(
        "netsim.wire_expansion",
        "ratio",
        traced.num("netsim.wire_expansion"),
    ));
    metrics.push(Metric::plain(
        "swarm.mem.bytes_per_peer",
        "B",
        traced.num("swarm.mem.bytes_per_peer"),
    ));
    metrics.push(Metric::plain(
        "swarm.dup_bytes_frac",
        "ratio",
        traced.num("swarm.dup_bytes_frac"),
    ));

    for (driver, unit, value) in drivers {
        metrics.push(Metric::plain(driver, unit, *value));
    }
    // An estimate, not a measurement: handled messages by type times the
    // drivers' unit costs (bundles and bitfields at their driver sizes,
    // everything else at the small round trip).
    let ns = |wanted: &str| {
        metrics
            .iter()
            .find(|m| m.name == wanted)
            .unwrap_or_else(|| panic!("no metric {wanted}"))
            .value
    };
    let bundles = ns("swarm.msg.have_bundle_n");
    let bitfields = ns("swarm.msg.bitfield_n");
    let codec_est_ns = bundles
        * (ns("protocol.encode_ns.have_bundle8") + ns("protocol.decode_ns.have_bundle8"))
        + bitfields * (ns("protocol.encode_ns.bitfield197") + ns("protocol.decode_ns.bitfield197"))
        + (ns("swarm.msg_n") - bundles - bitfields) * ns("protocol.roundtrip_ns.small");
    metrics.push(Metric::plain(
        "protocol.codec_est_s",
        "s",
        codec_est_ns / 1e9,
    ));

    let untraced_walls: Vec<f64> = untraced.iter().map(|p| p.num("wall_s")).collect();
    let untraced_wall = median(&untraced_walls);
    metrics.push(Metric::plain(
        "core.scaling_alpha",
        "ratio",
        (untraced_wall / half.num("wall_s")).log2(),
    ));
    metrics.push(Metric::plain(
        "trace.overhead_frac",
        "ratio",
        traced.num("wall_s") / untraced_wall - 1.0,
    ));

    let mut flags = vec![format!(
        "{} untraced pass(es) behind trace.overhead_frac and core.scaling_alpha",
        untraced.len()
    )];
    if traced.num("capped_runs") > 0.0 {
        flags.push(format!(
            "{} run(s) hit max_sim_secs",
            traced.num("capped_runs")
        ));
    }
    Report {
        name: name.to_owned(),
        title,
        metrics,
        attempted: traced.num("viewers_attempted") as u64,
        failed: traced.num("viewers_failed") as u64,
        exact: exact_part(&traced),
        flags,
        check_failures,
        spans: traced.get("trace_spans").cloned().unwrap_or(Json::Null),
    }
}
