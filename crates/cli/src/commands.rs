//! The CLI subcommands.

use splicecast_core::figures::{figure, FIGURES};
use splicecast_core::media::PAPER_BITRATE_BPS;
use splicecast_core::{
    max_cdn_segment_bytes, max_cdn_segment_secs, optimal_pool_size, run_abr, run_all, AbrAlgorithm,
    AbrConfig, AveragedMetrics, CdnConfig, CdnOutageConfig, ChurnConfig, CrashChurnConfig,
    DefenseConfig, DiscoveryMode, ExperimentConfig, FaultPlanConfig, Grid, Ladder, LinkFlapConfig,
    PolicyConfig, PreparedExperiment, RunResult, SplicingSpec, Table, VideoSpec,
};

use crate::args::Args;
use crate::sharded::channel_runs_seeds;

/// The `help` text.
pub fn help() -> String {
    "\
splicecast — P2P video-splicing experiments (ICDCS 2015 reproduction)

USAGE:
    splicecast <COMMAND> [--option value]...

COMMANDS:
    run       stream one configuration and print its metrics
    sweep     bandwidth × splicing sweep printed as a figure-style table
    figure    one named figure of EXPERIMENTS.md: figure <NAME> [options]
              {figures}
    overhead  splicing byte-overhead statistics (no simulation)
    formula   evaluate Eq. 1 and the §IV CDN segment-size bound
    abr       adaptive-bitrate baseline (CDN-served ladder)
    help      this text

COMMON OPTIONS (run / sweep / figure; a figure overwrites what it varies):
    --bandwidth KB        peer access bandwidth in kB/s        [128]
    --bandwidths A,B,...  sweep bandwidths in kB/s             [128,256,512,768]
    --splicing S          gop | <secs>s | bytes:<n>            [4s]
    --splicings A,B,...   sweep splicings                      [gop,2s,4s,8s]
    --policy P            adaptive | fixed:<k>                 [adaptive]
    --peers N             number of leechers                   [19]
    --clip-secs S         video length                         [120]
    --seeds A,B,...       seeds to average over                [101,202,303]
    --churn FRAC          volatile fraction (45 s mean life)   [off]
    --cdn                 add a CDN node (hybrid mode)
    --cdn-only            serve from the CDN only (implies --cdn)
    --tracker             tracker-based peer discovery
    --flow-model M        network model: rounds | fluid         [rounds]
    --control-plane C     swarm control plane: legacy | eventful  [legacy]
    --profile P           knob preset: paper | scale            [paper]
                          (scale = fluid + eventful;
                           explicit flags still override)
    --have-window SECS    eventful Have-coalescing window  [auto: scales with
                          segment duration, clamped to 1-4 pump intervals]
    --workers N           worker threads for run / sweep / figure  [all cores]
    --channels C          run C independent channel swarms (sharded)  [off]
    --metric M            sweep metric: stalls|stallsecs|startup  [stalls]
    --chart               draw the sweep (a figure's first table) as an ASCII chart
    --csv                 also print machine-readable rows

FAULT / DEFENSE OPTIONS (run / sweep / figure):
    --crash FRAC          crash-stop fraction (silent, no Goodbye)  [off]
    --crash-uptime SECS   mean uptime before a crash           [45]
    --msg-loss P          control-message drop probability     [0]
    --msg-delay P         control-message delay probability    [0]
    --msg-delay-max SECS  max injected control delay           [2]
    --flaps N             degraded-link windows across the run [0]
    --cdn-outages N       CDN outage windows (needs --cdn)     [0]
    --defend              source backoff bans

FORMULA OPTIONS:
    --bandwidth KB --buffered SECS --segment-kb KB

ABR OPTIONS:
    --clients N --bandwidth KB --algorithm buffer|rate|fixed:<rung>
"
    .replace("{figures}", &figure_names())
}

/// The registry's names, in its order.
fn figure_names() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    names.join(" ")
}

fn parse_splicing(raw: &str) -> Result<SplicingSpec, String> {
    if raw == "gop" {
        return Ok(SplicingSpec::Gop);
    }
    if let Some(bytes) = raw.strip_prefix("bytes:") {
        let n: u64 = bytes
            .parse()
            .map_err(|_| format!("bad splicing byte count `{bytes}`"))?;
        return Ok(SplicingSpec::Bytes(n));
    }
    let secs = raw.trim_end_matches('s');
    secs.parse::<f64>()
        .map(SplicingSpec::Duration)
        .map_err(|_| format!("bad splicing `{raw}` (expected gop, <secs>s, or bytes:<n>)"))
}

fn parse_policy(raw: &str) -> Result<PolicyConfig, String> {
    if raw == "adaptive" {
        return Ok(PolicyConfig::Adaptive);
    }
    if let Some(k) = raw.strip_prefix("fixed:") {
        let k: usize = k.parse().map_err(|_| format!("bad pool size `{k}`"))?;
        return Ok(PolicyConfig::Fixed(k));
    }
    Err(format!(
        "bad policy `{raw}` (expected adaptive or fixed:<k>)"
    ))
}

/// The clip `--clip-secs` describes, checked.
fn clip(args: &Args) -> Result<VideoSpec, String> {
    let video = VideoSpec {
        duration_secs: args.num("clip-secs", 120.0)?,
    };
    video.check()?;
    Ok(video)
}

pub(crate) fn base_config(args: &Args) -> Result<ExperimentConfig, String> {
    // A profile sets the *defaults* for the plane/model knobs; explicit
    // flags still override any of them.
    let mut config = match args.value("profile")?.unwrap_or("paper") {
        "paper" => ExperimentConfig::paper_baseline(),
        "scale" => ExperimentConfig::paper_baseline().with_scale_profile(),
        other => {
            return Err(format!(
                "unknown profile `{other}` (expected paper or scale)"
            ))
        }
    };
    config.video = clip(args)?;
    let bandwidth_kb: f64 = args.num("bandwidth", 128.0)?;
    config = config.with_bandwidth(bandwidth_kb * 1_000.0);
    config = config.with_splicing(parse_splicing(args.value("splicing")?.unwrap_or("4s"))?);
    config = config.with_policy(parse_policy(args.value("policy")?.unwrap_or("adaptive"))?);
    config = config.with_leechers(args.num("peers", 19usize)?);
    if let Some(raw) = args.value("flow-model")? {
        config = config.with_flow_model(raw.parse()?);
    }
    if let Some(raw) = args.value("control-plane")? {
        config = config.with_control_plane(raw.parse()?);
    }
    if let Some(raw) = args.value("have-window")? {
        let secs: f64 = raw
            .parse()
            .map_err(|_| format!("bad --have-window `{raw}`"))?;
        config.swarm.have_coalesce_secs = Some(secs);
    }
    // Zero means off. Any other value — negative or NaN included — builds
    // the config, so that `check()` below is what judges it.
    let churn: f64 = args.num("churn", 0.0)?;
    if churn != 0.0 {
        config.swarm.churn = Some(ChurnConfig {
            volatile_fraction: churn,
            mean_lifetime_secs: 45.0,
        });
    }
    let cdn_only = args.flag("cdn-only")?;
    if args.flag("cdn")? || cdn_only {
        config.swarm.cdn = Some(CdnConfig::default());
    }
    if cdn_only {
        config.swarm.p2p = false;
    }
    if args.flag("tracker")? {
        config.swarm.discovery = DiscoveryMode::Tracker;
    }
    let crash: f64 = args.num("crash", 0.0)?;
    let crash_uptime: f64 = args.num("crash-uptime", 45.0)?;
    let msg_loss: f64 = args.num("msg-loss", 0.0)?;
    let msg_delay: f64 = args.num("msg-delay", 0.0)?;
    let msg_delay_max: f64 = args.num("msg-delay-max", 2.0)?;
    let flaps: usize = args.num("flaps", 0usize)?;
    let outages: usize = args.num("cdn-outages", 0usize)?;
    if crash != 0.0 || msg_loss != 0.0 || msg_delay != 0.0 || flaps > 0 || outages > 0 {
        let window_secs = config.video.duration_secs;
        let degraded = config.swarm.peer_bandwidth_bytes_per_sec / 8.0;
        config = config.with_faults(FaultPlanConfig {
            crash: (crash != 0.0).then_some(CrashChurnConfig {
                crash_fraction: crash,
                mean_uptime_secs: crash_uptime,
            }),
            message_loss: msg_loss,
            message_delay_prob: msg_delay,
            message_delay_max_secs: msg_delay_max,
            link_flaps: (flaps > 0).then_some(LinkFlapConfig {
                count: flaps,
                degraded_bytes_per_sec: degraded,
                duration_secs: 10.0,
                window_secs,
            }),
            cdn_outages: (outages > 0).then_some(CdnOutageConfig {
                count: outages,
                duration_secs: 10.0,
                window_secs,
            }),
        });
    }
    if args.flag("defend")? {
        config = config.with_defense(DefenseConfig);
    }
    // The rules live in the three `check()`s; flag values are literals
    // above so that an out-of-range one is its `Err`, not a panic.
    config.check()?;
    Ok(config)
}

/// The `stalls:` … `peer offload:` lines of a run report, then its
/// `peer memory:` line (none when the run did no memory accounting).
fn qoe_lines(averaged: &AveragedMetrics, leechers_per_run: usize) -> String {
    let mut out = format!(
        "  stalls:            {:.1}  (rounded: {})\n  stall time:        {:.1} s\n  startup:           {:.1} s\n  completion:        {:.0}%\n  peer offload:      {:.0}%\n",
        averaged.stalls,
        averaged.rounded_stalls,
        averaged.stall_secs,
        averaged.startup_secs,
        averaged.completion_rate * 100.0,
        averaged.peer_offload * 100.0,
    );
    if averaged.mem.total_bytes() == 0 {
        return out;
    }
    out.push_str(&format!(
        "  peer memory:       {:.1} kB/peer\n",
        averaged.mem_bytes_per_peer(leechers_per_run) / 1e3,
    ));
    out
}

fn seeds(args: &Args) -> Result<Vec<u64>, String> {
    let list = args.num_list("seeds", &[101u64, 202, 303])?;
    if list.is_empty() {
        return Err("--seeds needs at least one seed".to_owned());
    }
    Ok(list)
}

/// `--workers N`, defaulting to the machine's parallelism. Results never
/// depend on the count — only wall-clock time does.
fn workers(args: &Args) -> Result<usize, String> {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let n: usize = args.num("workers", default)?;
    if n == 0 {
        return Err("--workers needs at least 1".to_owned());
    }
    Ok(n)
}

/// `splicecast run`.
pub fn run_swarm_command(args: &Args) -> Result<String, String> {
    let config = base_config(args)?;
    // Absent means unsharded; an explicit count must name at least one.
    let sharded = args.value("channels")?.is_some();
    let channels: usize = args.num("channels", 0)?;
    if sharded && channels == 0 {
        return Err("--channels needs at least 1".to_owned());
    }
    let (mut seeds, workers, csv) = (seeds(args)?, workers(args)?, args.flag("csv")?);
    args.reject_unread()?;
    let per_channel = seeds.len();
    if sharded {
        seeds = channel_runs_seeds(channels, &seeds);
    }
    let prepared = [PreparedExperiment::new(&config)];
    let results = run_all(&prepared, &seeds, workers, |_| "the run".to_owned()).remove(0);
    let averaged = AveragedMetrics::from_runs(&results);
    let mut out = if sharded {
        channel_lines(&config, &results, per_channel)
    } else {
        format!(
            "streaming {:.0}s of {:.1} Mbps video to {} peers at {:.0} kB/s ({} splicing, {} policy)\n\n  segments:          {}\n  byte overhead:     {:.1}%\n",
            config.video.duration_secs,
            PAPER_BITRATE_BPS as f64 / 1e6,
            config.swarm.n_leechers,
            config.swarm.peer_bandwidth_bytes_per_sec / 1e3,
            config.splicing.label(),
            match config.swarm.policy {
                PolicyConfig::Adaptive => "adaptive".to_owned(),
                PolicyConfig::Fixed(k) => format!("fixed-{k}"),
            },
            averaged.segment_count,
            averaged.overhead_ratio * 100.0
        )
    };
    out.push_str(&qoe_lines(&averaged, config.swarm.n_leechers));
    if !sharded {
        out.push_str(&counter_lines(&averaged));
    }
    out.push_str(&stuck_block(&results));
    if csv {
        out.push_str(&format!(
            "\ncsv:\nstalls,stall_secs,startup_secs,completion,offload\n{:.2},{:.2},{:.2},{:.3},{:.3}\n",
            averaged.stalls,
            averaged.stall_secs,
            averaged.startup_secs,
            averaged.completion_rate,
            averaged.peer_offload,
        ));
    }
    Ok(out)
}

/// The control-plane, scheduler and fault counters of a `run` report, per
/// run; a line whose counters are all zero is left out.
fn counter_lines(averaged: &AveragedMetrics) -> String {
    let runs = averaged.runs as f64;
    let control = averaged.control;
    let mut out = format!(
        "  have traffic:      {:.0} haves, {:.0} bundles, {:.0} suppressed (per run)\n",
        control.haves_sent as f64 / runs,
        control.have_bundles_sent as f64 / runs,
        control.haves_suppressed as f64 / runs,
    );
    if control.have_bundles_sent > 0 {
        out.push_str(&format!(
            "  coalescing:        {:.1} haves per bundle\n",
            control.mean_bundle_size()
        ));
    }
    if control.pumps() > 0 {
        out.push_str(&format!(
            "  pump fires:        {:.0} per run ({:.0} armed, {:.0} heartbeat)\n",
            control.pumps() as f64 / runs,
            control.pumps_armed as f64 / runs,
            control.pumps_heartbeat as f64 / runs,
        ));
    }
    let sched = averaged.sched;
    if sched.passes + sched.skips > 0 {
        out.push_str(&format!(
            "  scheduling:        {:.0} passes, {:.0} skipped (per run)\n",
            sched.passes as f64 / runs,
            sched.skips as f64 / runs,
        ));
    }
    let injected = averaged.injected;
    let fault = averaged.fault;
    if injected.messages_dropped + injected.messages_delayed + injected.outages_started > 0
        || fault.crashes > 0
    {
        out.push_str(&format!(
            "  injected faults:   {:.0} msgs dropped, {:.0} delayed, {:.0} crashes, {:.0} CDN outages (per run)\n",
            injected.messages_dropped as f64 / runs,
            injected.messages_delayed as f64 / runs,
            fault.crashes as f64 / runs,
            injected.outages_started as f64 / runs,
        ));
    }
    if fault.backoff_bans > 0 {
        out.push_str(&format!(
            "  defenses:          {:.0} bans (per run)\n",
            fault.backoff_bans as f64 / runs,
        ));
    }
    out
}

/// Who is stuck, per run that left a staying viewer unfinished: the first
/// ten lines of its `stuck_report()` and how many more there are.
fn stuck_block(runs: &[RunResult]) -> String {
    let mut out = String::new();
    for run in runs {
        let report = run.metrics.stuck_report();
        let stuck = report.lines().count();
        if stuck > 0 {
            out.push_str(&format!("\nstuck viewers (seed {}):\n", run.seed));
        }
        for line in report.lines().take(10) {
            out.push_str(&format!("  {line}\n"));
        }
        if stuck > 10 {
            out.push_str(&format!("  … and {} more\n", stuck - 10));
        }
    }
    out
}

/// The head of a `run --channels C` report. A channel is the same
/// experiment on the seeds derived from its id, so `runs` is every
/// channel's runs in channel order: one line per channel, then the title of
/// the aggregate over all of them.
fn channel_lines(config: &ExperimentConfig, runs: &[RunResult], per_channel: usize) -> String {
    let mut out = format!(
        "streaming {:.0}s of {:.1} Mbps video on {} channels × {} peers at {:.0} kB/s\n\n",
        config.video.duration_secs,
        PAPER_BITRATE_BPS as f64 / 1e6,
        runs.len() / per_channel,
        config.swarm.n_leechers,
        config.swarm.peer_bandwidth_bytes_per_sec / 1e3,
    );
    for (i, channel_runs) in runs.chunks(per_channel).enumerate() {
        let averaged = AveragedMetrics::from_runs(channel_runs);
        out.push_str(&format!(
            "  {:<6} stalls {:>5.1}  stall time {:>6.1} s  startup {:>5.1} s  completion {:>3.0}%\n",
            format!("ch{i}"),
            averaged.stalls,
            averaged.stall_secs,
            averaged.startup_secs,
            averaged.completion_rate * 100.0,
        ));
    }
    out.push_str(&format!("\naggregate over {} runs:\n", runs.len()));
    out
}

/// Every table, the first one charted on `--chart` and printed again as a
/// `csv:` block on `--csv`.
fn render(tables: &[Table], chart: bool, csv: bool) -> String {
    let mut out = String::new();
    for (i, table) in tables.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&table.to_string());
        if i == 0 && chart {
            out.push('\n');
            out.push_str(&splicecast_core::chart::render(table, 56, 14));
        }
    }
    if csv {
        out.push_str("\ncsv:\n");
        out.push_str(&tables[0].to_csv());
    }
    out
}

/// `splicecast sweep`.
pub fn sweep_command(args: &Args) -> Result<String, String> {
    let bandwidths: Vec<(String, f64)> = args
        .num_list("bandwidths", &[128.0f64, 256.0, 512.0, 768.0])?
        .into_iter()
        .map(|kb| (format!("{kb:.0}"), kb * 1_000.0))
        .collect();
    let splicings = args
        .value("splicings")?
        .unwrap_or("gop,2s,4s,8s")
        .split(',')
        .map(str::trim)
        .map(|name| Ok((name, parse_splicing(name)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let (title, metric): (_, fn(&AveragedMetrics) -> f64) =
        match args.value("metric")?.unwrap_or("stalls") {
            "stalls" => ("Stalls per viewer", |m| m.stalls),
            "stallsecs" => ("Total stall duration, seconds", |m| m.stall_secs),
            "startup" => ("Startup time, seconds", |m| m.startup_secs),
            other => return Err(format!("unknown metric `{other}`")),
        };
    let (base, seeds, workers) = (base_config(args)?, seeds(args)?, workers(args)?);
    let (chart, csv) = (args.flag("chart")?, args.flag("csv")?);
    args.reject_unread()?;
    let grid = Grid::new("bandwidth (kB/s)", &bandwidths, &splicings, |&bw, &s| {
        base.clone().with_bandwidth(bw).with_splicing(s)
    });
    grid.check()?;
    let table = grid.run(&seeds, workers).table(title, metric, 1);
    Ok(render(&[table], chart, csv))
}

/// `splicecast figure <name>`: one figure of the registry over the swarm
/// the options describe.
pub fn figure_command(name: Option<&str>, args: &Args) -> Result<String, String> {
    let names = figure_names();
    let name =
        name.ok_or_else(|| format!("`figure` needs a name right after it, one of: {names}"))?;
    let figure = figure(name)
        .ok_or_else(|| format!("unknown figure `{name}` (expected one of: {names})"))?;
    let (base, seeds, workers) = (base_config(args)?, seeds(args)?, workers(args)?);
    let (chart, csv) = (args.flag("chart")?, args.flag("csv")?);
    args.reject_unread()?;
    let tables = figure.run(&base, &seeds, workers);
    Ok(format!(
        "{}\n\n{}",
        figure.caption,
        render(&tables, chart, csv)
    ))
}

/// `splicecast overhead`.
pub fn overhead_command(args: &Args) -> Result<String, String> {
    let video = clip(args)?.build();
    let durations = args.num_list("durations", &[1.0f64, 2.0, 4.0, 8.0, 16.0])?;
    let csv = args.flag("csv")?;
    args.reject_unread()?;
    for &d in &durations {
        SplicingSpec::Duration(d).check()?;
    }
    let mut table = Table::new(
        "Splicing overhead",
        "splicing",
        &["segments", "total MB", "overhead %", "mean kB", "max kB"],
    );
    let mut variants: Vec<(String, SplicingSpec)> = vec![("gop".into(), SplicingSpec::Gop)];
    variants.extend(
        durations
            .iter()
            .map(|&d| (format!("{d}s"), SplicingSpec::Duration(d))),
    );
    for (name, spec) in &variants {
        let list = spec.splice(&video);
        table.push_row(
            name,
            &[
                list.len() as f64,
                list.total_bytes() as f64 / 1e6,
                list.overhead_ratio() * 100.0,
                list.mean_segment_bytes() / 1e3,
                list.max_segment_bytes() as f64 / 1e3,
            ],
        );
    }
    let mut out = table.to_string();
    if csv {
        out.push_str("\ncsv:\n");
        out.push_str(&table.to_csv());
    }
    Ok(out)
}

/// `splicecast formula`.
pub fn formula_command(args: &Args) -> Result<String, String> {
    let bandwidth_kb: f64 = args.num("bandwidth", 128.0)?;
    let buffered: f64 = args.num("buffered", 4.0)?;
    let segment_kb: f64 = args.num("segment-kb", 512.0)?;
    let bitrate_mbps: f64 = args.num("bitrate-mbps", 1.0)?;
    args.reject_unread()?;
    for (value, what) in [
        (bandwidth_kb, "peer bandwidth"),
        (segment_kb, "segment size"),
        (bitrate_mbps, "bitrate"),
    ] {
        if !(value.is_finite() && value > 0.0) {
            return Err(format!("{what} must be positive and finite, got {value}"));
        }
    }
    if !(buffered.is_finite() && buffered >= 0.0) {
        return Err("buffered time must be a non-negative number of seconds".to_owned());
    }
    let b = bandwidth_kb * 1_000.0;
    let w = (segment_kb * 1_000.0) as u64;
    let k = optimal_pool_size(b, buffered, w);
    let cdn_bytes = max_cdn_segment_bytes(b, buffered);
    let cdn_secs = max_cdn_segment_secs(b, buffered, bitrate_mbps * 1e6);
    Ok(format!(
        "Eq. 1 (§III): with B = {bandwidth_kb:.0} kB/s, T = {buffered:.1} s, W = {segment_kb:.0} kB\n\
         \x20 k = max(⌊B·T/W⌋, 1) = {k} simultaneous downloads\n\n\
         §IV bound: a CDN-served segment must fit B·T = {} kB\n\
         \x20 at {bitrate_mbps:.1} Mbps that allows segments up to {cdn_secs:.1} s\n",
        cdn_bytes / 1000,
    ))
}

/// `splicecast abr`.
pub fn abr_command(args: &Args) -> Result<String, String> {
    let algorithm = match args.value("algorithm")?.unwrap_or("buffer") {
        "buffer" => AbrAlgorithm::BufferBased {
            low_secs: 4.0,
            high_secs: 16.0,
        },
        "rate" => AbrAlgorithm::RateBased { safety: 0.8 },
        other => {
            if let Some(rung) = other.strip_prefix("fixed:") {
                let rung: usize = rung
                    .parse()
                    .map_err(|_| format!("bad rendition `{rung}`"))?;
                let rungs = Ladder::BITRATES_BPS.len();
                if rung >= rungs {
                    return Err(format!(
                        "no rendition {rung}: the ladder has {rungs} rungs (0 to {})",
                        rungs - 1
                    ));
                }
                AbrAlgorithm::FixedRendition(rung)
            } else {
                return Err(format!("unknown algorithm `{other}`"));
            }
        }
    };
    let ladder = Ladder::builder()
        .duration_secs(clip(args)?.duration_secs)
        .build();
    let config = AbrConfig {
        n_clients: args.num("clients", 19usize)?,
        client_bandwidth_bytes_per_sec: args.num("bandwidth", 256.0)? * 1_000.0,
        algorithm,
        max_sim_secs: 900.0,
    };
    let seeds = seeds(args)?;
    args.reject_unread()?;
    config.check()?;
    let (mut stalls, mut stall_secs, mut startup, mut quality) = (0.0, 0.0, 0.0, 0.0);
    for &seed in &seeds {
        let metrics = run_abr(&ladder, &config, seed);
        stalls += metrics.mean_stalls();
        stall_secs += metrics.mean_stall_secs();
        startup += metrics.mean_startup_secs();
        quality += metrics.mean_bitrate_bps();
    }
    let n = seeds.len() as f64;
    Ok(format!(
        "ABR ({}) with {} clients at {:.0} kB/s, ladder 0.25/0.5/1.0 Mbps:\n\
         \x20 stalls:     {:.1}\n\
         \x20 stall time: {:.1} s\n\
         \x20 startup:    {:.1} s\n\
         \x20 delivered:  {:.2} Mbps\n",
        algorithm.name(),
        config.n_clients,
        config.client_bandwidth_bytes_per_sec / 1e3,
        stalls / n,
        stall_secs / n,
        startup / n,
        quality / n / 1e6,
    ))
}
