//! # splicecast-cli
//!
//! Command-line front end for the splicecast experiment stack: run single
//! swarms, sweep parameters into figure-shaped tables, evaluate the
//! paper's formulas, and compare against the adaptive-bitrate baseline —
//! all without writing Rust.
//!
//! ```text
//! splicecast run --bandwidth 256 --splicing 4s --peers 8
//! splicecast sweep --bandwidths 128,256,512 --metric stalls
//! splicecast figure fig2 --profile scale --csv
//! splicecast overhead
//! splicecast formula --bandwidth 128 --buffered 8 --segment-kb 512
//! splicecast abr --bandwidth 160 --algorithm buffer
//! ```

#![warn(missing_docs)]

mod args;
mod commands;

pub use args::Args;

/// Entry point: parse and dispatch, returning the text to print.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands or bad options.
pub fn run(raw: &[String]) -> Result<String, String> {
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" || raw[0] == "-h" {
        return Ok(commands::help());
    }
    if raw[0] == "figure" {
        // The one command with an operand: the figure's name comes first.
        let (name, options) = match raw.get(1) {
            Some(name) if !name.starts_with("--") => (Some(name.as_str()), &raw[2..]),
            _ => (None, &raw[1..]),
        };
        let args = Args::parse(&[&raw[..1], options].concat())?;
        return commands::figure_command(name, &args);
    }
    let args = Args::parse(raw)?;
    match args.command.as_str() {
        "run" => commands::run_swarm_command(&args),
        "sweep" => commands::sweep_command(&args),
        "overhead" => commands::overhead_command(&args),
        "formula" => commands::formula_command(&args),
        "abr" => commands::abr_command(&args),
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(tokens: &[&str]) -> Result<String, String> {
        run(&tokens.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn help_is_always_available() {
        for invocation in [&["help"][..], &["--help"], &["-h"], &[]] {
            let text = call(invocation).unwrap();
            assert!(text.contains("splicecast"), "{invocation:?}");
            assert!(text.contains("sweep"));
        }
    }

    /// Each command's section of `help` names every option it reads.
    #[test]
    fn help_names_every_option_of_overhead_formula_and_abr() {
        let text = commands::help();
        let section = |title: &str| {
            let start = text.find(title).unwrap_or_else(|| panic!("no {title}"));
            text[start..].split("\n\n").next().unwrap().to_owned()
        };
        for (title, options) in [
            ("OVERHEAD OPTIONS", "--durations --clip-secs --csv"),
            (
                "FORMULA OPTIONS",
                "--bandwidth --buffered --segment-kb --bitrate-mbps",
            ),
            (
                "ABR OPTIONS",
                "--clients --bandwidth --algorithm --clip-secs --seeds",
            ),
        ] {
            let listed = section(title);
            for option in options.split_whitespace() {
                assert!(listed.contains(option), "{title} lacks {option}:\n{listed}");
            }
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(call(&["dance"]).unwrap_err().contains("unknown command"));
    }

    #[test]
    fn formula_command_prints_eq1() {
        let text = call(&[
            "formula",
            "--bandwidth",
            "128",
            "--buffered",
            "8",
            "--segment-kb",
            "512",
        ])
        .unwrap();
        assert!(text.contains("= 2 simultaneous"), "{text}");
        assert!(text.contains("B·T"), "{text}");
    }

    #[test]
    fn overhead_command_prints_table() {
        let text = call(&["overhead", "--clip-secs", "20"]).unwrap();
        assert!(text.contains("gop"));
        assert!(text.contains("overhead"));
    }

    #[test]
    fn run_command_small_swarm() {
        let text = call(&[
            "run",
            "--peers",
            "3",
            "--clip-secs",
            "12",
            "--bandwidth",
            "512",
            "--seeds",
            "1",
        ])
        .unwrap();
        assert!(text.contains("stalls"), "{text}");
        assert!(text.contains("startup"), "{text}");
    }

    /// How a leecher learns who holds what is not a choice:
    /// `--dissemination` is no option.
    #[test]
    fn dissemination_is_not_an_option() {
        let quick = ["run", "--peers", "3", "--clip-secs", "12", "--seeds", "1"];
        for mode in ["full", "windowed"] {
            let err = call(&[&quick[..], &["--dissemination", mode]].concat()).unwrap_err();
            assert!(err.contains("unknown option --dissemination"), "{err}");
        }
    }

    #[test]
    fn run_command_scale_profile() {
        let text = call(&[
            "run",
            "--profile",
            "scale",
            "--peers",
            "3",
            "--clip-secs",
            "12",
            "--bandwidth",
            "512",
            "--seeds",
            "1",
        ])
        .unwrap();
        assert!(text.contains("stalls"), "{text}");
        // The scale profile's eventful plane coalesces Haves into bundles.
        assert!(text.contains("bundles"), "{text}");
        // Memory accounting rides along in every run report.
        assert!(text.contains("peer memory"), "{text}");
        assert!(text.contains("completion:        100%"), "{text}");
    }

    #[test]
    fn scale_profile_allows_explicit_overrides() {
        // --control-plane legacy overrides the profile's eventful default.
        let text = call(&[
            "run",
            "--profile",
            "scale",
            "--control-plane",
            "legacy",
            "--peers",
            "3",
            "--clip-secs",
            "12",
            "--bandwidth",
            "512",
            "--seeds",
            "1",
        ])
        .unwrap();
        assert!(text.contains(" haves, 0 bundles, "), "{text}");
    }

    /// `--profile scale` is the builder, not a second spelling of it.
    #[test]
    fn scale_profile_flag_is_the_scale_profile_builder() {
        let parse = |tokens: &[&str]| {
            let raw: Vec<String> = tokens.iter().map(|s| (*s).to_owned()).collect();
            commands::base_config(&Args::parse(&raw).unwrap()).unwrap()
        };
        let paper = parse(&["run"]);
        assert_eq!(
            paper,
            splicecast_core::ExperimentConfig::paper_baseline().with_bandwidth(128_000.0)
        );
        assert_eq!(
            parse(&["run", "--profile", "scale"]),
            paper.clone().with_scale_profile()
        );
        assert_eq!(
            parse(&["run", "--profile", "scale", "--flow-model", "rounds"]),
            paper
                .with_scale_profile()
                .with_flow_model(splicecast_core::netsim::FlowModel::Rounds)
        );
    }

    #[test]
    fn unknown_profile_errors() {
        let err = call(&["run", "--profile", "huge"]).unwrap_err();
        assert!(err.contains("unknown profile"), "{err}");
    }

    /// Seeds fan out over `--workers`; the report never depends on the count.
    #[test]
    fn run_command_is_identical_across_worker_counts() {
        let quick = [
            "run",
            "--peers",
            "3",
            "--clip-secs",
            "12",
            "--seeds",
            "5,6,7",
        ];
        let one = call(&[&quick[..], &["--workers", "1"]].concat()).unwrap();
        assert_eq!(
            one,
            call(&[&quick[..], &["--workers", "4"]].concat()).unwrap()
        );
        // A completed run has nobody to name.
        assert!(one.contains("completion:        100%"), "{one}");
        assert!(!one.contains("stuck viewers"), "{one}");
    }

    /// `figure abr` runs its ABR arms on the worker pool too; the tables
    /// never depend on the count.
    #[test]
    fn figure_abr_is_identical_across_worker_counts() {
        let quick = [
            "figure",
            "abr",
            "--peers",
            "3",
            "--clip-secs",
            "12",
            "--seeds",
            "1,2",
        ];
        assert_eq!(
            call(&[&quick[..], &["--workers", "1"]].concat()).unwrap(),
            call(&[&quick[..], &["--workers", "3"]].concat()).unwrap()
        );
    }

    /// A run that leaves viewers unfinished says which, per seed: ten lines
    /// of each run's `stuck_report()`, then a count of the rest.
    #[test]
    fn collapsed_run_names_its_stuck_viewers() {
        // 6 MB over 1 kB/s links cannot arrive inside the simulated-time cap.
        let text = call(&[
            "run",
            "--peers",
            "12",
            "--clip-secs",
            "48",
            "--bandwidth",
            "1",
            "--seeds",
            "1,2",
            "--csv",
        ])
        .unwrap();
        assert!(text.contains("completion:        0%"), "{text}");
        for seed in [1, 2] {
            let block = format!("\nstuck viewers (seed {seed}):\n  peer 0: ");
            assert!(text.contains(&block), "{text}");
        }
        assert_eq!(text.matches(" segments (").count(), 20, "{text}");
        assert_eq!(text.matches("\n  … and 2 more\n").count(), 2, "{text}");
        // The csv block stays the tail of the report.
        assert!(text.ends_with(",0.000,0.818\n"), "{text}");
    }

    #[test]
    fn zero_workers_is_rejected() {
        let err = call(&["sweep", "--workers", "0"]).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    /// Out-of-range values are the configuration's own `Err`, naming the
    /// rule — never a panic out of the run.
    #[test]
    fn invalid_values_are_errors_not_panics() {
        let cases: [(&[&str], &str); 37] = [
            (&["--peers", "0"], "a swarm needs at least one leecher"),
            (&["--bandwidth", "0"], "peer bandwidth must be positive"),
            (&["--bandwidth", "inf"], "bandwidths must be finite"),
            // Finite in kB/s, infinite in the bits per second a link takes.
            (&["--bandwidth", "1e305"], "bandwidths must be finite"),
            (&["--churn", "2"], "volatile fraction must be in [0,1]"),
            (&["--crash", "2"], "crash fraction must be in [0,1]"),
            (&["--msg-loss", "2"], "message loss must be in [0,1]"),
            // Negative and NaN fractions are not "off": they reach `check()`.
            (&["--churn", "-0.5"], "volatile fraction must be in [0,1]"),
            (&["--churn", "nan"], "volatile fraction must be in [0,1]"),
            (&["--crash", "-0.1"], "crash fraction must be in [0,1]"),
            (&["--crash", "nan"], "crash fraction must be in [0,1]"),
            (&["--msg-loss", "-0.1"], "message loss must be in [0,1]"),
            (&["--msg-loss", "nan"], "message loss must be in [0,1]"),
            (
                &["--msg-delay", "-0.1"],
                "message delay probability must be in [0,1]",
            ),
            (
                &["--msg-delay", "nan"],
                "message delay probability must be in [0,1]",
            ),
            (&["--cdn-outages", "1"], "CDN outages require a CDN"),
            // Times past a day and window counts past 10 000 used to pass
            // `check()` and panic (or run out of memory) inside the run.
            (
                &["--msg-delay", "0.5", "--msg-delay-max", "inf"],
                "message delay bound must be in [0,86400] s",
            ),
            (
                &["--msg-delay", "0.5", "--msg-delay-max", "1e30"],
                "message delay bound must be in [0,86400] s",
            ),
            (
                &["--crash", "0.5", "--crash-uptime", "inf"],
                "mean uptime must be positive and at most 86400 s",
            ),
            (&["--flaps", "100000000"], "at most 10000 flap windows"),
            (
                &["--cdn", "--cdn-outages", "100000000"],
                "at most 10000 outage windows",
            ),
            (&["--clip-secs", "0"], "clip length must be a positive"),
            (&["--clip-secs", "-5"], "clip length must be a positive"),
            (&["--clip-secs", "nan"], "clip length must be a positive"),
            // Would pass a finite-and-positive test, then allocate 3e10 frames.
            (&["--clip-secs", "1e9"], "at most 86400"),
            (&["--splicing", "0s"], "segment duration must be positive"),
            // Rounds to zero 90 kHz ticks: the splicer would never advance.
            (&["--splicing", "0.000001s"], "at least one media tick"),
            (&["--splicing", "bytes:0"], "segment size must be positive"),
            (&["--policy", "fixed:0"], "a fixed pool needs at least one"),
            (&["--peers", "4", "--seed", "7"], "unknown option --seed"),
            // A flag followed by a word takes it as its value: an error, not off.
            (
                &["--defend", "banana", "--crash", "0.5"],
                "--defend is a flag (no value, or true / false), got `banana`",
            ),
            (&["--csv", "nope"], "--csv is a flag"),
            (&["--tracker", "8"], "--tracker is a flag"),
            (&["--cdn", "2"], "--cdn is a flag"),
            (&["--cdn-only", "x"], "--cdn-only is a flag"),
            (&["--control-plane", "banana"], "unknown control plane"),
            (&["--flow-model", "banana"], "unknown flow model"),
        ];
        for (flags, message) in cases {
            for command in [&["run"][..], &["sweep"], &["figure", "fig2"]] {
                let tokens = [command, flags].concat();
                let err = std::panic::catch_unwind(|| call(&tokens))
                    .unwrap_or_else(|_| panic!("{tokens:?} unwound"))
                    .unwrap_err();
                assert!(err.contains(message), "{tokens:?}: {err}");
            }
        }
        let err = call(&["sweep", "--bandwidths", "0,128"]).unwrap_err();
        assert!(err.contains("peer bandwidth must be positive"), "{err}");
        let err = call(&["sweep", "--splicings", "4s,0s"]).unwrap_err();
        assert!(err.contains("segment duration must be positive"), "{err}");
        for (tokens, message) in [
            (
                &["sweep", "--bandwidths", "inf"][..],
                "bandwidths must be finite",
            ),
            (
                &["sweep", "--splicings", "4s,0.000001s"],
                "at least one media tick",
            ),
            (
                &["overhead", "--durations", "0.000001"],
                "at least one media tick",
            ),
            (&["figure"], "`figure` needs a name"),
            (&["figure", "--peers", "3"], "`figure` needs a name"),
            (&["figure", "fig6"], "unknown figure `fig6`"),
            (&["figure", "fig2", "--peers", "0"], "at least one leecher"),
            (&["figure", "fig2", "--metric", "startup"], "unknown option"),
            (&["figure", "fig2", "--chart", "bars"], "--chart is a flag"),
            (&["sweep", "--chart", "bars"], "--chart is a flag"),
            (&["overhead", "--csv", "nope"], "--csv is a flag"),
            (&["abr", "--clients", "0"], "need at least one client"),
            (
                &["abr", "--bandwidth", "0"],
                "client bandwidth must be positive",
            ),
            (
                &["abr", "--bandwidth", "1e305"],
                "bandwidths must be finite",
            ),
            (
                &["overhead", "--durations", "0"],
                "segment duration must be positive",
            ),
            (
                &["formula", "--bandwidth", "nan"],
                "peer bandwidth must be positive",
            ),
            (
                &["formula", "--bandwidth", "-5"],
                "peer bandwidth must be positive",
            ),
            (
                &["formula", "--bandwidth", "inf"],
                "peer bandwidth must be positive and finite",
            ),
            (
                &["formula", "--segment-kb", "0"],
                "segment size must be positive",
            ),
            (
                &["formula", "--bitrate-mbps", "0"],
                "bitrate must be positive",
            ),
            (
                &["formula", "--buffered", "-1"],
                "buffered time must be a non-negative number",
            ),
            (
                &["formula", "--buffered", "nan"],
                "buffered time must be a non-negative number",
            ),
            (&["overhead", "--clip-secs", "0"], "clip length must be"),
            (&["abr", "--clip-secs", "0"], "clip length must be"),
            (&["overhead", "--clip-secs", "1e9"], "at most 86400"),
            (&["abr", "--clip-secs", "1e9"], "at most 86400"),
            (
                &["abr", "--algorithm", "fixed:99"],
                "no rendition 99: the ladder has 3 rungs",
            ),
            (
                &["abr", "--algorithm", "fixed:3"],
                "no rendition 3: the ladder has 3 rungs",
            ),
        ] {
            let err = std::panic::catch_unwind(|| call(tokens))
                .unwrap_or_else(|_| panic!("{tokens:?} unwound"))
                .unwrap_err();
            assert!(err.contains(message), "{tokens:?}: {err}");
        }
        for tokens in [
            &["overhead", "--seeds", "1"][..],
            &["formula", "--peers", "3"],
            &["abr", "--nope"],
        ] {
            let err = call(tokens).unwrap_err();
            assert!(err.contains("unknown option --"), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn run_command_rejects_bad_splicing() {
        let err = call(&["run", "--splicing", "nonsense"]).unwrap_err();
        assert!(err.contains("splicing"), "{err}");
    }

    #[test]
    fn sweep_command_produces_rows() {
        let text = call(&[
            "sweep",
            "--peers",
            "3",
            "--clip-secs",
            "12",
            "--bandwidths",
            "256,512",
            "--splicings",
            "gop,4s",
            "--seeds",
            "1",
        ])
        .unwrap();
        assert!(text.contains("256"), "{text}");
        assert!(text.contains("512"), "{text}");
        assert!(text.contains("gop"), "{text}");
    }

    #[test]
    fn sweep_chart_flag_draws() {
        let text = call(&[
            "sweep",
            "--peers",
            "3",
            "--clip-secs",
            "12",
            "--bandwidths",
            "256,512",
            "--splicings",
            "4s",
            "--seeds",
            "1",
            "--chart",
        ])
        .unwrap();
        assert!(text.contains("o = 4s"), "{text}");
    }

    #[test]
    fn figure_command_prints_every_table_of_the_figure() {
        let quick = ["--peers", "3", "--clip-secs", "12", "--seeds", "1"];
        let text = call(&[&["figure", "fig5", "--csv", "--chart"], &quick[..]].concat()).unwrap();
        assert!(text.starts_with("Figure 5: "), "{text}");
        for needle in [
            "Total number of stalls",
            "Startup time, seconds (supplementary)",
            "Total delay",
            "o = adaptive",
            "\ncsv:\nbandwidth,adaptive,pool-2,pool-4,pool-8\n128 kB/s,",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // The same figure on the other stack is a different experiment.
        let paper = call(&[&["figure", "fig5"], &quick[..]].concat()).unwrap();
        let scale = [&["figure", "fig5", "--profile", "scale"], &quick[..]].concat();
        assert_ne!(call(&scale).unwrap(), paper);
    }

    #[test]
    fn abr_command_reports_quality() {
        let text = call(&[
            "abr",
            "--clients",
            "3",
            "--clip-secs",
            "12",
            "--bandwidth",
            "200",
            "--algorithm",
            "buffer",
            "--seeds",
            "1",
        ])
        .unwrap();
        assert!(text.contains("Mbps"), "{text}");
    }
}
