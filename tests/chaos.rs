//! Chaos harness: seeded random fault schedules (crash-stop churn ×
//! control-message loss/delay × CDN outages × link flaps) driven through
//! the public experiment API, with the peer-side defense (source backoff
//! bans) enabled unless a case says otherwise.
//!
//! The property under test: as long as the CDN eventually comes back, every
//! persistent peer (neither churned nor crashed) completes the stream, the
//! simulation never deadlocks, and the fault counters reconcile with the
//! per-peer reports. With no fault at all, the defenses evict nobody.
//! Every run in this file also goes through [`conserving_run`], which
//! asserts that bytes are conserved. Each schedule is derived
//! deterministically from its seed, so failures reproduce exactly.
//!
//! One big-swarm case takes seconds in release builds and is `#[ignore]`d
//! in the default suite:
//!
//! ```sh
//! cargo test --release -p splicecast-integration --test chaos -- --ignored
//! ```

use splicecast_core::swarm::PeerReport;
use splicecast_core::{
    run_once, CdnConfig, CdnOutageConfig, ChurnConfig, ControlPlane, CrashChurnConfig,
    DefenseConfig, DiscoveryMode, ExperimentConfig, FaultPlanConfig, LinkFlapConfig, SplicingSpec,
    SwarmMetrics, VideoSpec,
};

/// splitmix64: derives independent fault knobs from one chaos seed without
/// touching the simulation's own RNG streams.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn base() -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(384_000.0)
        .with_leechers(5)
        .with_defense(DefenseConfig);
    config.video = VideoSpec {
        duration_secs: 25.0,
    };
    config.swarm.cdn = Some(CdnConfig::default());
    config.swarm.max_sim_secs = 900.0;
    config
}

/// Runs `config` once and asserts byte conservation before handing the
/// metrics on — whatever the schedule crashed, dropped, delayed or cut off:
///
/// - a finished viewer holds every segment, one booked fetch each, so it
///   downloaded at least the sum of all segment sizes (more when a raced
///   re-request delivered a duplicate);
/// - swarm-wide, the payload the network delivered is the payload the
///   leechers booked, completed flow by completed flow. The network books
///   a flow when the sender finishes and the receiver half a round trip
///   later, so a receiver that crashes or leaves in between strands whole
///   segments: with nobody departed the two sides are equal, otherwise the
///   network is ahead by at most the completed flows no fetch accounts
///   for, each at most the largest segment.
fn conserving_run(config: &ExperimentConfig, seed: u64) -> SwarmMetrics {
    let result = run_once(config, seed);
    let metrics = result.metrics;
    let fetched =
        |r: &PeerReport| r.segments_from_seeder + r.segments_from_peers + r.segments_from_cdn;
    for report in metrics.reports.iter().filter(|r| r.finished) {
        assert_eq!(
            fetched(report),
            result.segment_count,
            "seed {seed}: finished peer {} does not hold every segment",
            report.peer
        );
        assert!(
            report.bytes_downloaded >= result.total_transfer_bytes,
            "seed {seed}: finished peer {} downloaded {} B of a {} B stream",
            report.peer,
            report.bytes_downloaded,
            result.total_transfer_bytes
        );
    }
    let delivered = metrics.net.payload_bytes_delivered;
    let booked = metrics.total_bytes_downloaded();
    let stranded = delivered
        .checked_sub(booked)
        .unwrap_or_else(|| panic!("seed {seed}: {booked} B booked, only {delivered} B delivered"));
    if metrics.reports.iter().all(|r| !r.departed) {
        assert_eq!(
            stranded, 0,
            "seed {seed}: nobody left, yet bytes went missing"
        );
    }
    let fetches: u64 = metrics.reports.iter().map(|r| fetched(r) as u64).sum();
    let unfetched_flows = metrics
        .net
        .flows_completed
        .checked_sub(fetches)
        .unwrap_or_else(|| panic!("seed {seed}: more fetches than completed flows"));
    let largest = config
        .splicing
        .splice(&config.video.build())
        .max_segment_bytes();
    assert!(
        stranded <= unfetched_flows * largest,
        "seed {seed}: {stranded} B stranded by {unfetched_flows} flows of at most {largest} B"
    );
    metrics
}

/// A full random schedule: every fault class armed, knobs drawn from the
/// chaos seed.
fn chaos_config(seed: u64) -> ExperimentConfig {
    let mut s = seed.wrapping_mul(0x00C0_FFEE).wrapping_add(1);
    let crash_fraction = 0.1 + 0.3 * unit(&mut s);
    let message_loss = 0.12 * unit(&mut s);
    let message_delay_prob = 0.2 * unit(&mut s);
    let flaps = (splitmix(&mut s) % 3) as usize;
    let outages = (splitmix(&mut s) % 2) as usize;
    let mut config = base();
    config.swarm.faults = Some(FaultPlanConfig {
        crash: Some(CrashChurnConfig::new(crash_fraction, 12.0)),
        message_loss,
        message_delay_prob,
        message_delay_max_secs: 1.5,
        link_flaps: (flaps > 0).then_some(LinkFlapConfig {
            count: flaps,
            degraded_bytes_per_sec: 48_000.0,
            duration_secs: 8.0,
            window_secs: 25.0,
        }),
        cdn_outages: (outages > 0).then_some(CdnOutageConfig {
            count: outages,
            duration_secs: 8.0,
            window_secs: 25.0,
        }),
    });
    config
}

#[test]
fn seeded_chaos_schedules_all_converge() {
    for seed in 1u64..=10 {
        let config = chaos_config(seed);
        let metrics = conserving_run(&config, seed);
        assert_eq!(metrics.reports.len(), 5, "chaos seed {seed} lost a report");
        assert!(
            metrics.sim_end_secs < config.swarm.max_sim_secs,
            "chaos seed {seed} ran into the simulation cap ({}s)",
            metrics.sim_end_secs
        );
        assert_eq!(
            metrics.stuck_peers().count(),
            0,
            "chaos seed {seed} left persistent peers stuck:\n{}",
            metrics.stuck_report()
        );
        // Counter reconciliation: a crash in the sink report implies a
        // departure, and the roll-up equals the per-peer sum.
        for report in &metrics.reports {
            assert!(
                report.fault.crashes == 0 || report.departed,
                "chaos seed {seed}: peer {} crashed but is not departed",
                report.peer
            );
        }
        let totals = metrics.fault_totals();
        let summed: u64 = metrics.reports.iter().map(|r| r.fault.crashes).sum();
        assert_eq!(totals.crashes, summed);
    }
}

#[test]
fn chaos_runs_are_reproducible() {
    let config = chaos_config(3);
    let first = conserving_run(&config, 42);
    let second = conserving_run(&config, 42);
    assert_eq!(first, second, "same seed, same schedule, same metrics");
}

#[test]
fn full_crash_fraction_marks_every_peer_crashed() {
    let mut config = base();
    config.swarm.faults = Some(FaultPlanConfig {
        crash: Some(CrashChurnConfig::new(1.0, 5.0)),
        ..FaultPlanConfig::default()
    });
    let metrics = conserving_run(&config, 9);
    assert_eq!(metrics.reports.len(), 5);
    for report in &metrics.reports {
        assert_eq!(
            report.fault.crashes, 1,
            "peer {} should have crashed before finishing",
            report.peer
        );
        assert!(report.departed, "crashed peer {} not departed", report.peer);
        assert!(!report.finished, "crashed peer {} finished", report.peer);
    }
    assert_eq!(metrics.fault_totals().crashes, 5);
}

#[test]
fn cdn_outage_counters_balance() {
    let mut config = base();
    config.swarm.faults = Some(FaultPlanConfig {
        cdn_outages: Some(CdnOutageConfig {
            count: 1,
            duration_secs: 8.0,
            window_secs: 20.0,
        }),
        ..FaultPlanConfig::default()
    });
    let metrics = conserving_run(&config, 21);
    assert_eq!(metrics.injected.outages_started, 1);
    assert_eq!(metrics.injected.outages_ended, 1);
    assert_eq!(
        metrics.stuck_peers().count(),
        0,
        "{}",
        metrics.stuck_report()
    );
}

/// `splicecast run --peers 19 --splicing 4s --bandwidth 512 --cdn-only`
/// with `outages` CDN outages of 10 s starting within `window_secs`.
fn cdn_only_with_outages(outages: usize, window_secs: f64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(512_000.0)
        .with_splicing(SplicingSpec::Duration(4.0));
    config.swarm.cdn = Some(CdnConfig::default());
    config.swarm.p2p = false;
    config.swarm.faults = Some(FaultPlanConfig {
        cdn_outages: Some(CdnOutageConfig {
            count: outages,
            duration_secs: 10.0,
            window_secs,
        }),
        ..FaultPlanConfig::default()
    });
    config
}

/// Every viewer of a CDN-only swarm is served by the CDN alone (§IV), so
/// nobody covers its outages. An outage is a pause: the CDN frees the
/// upload slots its outage cut, and the viewers wait for it, with or
/// without defenses. Two schedules: `run ... --cdn-outages 5` at seeds
/// 101 / 202 / 303, and one outage from the first second, when the
/// viewers join and greet the CDN.
#[test]
fn cdn_only_swarm_rides_out_cdn_outages() {
    let clip_secs = ExperimentConfig::paper_baseline().video.duration_secs;
    let schedules = [
        (cdn_only_with_outages(5, clip_secs), [101, 202, 303]),
        (cdn_only_with_outages(1, 1.0), [1, 2, 3]),
    ];
    for (mut config, seeds) in schedules {
        for defense in [None, Some(DefenseConfig)] {
            config.swarm.defense = defense;
            for seed in seeds {
                let metrics = conserving_run(&config, seed);
                let injected = metrics.injected;
                assert!(injected.outages_started > 0, "seed {seed}");
                assert_eq!(injected.outages_started, injected.outages_ended);
                assert_eq!(
                    metrics.stuck_peers().count(),
                    0,
                    "seed {seed}, {defense:?}: viewers stuck:\n{}",
                    metrics.stuck_report()
                );
            }
        }
    }
}

#[test]
fn heavy_message_loss_drops_traffic_but_converges() {
    let mut config = base();
    config.swarm.faults = Some(FaultPlanConfig {
        message_loss: 0.3,
        ..FaultPlanConfig::default()
    });
    let metrics = conserving_run(&config, 33);
    assert!(
        metrics.injected.messages_dropped > 0,
        "30% loss must drop something"
    );
    assert_eq!(
        metrics.stuck_peers().count(),
        0,
        "defenses must route around lost control traffic:\n{}",
        metrics.stuck_report()
    );
}

/// `splicecast run --splicing <splicing> --peers 10 --clip-secs 60
/// --bandwidth 256 --cdn --crash 0.4 --msg-loss 0.1`, with no defense.
fn crash_and_loss_cell(splicing: SplicingSpec) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(256_000.0)
        .with_splicing(splicing)
        .with_leechers(10);
    config.video = VideoSpec {
        duration_secs: 60.0,
    };
    config.swarm.cdn = Some(CdnConfig::default());
    config.swarm.faults = Some(FaultPlanConfig {
        crash: Some(CrashChurnConfig::new(0.4, 45.0)),
        message_loss: 0.1,
        ..FaultPlanConfig::default()
    });
    config
}

/// A `Request` is reliable, as on the TCP connection it travels over. When
/// the fault plane could drop one, a request to the only fellow holding a
/// segment was re-timed forever and never re-sent: the GOP cell finished
/// 83 % of its viewers at seed 303 and the 4 s cell 97 % over seeds 1–10,
/// both without defenses.
#[test]
fn undefended_viewers_finish_under_crashes_and_message_loss() {
    let cells = [
        (SplicingSpec::Gop, 303..=303),
        (SplicingSpec::Duration(4.0), 1..=10),
    ];
    for (splicing, seeds) in cells {
        let config = crash_and_loss_cell(splicing);
        for seed in seeds {
            let metrics = conserving_run(&config, seed);
            assert!(metrics.injected.messages_dropped > 0, "seed {seed}");
            assert_eq!(
                metrics.stuck_peers().count(),
                0,
                "{splicing:?}, seed {seed}: viewers stuck:\n{}",
                metrics.stuck_report()
            );
        }
    }
}

/// `splicecast run --profile scale --splicing 2s --bandwidth 512 --defend`
/// at `leechers`, no fault plan.
fn defended_scale_swarm(leechers: usize, discovery: DiscoveryMode) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_baseline()
        .with_scale_profile()
        .with_bandwidth(512_000.0)
        .with_splicing(SplicingSpec::Duration(2.0))
        .with_leechers(leechers)
        .with_defense(DefenseConfig);
    config.swarm.discovery = discovery;
    config
}

/// A fault-free swarm evicts nobody. Nobody crashes or leaves, so every
/// neighbour stays a neighbour: a viewer that finished playback falls
/// quiet but is still a complete seed, and dropping it for its silence
/// starves the viewers still downloading. No flow fails (a failed flow is
/// how a neighbour gets forgotten), and under full discovery every viewer
/// ends with a view of every node it started with: the seeder and its
/// fellows.
#[test]
fn fault_free_defended_swarm_evicts_nobody() {
    const LEECHERS: usize = 40;
    for discovery in [DiscoveryMode::Tracker, DiscoveryMode::Full] {
        let metrics = conserving_run(&defended_scale_swarm(LEECHERS, discovery), 5);
        assert_eq!(metrics.fault_totals().silent_evictions, 0, "{discovery:?}");
        assert_eq!(metrics.net.flows_failed, 0, "{discovery:?}: a flow failed");
        if discovery == DiscoveryMode::Full {
            for report in &metrics.reports {
                assert_eq!(
                    report.mem.views, LEECHERS as u64,
                    "viewer {}: a live neighbour was dropped",
                    report.peer
                );
            }
        }
        assert_eq!(
            metrics.stuck_peers().count(),
            0,
            "{discovery:?}: viewers stuck:\n{}",
            metrics.stuck_report()
        );
    }
}

/// ROADMAP item 2's big tracker swarm finishes for every viewer.
#[test]
#[ignore = "600-leecher run: use --release -- --ignored"]
fn defended_tracker_swarm_of_600_completes() {
    let metrics = conserving_run(&defended_scale_swarm(600, DiscoveryMode::Tracker), 5);
    assert_eq!(
        metrics.stuck_peers().count(),
        0,
        "viewers stuck:\n{}",
        metrics.stuck_report()
    );
}

/// Combined churn (graceful departures + crash-stop) under the eventful
/// control plane with tracker discovery: lost announcements, crashed
/// neighbours and churn-evicted sources must never strand a viewer. In
/// debug builds every skipped scheduling pass is checked to be one that
/// would have issued no request, so a change that could unblock a viewer
/// but marks nothing dirty fails here.
#[test]
fn combined_churn_on_eventful_plane_strands_nobody() {
    let mut config = base();
    config.swarm.discovery = DiscoveryMode::Tracker;
    config.swarm.control_plane = ControlPlane::Eventful;
    config.swarm.churn = Some(ChurnConfig::new(0.4, 15.0));
    config.swarm.faults = Some(FaultPlanConfig {
        crash: Some(CrashChurnConfig::new(0.3, 12.0)),
        message_loss: 0.05,
        ..FaultPlanConfig::default()
    });

    let metrics = conserving_run(&config, 55);
    assert_eq!(
        metrics.stuck_peers().count(),
        0,
        "persistent peers stuck:\n{}",
        metrics.stuck_report()
    );
    let departed = metrics.reports.iter().filter(|r| r.departed).count();
    assert!(
        departed >= 1,
        "this schedule is meant to churn somebody out"
    );
}

/// The combined-churn schedule on a 32-leecher swarm, under crash-stop
/// churn and message loss: neighbour sets fill and drain as peers come
/// and go, and the debug skip audit watches every skipped pass.
#[test]
fn combined_churn_on_32_leechers_strands_nobody() {
    let mut config = base().with_leechers(32);
    config.swarm.discovery = DiscoveryMode::Tracker;
    config.swarm.control_plane = ControlPlane::Eventful;
    config.swarm.churn = Some(ChurnConfig::new(0.4, 15.0));
    config.swarm.faults = Some(FaultPlanConfig {
        crash: Some(CrashChurnConfig::new(0.3, 12.0)),
        message_loss: 0.05,
        ..FaultPlanConfig::default()
    });

    let metrics = conserving_run(&config, 55);
    assert_eq!(
        metrics.stuck_peers().count(),
        0,
        "persistent peers stuck:\n{}",
        metrics.stuck_report()
    );
}
