//! Failure injection: churn, bandwidth collapse, and degenerate swarms.

use splicecast_core::{run_once, CdnConfig, ChurnConfig, ExperimentConfig, VideoSpec};

fn base() -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(384_000.0)
        .with_leechers(6);
    config.video = VideoSpec {
        duration_secs: 30.0,
    };
    config.swarm.max_sim_secs = 900.0;
    config
}

#[test]
fn stayers_survive_heavy_churn() {
    let mut config = base();
    config.swarm.churn = Some(ChurnConfig::new(0.7, 20.0));
    let result = run_once(&config, 13);
    let metrics = &result.metrics;
    assert_eq!(metrics.reports.len(), 6);
    let departed = metrics.reports.iter().filter(|r| r.departed).count();
    assert!(departed >= 1, "seeded churn should remove somebody");
    for report in metrics.watching() {
        assert!(
            report.finished,
            "stayer {} must finish despite churn",
            report.peer
        );
    }
}

#[test]
fn departed_peers_report_partial_sessions() {
    let mut config = base();
    // Everyone volatile with very short lifetimes: most sessions truncate.
    config.swarm.churn = Some(ChurnConfig::new(1.0, 10.0));
    let result = run_once(&config, 29);
    for report in &result.metrics.reports {
        if report.departed {
            assert!(!report.finished || report.qoe.finished_secs.is_some());
            // A truncated session never reports more stall time than the run.
            assert!(report.qoe.total_stall_secs <= result.metrics.sim_end_secs);
        }
    }
}

#[test]
fn bandwidth_collapse_stalls_then_recovers() {
    let clean = run_once(&base(), 7);
    let mut choked = base();
    // Collapse every peer link to 8 kB/s between t=20s and t=50s.
    choked.swarm.bandwidth_schedule = vec![(20.0, 8_000.0), (50.0, 384_000.0)];
    let result = run_once(&choked, 7);
    assert_eq!(
        result.metrics.completion_rate(),
        1.0,
        "the swarm must recover"
    );
    assert!(
        result.metrics.mean_stall_secs() > clean.metrics.mean_stall_secs(),
        "a 30 s blackout must show up in stall time ({} vs {})",
        result.metrics.mean_stall_secs(),
        clean.metrics.mean_stall_secs()
    );
}

#[test]
fn single_leecher_swarm_works() {
    let mut config = base().with_leechers(1);
    config.swarm.join_stagger_secs = 0.1;
    let result = run_once(&config, 3);
    let report = &result.metrics.reports[0];
    assert!(report.finished);
    assert_eq!(report.segments_from_peers, 0, "nobody else to fetch from");
    assert!(report.segments_from_seeder > 0);
}

#[test]
fn cdn_only_mode_survives_total_peer_churn() {
    let mut config = base();
    config.swarm.p2p = false;
    config.swarm.cdn = Some(CdnConfig::default());
    config.swarm.churn = Some(ChurnConfig::new(0.5, 15.0));
    let result = run_once(&config, 17);
    for report in result.metrics.watching() {
        assert!(
            report.finished,
            "CDN-only stayer {} must finish",
            report.peer
        );
        assert_eq!(report.segments_from_peers, 0);
    }
}

#[test]
fn extreme_loss_still_converges() {
    let mut config = base();
    config.swarm.end_to_end_loss = 0.25;
    config.swarm.max_sim_secs = 1_800.0;
    let result = run_once(&config, 5);
    // At 25% loss the stream crawls but must still finish within the cap.
    assert!(
        result.metrics.completion_rate() > 0.9,
        "{}",
        result.metrics.completion_rate()
    );
}
