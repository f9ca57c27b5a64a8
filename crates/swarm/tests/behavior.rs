//! Scenario tests for swarm behaviour paths that the figure experiments
//! only exercise indirectly.

use splicecast_media::{DurationSplicer, SegmentList, Splicer, Video};
use splicecast_swarm::{
    run_swarm, ChurnConfig, DiscoveryMode, EstimatorKind, PolicyConfig, SwarmConfig, WEstimate,
};

fn segments(secs: f64) -> SegmentList {
    let video = Video::builder().duration_secs(secs).seed(5).build();
    DurationSplicer::new(4.0).splice(&video)
}

fn config() -> SwarmConfig {
    SwarmConfig {
        n_leechers: 4,
        peer_bandwidth_bytes_per_sec: 400_000.0,
        seeder_bandwidth_bytes_per_sec: 400_000.0,
        end_to_end_loss: 0.02,
        max_sim_secs: 600.0,
        ..SwarmConfig::default()
    }
}

#[test]
fn starved_seeder_slots_still_serve_everyone() {
    // One upload slot at the seeder: every queued request must eventually
    // be served or re-routed to a replica.
    let config = SwarmConfig {
        seeder_upload_slots: 1,
        ..config()
    };
    let metrics = run_swarm(&segments(24.0), &config, 3);
    assert_eq!(metrics.completion_rate(), 1.0);
}

#[test]
fn leechers_upload_while_watching() {
    let metrics = run_swarm(&segments(24.0), &config(), 9);
    let uploaders = metrics
        .reports
        .iter()
        .filter(|r| r.bytes_uploaded > 0)
        .count();
    assert!(
        uploaders >= 2,
        "P2P exchange implies leechers upload, got {uploaders}"
    );
    // Upload and download ledgers are mutually consistent: what leechers
    // and the seeder uploaded is what leechers downloaded.
    let downloaded: u64 = metrics.reports.iter().map(|r| r.bytes_downloaded).sum();
    let uploaded_by_peers: u64 = metrics.reports.iter().map(|r| r.bytes_uploaded).sum();
    assert!(uploaded_by_peers <= downloaded);
}

#[test]
fn ewma_estimator_mode_completes() {
    let config = SwarmConfig {
        estimator: EstimatorKind::Ewma { alpha: 0.3 },
        ..config()
    };
    let metrics = run_swarm(&segments(24.0), &config, 4);
    assert_eq!(metrics.completion_rate(), 1.0);
}

#[test]
fn next_segment_w_estimate_mode_completes() {
    let config = SwarmConfig {
        w_estimate: WEstimate::NextSegment,
        ..config()
    };
    let metrics = run_swarm(&segments(24.0), &config, 4);
    assert_eq!(metrics.completion_rate(), 1.0);
}

#[test]
fn w_estimates_differ_on_variable_segments() {
    // With GOP splicing the mean-W and next-W policies schedule
    // differently; both must still complete.
    let video = Video::builder().duration_secs(24.0).seed(5).build();
    let gop = splicecast_media::GopSplicer.splice(&video);
    let mean = run_swarm(&gop, &config(), 4);
    let next = run_swarm(
        &gop,
        &SwarmConfig {
            w_estimate: WEstimate::NextSegment,
            ..config()
        },
        4,
    );
    assert_eq!(mean.completion_rate(), 1.0);
    assert_eq!(next.completion_rate(), 1.0);
    assert_ne!(mean, next, "the W estimate changes scheduling");
}

#[test]
fn zero_resume_threshold_counts_more_stalls_than_large() {
    let segments = segments(40.0);
    let tight = SwarmConfig {
        peer_bandwidth_bytes_per_sec: 140_000.0,
        seeder_bandwidth_bytes_per_sec: 140_000.0,
        resume_buffer_secs: 0.0,
        ..config()
    };
    let relaxed = SwarmConfig {
        resume_buffer_secs: 4.0,
        ..tight.clone()
    };
    let a = run_swarm(&segments, &tight, 6);
    let b = run_swarm(&segments, &relaxed, 6);
    assert!(
        a.mean_stalls() >= b.mean_stalls(),
        "re-buffering threshold merges stalls: {} vs {}",
        a.mean_stalls(),
        b.mean_stalls()
    );
}

#[test]
fn tracker_discovery_with_churn_survives() {
    let config = SwarmConfig {
        discovery: DiscoveryMode::Tracker,
        churn: Some(ChurnConfig::new(0.5, 20.0)),
        n_leechers: 6,
        ..config()
    };
    let metrics = run_swarm(&segments(24.0), &config, 12);
    for report in metrics.watching() {
        assert!(report.finished, "stayer {} must finish", report.peer);
    }
}

#[test]
fn competing_flows_degrade_but_do_not_break_streaming() {
    use splicecast_swarm::CrossTrafficConfig;
    let clean = run_swarm(&segments(24.0), &config(), 8);
    let loaded = run_swarm(
        &segments(24.0),
        &SwarmConfig {
            cross_traffic: Some(CrossTrafficConfig { flows_per_peer: 2 }),
            ..config()
        },
        8,
    );
    assert_eq!(
        loaded.completion_rate(),
        1.0,
        "the stream must survive congestion"
    );
    assert!(
        loaded.mean_stall_secs() > clean.mean_stall_secs(),
        "background load must cost stall time ({} vs {})",
        loaded.mean_stall_secs(),
        clean.mean_stall_secs()
    );
}

#[test]
fn hybrid_cdn_supplements_the_swarm() {
    let config = SwarmConfig {
        cdn: Some(splicecast_swarm::CdnConfig::default()),
        ..config()
    };
    let metrics = run_swarm(&segments(24.0), &config, 5);
    assert_eq!(metrics.completion_rate(), 1.0);
    let from_cdn: usize = metrics.reports.iter().map(|r| r.segments_from_cdn).sum();
    let from_p2p: usize = metrics.reports.iter().map(|r| r.segments_from_peers).sum();
    assert!(
        from_cdn > 0,
        "the CDN should serve some segments in hybrid mode"
    );
    assert!(from_p2p > 0, "peers should still exchange in hybrid mode");
}

#[test]
fn fixed_pool_one_is_strictly_sequential() {
    // Pool-1 never holds more than one segment in flight, so per-peer
    // delivery order is exactly sequential: the completion times (proxied
    // by stall structure) must still produce a full video.
    let config = SwarmConfig {
        policy: PolicyConfig::Fixed(1),
        ..config()
    };
    let metrics = run_swarm(&segments(24.0), &config, 2);
    assert_eq!(metrics.completion_rate(), 1.0);
}

#[test]
fn swarm_scales_down_to_two_and_up_to_thirty_leechers() {
    for n in [2usize, 30] {
        let config = SwarmConfig {
            n_leechers: n,
            ..config()
        };
        let metrics = run_swarm(&segments(16.0), &config, 1);
        assert_eq!(metrics.reports.len(), n);
        assert_eq!(metrics.completion_rate(), 1.0, "n = {n}");
    }
}

#[test]
fn network_counters_track_swarm_size() {
    let small = run_swarm(
        &segments(16.0),
        &SwarmConfig {
            n_leechers: 2,
            ..config()
        },
        1,
    );
    let large = run_swarm(
        &segments(16.0),
        &SwarmConfig {
            n_leechers: 8,
            ..config()
        },
        1,
    );
    assert!(large.net.payload_bytes_delivered > small.net.payload_bytes_delivered);
    assert!(large.net.messages_sent > small.net.messages_sent);
    assert!(large.wire_expansion() >= 1.0);
}
