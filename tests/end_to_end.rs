//! End-to-end pipeline: synthesize video → splice → playlist → swarm →
//! playback metrics, checking cross-crate invariants on the way.

use splicecast_core::{run_once, ExperimentConfig, SplicingSpec, VideoSpec};
use splicecast_media::{Ladder, SegmentList, Splicer};

fn small_config(splicing: SplicingSpec) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(512_000.0)
        .with_splicing(splicing)
        .with_leechers(5);
    config.video = VideoSpec {
        duration_secs: 30.0,
    };
    config.swarm.max_sim_secs = 600.0;
    config
}

#[test]
fn full_pipeline_streams_and_accounts() {
    for splicing in [
        SplicingSpec::Gop,
        SplicingSpec::Duration(4.0),
        SplicingSpec::Bytes(250_000),
    ] {
        let config = small_config(splicing);
        let video = config.video.build();
        let segments = config.splicing.splice(&video);
        segments.validate(&video).unwrap();

        let result = run_once(&config, 1);
        let metrics = &result.metrics;
        assert_eq!(metrics.reports.len(), 5, "{splicing:?}");
        for report in &metrics.reports {
            assert!(
                report.finished,
                "{splicing:?}: peer {} unfinished",
                report.peer
            );
            assert!(report.qoe.startup_secs.unwrap() > 0.0);
            // Every viewer moved at least the whole video's bytes.
            assert!(
                report.bytes_downloaded >= segments.total_bytes(),
                "{splicing:?}: peer {} downloaded only {} of {}",
                report.peer,
                report.bytes_downloaded,
                segments.total_bytes()
            );
            // Stall intervals are well-formed, disjoint, and within the run.
            let mut last_end = 0.0;
            for stall in &report.stalls {
                assert!(stall.start_secs >= last_end - 1e-9);
                assert!(stall.end_secs >= stall.start_secs);
                assert!(stall.end_secs <= metrics.sim_end_secs + 1e-9);
                last_end = stall.end_secs;
            }
            let total: f64 = report.stalls.iter().map(|s| s.duration_secs()).sum();
            assert!((total - report.qoe.total_stall_secs).abs() < 1e-6);
            assert_eq!(report.stalls.len(), report.qoe.stall_count);
            // Wall-clock accounting: startup + media + stalls ≈ finish time.
            let expected_finish = report.qoe.startup_secs.unwrap()
                + video.duration().as_secs_f64()
                + report.qoe.total_stall_secs;
            let finish = report.qoe.finished_secs.unwrap();
            assert!(
                (finish - expected_finish).abs() < 0.5,
                "{splicing:?}: finish {finish} vs startup+media+stalls {expected_finish}"
            );
        }
        // Segment deliveries add up.
        let delivered: usize = metrics
            .reports
            .iter()
            .map(|r| r.segments_from_peers + r.segments_from_seeder + r.segments_from_cdn)
            .sum();
        assert_eq!(delivered, 5 * result.segment_count, "{splicing:?}");
        // Network accounting is sane: the swarm delivered at least one copy
        // of the video per viewer, and wire bytes exceed payload (loss +
        // retransmissions) without being absurd.
        assert!(metrics.net.payload_bytes_delivered >= 5 * segments.total_bytes());
        let expansion = metrics.wire_expansion();
        assert!(
            (1.0..2.5).contains(&expansion),
            "{splicing:?}: wire expansion {expansion}"
        );
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The seeder's playlist text, byte for byte: `ManifestData`'s wire length
/// sets its delivery delay, and the text seeds the swarm's info hash, so a
/// renderer that drifts by one byte moves every run.
#[test]
fn seeder_playlist_text_is_pinned() {
    let video = VideoSpec::default().build();
    let pins = [
        (SplicingSpec::Gop, 12_703, 0x3a41_cc9e_2c46_3c43),
        (SplicingSpec::Duration(2.0), 3_964, 0xd5c3_909d_fcff_00b7),
        (SplicingSpec::Duration(4.0), 2_014, 0x8ee0_4267_0601_0ca1),
        (SplicingSpec::Duration(8.0), 1_047, 0xf397_2854_e78a_879a),
        (RAMP, 1_306, 0xbb7c_dfa0_d0e8_ec01),
        (SplicingSpec::Bytes(200_000), 4_874, 0x1203_0233_3eb1_1815),
    ];
    for (splicing, len, digest) in pins {
        let segments = splicing.splice(&video);
        let text = segments.to_m3u8("video");
        assert_eq!(text.len(), len, "{splicing:?}");
        assert_eq!(fnv1a(text.as_bytes()), digest, "{splicing:?}");
    }
}

const RAMP: SplicingSpec = SplicingSpec::Ramp {
    initial: 1.0,
    max: 8.0,
};

/// FNV-1a over little-endian `u64` words.
fn fnv1a_words(words: &[u64]) -> u64 {
    fnv1a(
        &words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

/// Every field of every segment, in order.
fn segment_words(list: &SegmentList) -> Vec<u64> {
    (0u64..)
        .zip(list)
        .flat_map(|(i, s)| {
            [
                i,
                u64::from(s.first_frame),
                u64::from(s.frame_count),
                s.start_pts().ticks(),
                s.duration().ticks(),
                s.bytes,
                s.overhead_bytes,
            ]
        })
        .collect()
}

/// The paper clip's frame table and every segment list the experiments
/// cut, word for word: each frame's kind, bytes and start tick (frame `i`
/// starts at `3 000 · i` on the 90 kHz clock), and each segment's fields
/// under every splicing and on every rung of the ABR ladder. The media
/// model's representation may change; none of these numbers may.
#[test]
fn frame_table_and_segment_lists_are_pinned() {
    let video = VideoSpec::default().build();
    let frames: Vec<u64> = (0u64..)
        .zip(video.frames())
        .flat_map(|(i, f)| [f.kind as u64, u64::from(f.bytes), 3_000 * i])
        .collect();
    assert_eq!(frames.len(), 3 * 3_600);
    assert_eq!(fnv1a_words(&frames), 0x013d_dd30_d8df_1815);

    let spliced = [
        (SplicingSpec::Gop, 197, 0xc218_ca98_8361_9194),
        (SplicingSpec::Duration(2.0), 60, 0x657a_af75_ada3_5b8c),
        (SplicingSpec::Duration(4.0), 30, 0xcf22_76eb_4f5a_bec4),
        (SplicingSpec::Duration(8.0), 15, 0x66dc_f895_4425_f938),
        (RAMP, 19, 0x00e2_7d89_6a3d_9005),
        (SplicingSpec::Bytes(200_000), 74, 0x6f29_d923_c7a0_7453),
    ];
    for (splicing, len, digest) in spliced {
        let list = splicing.splice(&video);
        assert_eq!(list.len(), len, "{splicing:?}");
        assert_eq!(fnv1a_words(&segment_words(&list)), digest, "{splicing:?}");
    }

    let ladder = Ladder::builder().build();
    let rungs = [
        0xb71d_c49a_b680_7033,
        0xd95d_50f8_9c67_a22a,
        0xcf22_76eb_4f5a_bec4,
    ];
    assert_eq!(Ladder::BITRATES_BPS.len(), rungs.len());
    for (rung, digest) in rungs.into_iter().enumerate() {
        let list = ladder.segments(rung);
        assert_eq!(list.len(), 30, "rung {rung}");
        assert_eq!(fnv1a_words(&segment_words(list)), digest, "rung {rung}");
    }
}

#[test]
fn gop_splicing_transfers_fewer_bytes_than_duration_splicing() {
    let video = VideoSpec::default().build();
    let gop = SplicingSpec::Gop.splice(&video);
    for d in [1.0, 2.0, 4.0, 8.0] {
        let duration = SplicingSpec::Duration(d).splice(&video);
        assert!(
            duration.total_bytes() > gop.total_bytes(),
            "{d}s splicing should carry I-frame overhead"
        );
    }
}

#[test]
fn splicers_from_core_match_media_crate_directly() {
    let video = VideoSpec::default().build();
    let via_spec = SplicingSpec::Gop.splice(&video);
    let direct = splicecast_media::GopSplicer.splice(&video);
    assert_eq!(via_spec, direct);
}
