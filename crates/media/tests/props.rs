//! Property-based tests for the media model.

use proptest::prelude::*;

use rand::SeedableRng;
use splicecast_media::*;

fn arbitrary_profile() -> impl Strategy<Value = ContentProfile> {
    prop_oneof![
        (0.2f64..10.0).prop_map(|gop_secs| ContentProfile::Uniform { gop_secs }),
        Just(ContentProfile::paper_default()),
        // All action (short GOPs) and a talking head (long, stable ones).
        Just(ContentProfile::Mixture {
            classes: vec![SceneClass::new(1.0, 0.3, 1.5)],
        }),
        Just(ContentProfile::Mixture {
            classes: vec![SceneClass::new(1.0, 5.0, 15.0)],
        }),
        ((0.1f64..0.9), (0.2f64..2.0), (2.0f64..20.0)).prop_map(|(p, short, long)| {
            ContentProfile::Mixture {
                classes: vec![
                    SceneClass::new(p, 0.1, short),
                    SceneClass::new(1.0 - p, short, short + long),
                ],
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn profiles_cover_the_requested_duration_exactly(
        profile in arbitrary_profile(),
        total in 1.0f64..300.0,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let durations = profile.sample_gop_durations(&mut rng, total);
        prop_assert!(!durations.is_empty());
        let sum: f64 = durations.iter().sum();
        prop_assert!((sum - total).abs() < 1e-6, "sum {sum} vs total {total}");
        prop_assert!(durations.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn encoded_videos_always_validate_and_hit_bitrate(
        profile in arbitrary_profile(),
        secs in 2.0f64..90.0,
        bitrate in 100_000u64..8_000_000,
        seed in any::<u64>(),
    ) {
        let video = Video::builder()
            .duration_secs(secs)
            .profile(profile)
            .bitrate_bps(bitrate)
            .seed(seed)
            .build();
        prop_assert_eq!(Video::from_parts(video.frames().to_vec()), Ok(video.clone()));
        // CBR scaling: actual bitrate within 2% of the target.
        let err = (video.bitrate_bps() - bitrate as f64).abs() / bitrate as f64;
        prop_assert!(err < 0.02, "bitrate off by {err}");
        // Duration matches the request to within one frame per GOP.
        prop_assert!((video.duration().as_secs_f64() - secs).abs() < 0.5 + video.gop_count() as f64 / 30.0);
        // GOP invariants: every GOP starts after its predecessor and
        // inside the video.
        let starts: Vec<usize> = video.gop_starts().collect();
        prop_assert_eq!(starts[0], 0);
        prop_assert!(starts.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(starts[starts.len() - 1] < video.frames().len());
    }

    #[test]
    fn duration_splicer_segments_never_exceed_target_by_more_than_a_frame(
        secs in 5.0f64..60.0,
        target in 0.5f64..10.0,
        seed in any::<u64>(),
    ) {
        let video = Video::builder().duration_secs(secs).seed(seed).build();
        let list = DurationSplicer::new(target).splice(&video);
        list.validate(&video).unwrap();
        let frame = 1.0 / f64::from(FPS);
        for (i, seg) in list.iter().enumerate() {
            prop_assert!(
                seg.duration().as_secs_f64() <= target + frame + 1e-9,
                "segment {} lasts {}",
                i,
                seg.duration()
            );
        }
    }

    #[test]
    fn segment_at_agrees_with_linear_scan(
        secs in 5.0f64..40.0,
        target in 0.5f64..10.0,
        seed in any::<u64>(),
        probe in 0.0f64..1.0,
    ) {
        let video = Video::builder().duration_secs(secs).seed(seed).build();
        let list = DurationSplicer::new(target).splice(&video);
        let pts = MediaTicks::from_ticks(
            (probe * video.duration().ticks() as f64) as u64,
        );
        let fast = list.segment_at(pts);
        let slow = list
            .iter()
            .position(|s| s.start_pts() <= pts && pts < s.end_pts());
        prop_assert_eq!(fast, slow);
    }

    /// The splicers' I-frame lookup against a naive backward scan: a
    /// segment that opens on an I-frame pays nothing, any other pays the
    /// last I-frame at or before its first frame minus that frame's own
    /// bytes, and a GOP segment holds exactly one I-frame, its first.
    #[test]
    fn overhead_is_the_last_i_frame_before_the_cut(
        profile in arbitrary_profile(),
        secs in 2.0f64..60.0,
        seed in any::<u64>(),
        d in 0.5f64..8.0,
        b in 20_000u64..1_000_000,
    ) {
        let video = Video::builder().duration_secs(secs).profile(profile).seed(seed).build();
        let frames = video.frames();
        let gop = GopSplicer.splice(&video);
        for seg in &gop {
            let span = &frames[seg.first_frame as usize..][..seg.frame_count as usize];
            let intra: Vec<usize> = (0..span.len()).filter(|&i| span[i].kind.is_intra()).collect();
            prop_assert_eq!(intra, vec![0]);
        }
        let lists = [
            gop,
            DurationSplicer::new(d).splice(&video),
            SplicingSpec::Ramp { initial: d, max: 2.0 * d }.splice(&video),
            SplicingSpec::Bytes(b).splice(&video),
        ];
        for list in &lists {
            for seg in list {
                let first = frames[seg.first_frame as usize];
                let expected = if first.kind.is_intra() {
                    0
                } else {
                    let i_frame = frames[..=seg.first_frame as usize]
                        .iter()
                        .rev()
                        .find(|f| f.kind.is_intra())
                        .expect("frame 0 is intra");
                    u64::from(i_frame.bytes.saturating_sub(first.bytes))
                };
                prop_assert_eq!(seg.overhead_bytes, expected);
            }
        }
    }

    #[test]
    fn byte_splicer_respects_its_floor(
        secs in 5.0f64..40.0,
        target in 20_000u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let video = Video::builder().duration_secs(secs).seed(seed).build();
        let list = SplicingSpec::Bytes(target).splice(&video);
        list.validate(&video).unwrap();
        // Every segment except the last reaches the target.
        for seg in &list.segments()[..list.len() - 1] {
            prop_assert!(seg.media_bytes() >= target.min(video.total_bytes()));
        }
    }
}

/// A segment is its first frame, frame count, bytes and overhead: its
/// position in the list names it.
#[test]
fn a_segment_is_24_bytes() {
    assert_eq!(std::mem::size_of::<Segment>(), 24);
}
