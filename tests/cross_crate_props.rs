//! Property-based tests across crate boundaries.

use proptest::prelude::*;

use splicecast_core::optimal_pool_size;
use splicecast_media::{ContentProfile, SceneClass, SplicingSpec, Video};
use splicecast_player::Playback;
use splicecast_protocol::{decode_single, encode_to_bytes, Bitfield, Message};

fn arbitrary_video() -> impl Strategy<Value = Video> {
    (4.0f64..40.0, 0..3usize, any::<u64>(), 200_000u64..2_000_000).prop_map(
        |(secs, profile_idx, seed, bitrate)| {
            let profile = match profile_idx {
                0 => ContentProfile::paper_default(),
                1 => ContentProfile::Uniform { gop_secs: 2.0 },
                _ => ContentProfile::Mixture {
                    classes: vec![
                        SceneClass::with_scene(0.5, 0.2, 1.0, 2.0, 6.0),
                        SceneClass::new(0.5, 2.0, 8.0),
                    ],
                },
            };
            Video::builder()
                .duration_secs(secs)
                .profile(profile)
                .bitrate_bps(bitrate)
                .seed(seed)
                .build()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_splicer_tiles_every_video(video in arbitrary_video(), d in 0.5f64..12.0, b in 20_000u64..2_000_000) {
        prop_assert_eq!(Video::from_parts(video.frames().to_vec()), Ok(video.clone()));
        for splicing in [
            SplicingSpec::Gop,
            SplicingSpec::Duration(d),
            SplicingSpec::Bytes(b),
            SplicingSpec::Ramp { initial: d, max: 2.0 * d },
        ] {
            let list = splicing.splice(&video);
            prop_assert!(list.validate(&video).is_ok(), "{} failed", splicing.label());
            prop_assert!(list.total_bytes() >= video.total_bytes());
            prop_assert_eq!(list.total_duration(), video.duration());
        }
        // GOP splicing specifically is overhead-free.
        prop_assert_eq!(SplicingSpec::Gop.splice(&video).total_bytes(), video.total_bytes());
    }

    #[test]
    fn playback_invariants_hold_for_random_arrival_orders(
        video in arbitrary_video(),
        d in 1.0f64..8.0,
        mut order_seed in any::<u64>(),
        gaps in prop::collection::vec(0.0f64..6.0, 1..64),
    ) {
        let list = SplicingSpec::Duration(d).splice(&video);
        let mut playback = Playback::new(list.clone());
        // A deterministic shuffle of arrival order.
        let mut indices: Vec<usize> = (0..list.len()).collect();
        for i in (1..indices.len()).rev() {
            order_seed = order_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            indices.swap(i, (order_seed % (i as u64 + 1)) as usize);
        }
        let mut now = 0.0;
        for (i, idx) in indices.iter().enumerate() {
            now += gaps[i % gaps.len()];
            playback.on_segment(*idx, now);
        }
        playback.finish(now + video.duration().as_secs_f64() + 1.0);
        let metrics = playback.metrics();
        // All segments arrived, so playback must have finished.
        prop_assert!(metrics.finished_secs.is_some());
        let startup = metrics.startup_secs.unwrap();
        // Startup happens at the arrival of segment 0 or later.
        prop_assert!(startup >= 0.0);
        // Stalls are disjoint, ordered, and sum to the reported total.
        let stalls = playback.stalls();
        let mut last = 0.0;
        let mut total = 0.0;
        for stall in stalls {
            prop_assert!(stall.start_secs >= last - 1e-9);
            prop_assert!(stall.end_secs >= stall.start_secs);
            last = stall.end_secs;
            total += stall.duration_secs();
        }
        prop_assert!((total - metrics.total_stall_secs).abs() < 1e-6);
        // Conservation: finish = startup + media + stalls.
        let expected = startup + video.duration().as_secs_f64() + total;
        prop_assert!((metrics.finished_secs.unwrap() - expected).abs() < 1e-3);
    }

    #[test]
    fn protocol_messages_survive_the_wire(
        index in any::<u32>(),
        bytes in any::<u64>(),
        peer_id in any::<u64>(),
        hash in any::<[u8; 20]>(),
        bits in prop::collection::vec(any::<bool>(), 0..256),
    ) {
        let mut bf = Bitfield::new(bits.len() as u32);
        for (i, &on) in bits.iter().enumerate() {
            if on {
                bf.set(i as u32);
            }
        }
        let messages = [
            Message::Have { index },
            Message::Request { index },
            Message::Cancel { index },
            Message::SegmentHeader { index, bytes },
            Message::Handshake { peer_id, info_hash: hash, version: 1 },
            Message::Bitfield(bf),
        ];
        for msg in messages {
            let wire = encode_to_bytes(&msg);
            prop_assert_eq!(decode_single(&wire).unwrap(), msg);
        }
    }

    #[test]
    fn decoder_never_panics_on_noise(noise in prop::collection::vec(any::<u8>(), 0..512)) {
        // From every offset: any result is acceptable; a panic is not.
        for start in 0..noise.len() {
            let _ = decode_single(&noise[start..]);
        }
    }

    #[test]
    fn eq1_is_always_at_least_one_and_monotone(
        b in 1.0f64..1e8,
        t in 0.0f64..1e4,
        w in 1u64..1_000_000_000,
    ) {
        let k = optimal_pool_size(b, t, w);
        prop_assert!(k >= 1);
        prop_assert!(optimal_pool_size(b * 2.0, t, w) >= k);
        prop_assert!(optimal_pool_size(b, t + 1.0, w) >= k);
        prop_assert!(optimal_pool_size(b, t, w.saturating_mul(2)) <= k);
    }
}
