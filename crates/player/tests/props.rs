//! Property-based tests for the playback model.

use proptest::prelude::*;

use splicecast_media::{DurationSplicer, MediaTicks, Splicer, Video};
use splicecast_player::{Playback, PlaybackState, SegmentBuffer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn buffer_matches_a_reference_model(
        secs in 4.0f64..40.0,
        target in 1.0f64..8.0,
        seed in any::<u64>(),
        inserts in prop::collection::vec(any::<u16>(), 0..64),
        probe in 0.0f64..1.0,
    ) {
        let video = Video::builder().duration_secs(secs).seed(seed).build();
        let list = DurationSplicer::new(target).splice(&video);
        let mut buffer = SegmentBuffer::new(list.clone());
        let mut model = vec![false; list.len()];
        for raw in inserts {
            let idx = raw as usize % list.len();
            let newly = buffer.insert(idx);
            prop_assert_eq!(newly, !model[idx]);
            model[idx] = true;
        }
        prop_assert_eq!(buffer.is_complete(), model.iter().all(|&h| h));
        prop_assert_eq!(
            buffer.first_missing(),
            model.iter().position(|&h| !h).unwrap_or(model.len())
        );

        // playable_until agrees with a linear walk over the model.
        let pts = MediaTicks::from_ticks((probe * video.duration().ticks() as f64) as u64);
        let reference = {
            match list.iter().position(|s| s.start_pts() <= pts && pts < s.end_pts()) {
                None => buffer.media_end().max(pts),
                Some(mut i) => {
                    if !model[i] {
                        pts
                    } else {
                        while i + 1 < model.len() && model[i + 1] {
                            i += 1;
                        }
                        list[i].end_pts()
                    }
                }
            }
        };
        prop_assert_eq!(buffer.playable_until(pts), reference);
        prop_assert_eq!(buffer.buffered_from(pts), reference.saturating_sub(pts));
    }

    #[test]
    fn playback_time_is_conserved(
        secs in 4.0f64..30.0,
        target in 1.0f64..6.0,
        content_seed in any::<u64>(),
        delays in prop::collection::vec(0.0f64..8.0, 1..48),
        threshold in 0.0f64..4.0,
    ) {
        let video = Video::builder().duration_secs(secs).seed(content_seed).build();
        let list = DurationSplicer::new(target).splice(&video);
        let mut playback = Playback::new(list.clone());
        playback.set_resume_threshold(threshold);

        // Segments arrive in order with random inter-arrival delays.
        let mut now = 0.0;
        for i in 0..list.len() {
            now += delays[i % delays.len()];
            playback.on_segment(i, now);
            // Interleave some advance calls at odd times.
            playback.advance(now + 0.1);
        }
        let end = now + secs + threshold + 1.0;
        playback.finish(end);
        prop_assert_eq!(playback.state(), PlaybackState::Finished);

        let metrics = playback.metrics();
        let startup = metrics.startup_secs.expect("started");
        let finish = metrics.finished_secs.expect("finished");
        // Conservation: wall time = startup + media + stalls.
        let expected = startup + video.duration().as_secs_f64() + metrics.total_stall_secs;
        prop_assert!((finish - expected).abs() < 1e-3, "finish {finish} expected {expected}");
        // Stalls never overlap and never precede startup.
        let mut last = startup;
        for stall in playback.stalls() {
            prop_assert!(stall.start_secs >= last - 1e-9);
            prop_assert!(stall.end_secs >= stall.start_secs);
            last = stall.end_secs;
        }
        // With in-order arrival, the number of stalls is bounded by the
        // number of segments.
        prop_assert!(metrics.stall_count <= list.len());
    }

    #[test]
    fn resume_threshold_never_increases_stall_count(
        secs in 8.0f64..24.0,
        delays in prop::collection::vec(0.5f64..6.0, 4..24),
    ) {
        let video = Video::builder().duration_secs(secs).seed(3).build();
        let list = DurationSplicer::new(2.0).splice(&video);
        let run = |threshold: f64| {
            let mut playback = Playback::new(list.clone());
            playback.set_resume_threshold(threshold);
            let mut now = 0.0;
            for i in 0..list.len() {
                now += delays[i % delays.len()];
                playback.on_segment(i, now);
            }
            playback.finish(now + secs + threshold + 1.0);
            playback.metrics().stall_count
        };
        prop_assert!(run(4.0) <= run(0.0), "a re-buffering threshold merges stalls");
    }

    #[test]
    fn extra_polls_never_change_the_accounting(
        secs in 4u32..24,
        target in 0usize..3,
        threshold in 0usize..3,
        // Quarter-second steps put many arrivals exactly on a dry instant.
        steps in prop::collection::vec(0u32..12, 1..32),
        mut order_seed in any::<u64>(),
        random_polls in prop::collection::vec(0.0f64..1.0, 0..64),
        early_us in prop::collection::vec(1.0f64..6.0, 1..8),
    ) {
        let target = [1.0, 2.0, 4.0][target];
        let threshold = [0.0, 0.25, 2.0][threshold];
        let video = Video::builder().duration_secs(f64::from(secs)).seed(5).build();
        let list = DurationSplicer::new(target).splice(&video);
        let mut order: Vec<usize> = (0..list.len()).collect();
        for i in (1..order.len()).rev() {
            order_seed = order_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (order_seed % (i as u64 + 1)) as usize);
        }
        let mut now = 0.0;
        let arrivals: Vec<(f64, usize)> = order
            .iter()
            .enumerate()
            .map(|(i, &index)| {
                now += f64::from(steps[i % steps.len()]) * 0.25;
                (now, index)
            })
            .collect();
        let end = now + f64::from(secs) + threshold + 1.0;

        // Polls: at random instants, and a few microseconds before each
        // arrival. A poll sorts before an arrival at the same instant.
        let mut polls: Vec<f64> = random_polls.iter().map(|f| f * end).collect();
        for (i, &(at, _)) in arrivals.iter().enumerate() {
            polls.push((at - early_us[i % early_us.len()] * 1e-6).max(0.0));
        }
        polls.sort_by(f64::total_cmp);

        let run = |polled: bool| {
            let mut playback = Playback::new(list.clone());
            playback.set_resume_threshold(threshold);
            let mut pending = polls.iter().peekable();
            for (k, &(at, index)) in arrivals.iter().enumerate() {
                while let Some(&&poll) = pending.peek() {
                    if poll > at {
                        break;
                    }
                    pending.next();
                    if polled && k % 2 == 0 {
                        playback.advance(poll);
                    } else if polled {
                        playback.buffered_ahead(poll);
                    }
                }
                playback.on_segment(index, at);
            }
            if polled {
                for &poll in pending {
                    playback.advance(poll);
                }
            }
            playback.finish(end);
            (playback.metrics(), playback.stalls().to_vec())
        };
        let (quiet, quiet_stalls) = run(false);
        let (polled, polled_stalls) = run(true);
        prop_assert_eq!(quiet, polled);
        prop_assert_eq!(quiet_stalls, polled_stalls);
    }
}
