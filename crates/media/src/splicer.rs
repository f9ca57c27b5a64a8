//! Splicers: the paper's §II, cutting a video into transferable segments.
//!
//! A splicer only chooses where to cut: each one lists the frame indices
//! at which segments start, and one builder turns that list into
//! segments, charging the I-frame conversion of every cut that lands
//! mid-GOP.

use crate::frame::{MediaTicks, FRAME_TICKS};
use crate::segment::{Segment, SegmentList};
use crate::video::Video;

/// A strategy for cutting a video into segments.
///
/// Implementations must produce segments that exactly tile the video's
/// frames (checked by [`SegmentList::validate`]).
pub trait Splicer {
    /// Cuts `video` into segments.
    fn splice(&self, video: &Video) -> SegmentList;

    /// A short human-readable name for reports ("gop", "4s", ...).
    fn name(&self) -> String;
}

/// GOP-based splicing: every closed GOP becomes one segment.
///
/// Zero byte overhead, but segment sizes inherit the full variability of
/// the content — a static scene yields one enormous segment, rapid action
/// yields confetti (§II-A).
///
/// # Examples
///
/// ```
/// use splicecast_media::{GopSplicer, Splicer, Video};
///
/// let video = Video::builder().duration_secs(10.0).seed(1).build();
/// let segments = GopSplicer.splice(&video);
/// assert_eq!(segments.len(), video.gop_count());
/// assert_eq!(segments.total_overhead_bytes(), 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GopSplicer;

impl Splicer for GopSplicer {
    fn splice(&self, video: &Video) -> SegmentList {
        let cuts: Vec<usize> = video.gop_starts().chain([video.frames().len()]).collect();
        build_segments(video, &cuts)
    }

    fn name(&self) -> String {
        "gop".to_owned()
    }
}

/// Duration-based splicing: frame-accurate cuts every `target_secs`
/// seconds.
///
/// When a cut lands mid-GOP the segment's first frame must be re-coded as
/// an I-frame so the segment stays independently decodable; the byte
/// overhead of that conversion is the size difference between the
/// containing GOP's I-frame and the original P/B frame (§II-B).
///
/// # Examples
///
/// ```
/// use splicecast_media::{DurationSplicer, Splicer, Video};
///
/// let video = Video::builder().duration_secs(60.0).seed(1).build();
/// let two = DurationSplicer::new(2.0).splice(&video);
/// let eight = DurationSplicer::new(8.0).splice(&video);
/// // Shorter segments mean more inserted I-frames, so more overhead.
/// assert!(two.total_overhead_bytes() > eight.total_overhead_bytes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationSplicer {
    target_secs: f64,
}

impl DurationSplicer {
    /// Creates a splicer with the given target segment duration.
    ///
    /// # Panics
    ///
    /// Panics unless `target_secs` is positive, finite and at least one
    /// media tick.
    pub fn new(target_secs: f64) -> Self {
        assert!(
            target_secs.is_finite() && target_secs > 0.0,
            "segment duration must be positive, got {target_secs}"
        );
        assert_whole_tick(target_secs);
        DurationSplicer { target_secs }
    }
}

impl Splicer for DurationSplicer {
    fn splice(&self, video: &Video) -> SegmentList {
        let cuts = timed_cuts(video.frames().len(), self.target_secs, self.target_secs);
        build_segments(video, &cuts)
    }

    fn name(&self) -> String {
        format_secs(self.target_secs)
    }
}

/// Fixed-byte splicing: cut as soon as a segment reaches `target_bytes`.
///
/// This is how PPLive slices videos (fixed ~20 MB blocks, see the paper's
/// related work). Cuts are frame-accurate, so mid-GOP cuts pay the same
/// I-frame conversion overhead as duration-based splicing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteSplicer {
    target_bytes: u64,
}

impl ByteSplicer {
    /// Creates a splicer with the given target segment size.
    ///
    /// # Panics
    ///
    /// Panics if `target_bytes` is zero.
    pub fn new(target_bytes: u64) -> Self {
        assert!(target_bytes > 0, "segment size must be positive");
        ByteSplicer { target_bytes }
    }
}

impl Splicer for ByteSplicer {
    fn splice(&self, video: &Video) -> SegmentList {
        let frames = video.frames();
        let mut cuts: Vec<usize> = vec![0];
        let mut acc: u64 = 0;
        for (i, frame) in frames.iter().enumerate() {
            if acc >= self.target_bytes {
                cuts.push(i);
                acc = 0;
            }
            acc += u64::from(frame.bytes);
        }
        cuts.push(frames.len());
        build_segments(video, &cuts)
    }

    fn name(&self) -> String {
        format!("{}B", self.target_bytes)
    }
}

/// Ramped splicing: segment durations grow 1.5× per segment from
/// `initial_secs` up to `max_secs`.
///
/// This implements the "adaptive splicing technique" the paper leaves as
/// future work (§VIII: "We did not propose an algorithm to determine the
/// optimal segment size"): Fig. 4 shows small segments start fastest while
/// Figs. 2–3 show medium-to-large segments stream most efficiently — so
/// cut the head of the video small and grow toward the efficient size,
/// the way low-latency DASH deployments ramp their segment ladder.
///
/// # Examples
///
/// ```
/// use splicecast_media::{RampSplicer, Splicer, Video};
///
/// let video = Video::builder().duration_secs(60.0).seed(1).build();
/// let ramp = RampSplicer::new(1.0, 8.0).splice(&video);
/// // First segment is short, later segments reach the cap.
/// assert!(ramp[0].duration().as_secs_f64() <= 1.1);
/// assert!(ramp.segments().iter().any(|s| s.duration().as_secs_f64() > 7.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampSplicer {
    initial_secs: f64,
    max_secs: f64,
}

impl RampSplicer {
    /// Creates a ramp from `initial_secs` to `max_secs`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < initial_secs <= max_secs` and `initial_secs` is
    /// at least one media tick.
    pub fn new(initial_secs: f64, max_secs: f64) -> Self {
        assert!(
            initial_secs.is_finite() && initial_secs > 0.0 && initial_secs <= max_secs,
            "bad ramp range [{initial_secs}, {max_secs}]"
        );
        assert_whole_tick(initial_secs);
        RampSplicer {
            initial_secs,
            max_secs,
        }
    }
}

impl Splicer for RampSplicer {
    fn splice(&self, video: &Video) -> SegmentList {
        let cuts = timed_cuts(video.frames().len(), self.initial_secs, self.max_secs);
        build_segments(video, &cuts)
    }

    fn name(&self) -> String {
        format!(
            "ramp({}→{}s)",
            format_secs_bare(self.initial_secs),
            format_secs_bare(self.max_secs)
        )
    }
}

/// A cut interval that rounds to zero ticks would never advance the
/// boundary walk of [`timed_cuts`].
fn assert_whole_tick(secs: f64) {
    assert!(
        !MediaTicks::from_secs_f64(secs).is_zero(),
        "segment duration must be at least one media tick, got {secs}"
    );
}

fn format_secs_bare(secs: f64) -> String {
    if (secs - secs.round()).abs() < 1e-9 {
        format!("{}", secs.round() as u64)
    } else {
        format!("{secs}")
    }
}

/// A [`RampSplicer`]'s growth: each segment's target duration is 1.5×
/// its predecessor's, up to the cap.
const RAMP_GROWTH: f64 = 1.5;

/// The cut points of the timed splicers: a cut at the first frame that
/// starts at or after each boundary, boundaries `initial_secs` apart at
/// first and 1.5× further apart after each cut, up to `max_secs`
/// (`initial_secs == max_secs` cuts every `max_secs`).
fn timed_cuts(frame_count: usize, initial_secs: f64, max_secs: f64) -> Vec<usize> {
    let mut cuts = vec![0];
    let mut step_secs = initial_secs;
    let mut boundary = MediaTicks::from_secs_f64(step_secs).ticks();
    loop {
        let cut = boundary.div_ceil(FRAME_TICKS);
        if cut >= frame_count as u64 {
            break;
        }
        cuts.push(cut as usize);
        step_secs = (step_secs * RAMP_GROWTH).min(max_secs);
        let step = MediaTicks::from_secs_f64(step_secs).ticks();
        // Whole steps on, to the first boundary after the cut's start.
        boundary += step * ((cut * FRAME_TICKS - boundary) / step + 1);
    }
    cuts.push(frame_count);
    cuts
}

/// Builds segments from cut points (`cuts[0] == 0`,
/// `cuts.last() == frames.len()`), charging I-frame conversion overhead
/// for every segment that starts mid-GOP.
fn build_segments(video: &Video, cuts: &[usize]) -> SegmentList {
    let frames = video.frames();
    // Bytes of the last I-frame passed: the cuts walk the frames in order,
    // and frame 0 is intra.
    let mut i_frame_bytes = frames[0].bytes;
    let segments = cuts.windows(2).map(|window| {
        let (start, end) = (window[0], window[1]);
        let first = frames[start];
        // A cut that lands mid-GOP re-codes its first frame as an I-frame
        // sized like the containing GOP's own I-frame.
        let overhead = if first.kind.is_intra() {
            0
        } else {
            u64::from(i_frame_bytes.saturating_sub(first.bytes))
        };
        let mut media = 0;
        for frame in &frames[start..end] {
            if frame.kind.is_intra() {
                i_frame_bytes = frame.bytes;
            }
            media += u64::from(frame.bytes);
        }
        Segment {
            first_frame: start as u32,
            frame_count: (end - start) as u32,
            bytes: media + overhead,
            overhead_bytes: overhead,
        }
    });
    SegmentList::new(segments.collect())
}

fn format_secs(secs: f64) -> String {
    if (secs - secs.round()).abs() < 1e-9 {
        format!("{}s", secs.round() as u64)
    } else {
        format!("{secs}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentProfile;
    use crate::frame::{FrameType, FPS};

    fn video() -> Video {
        Video::builder().duration_secs(60.0).seed(21).build()
    }

    #[test]
    fn gop_splice_is_overhead_free_and_tiles() {
        let v = video();
        let list = GopSplicer.splice(&v);
        list.validate(&v).unwrap();
        assert_eq!(list.total_overhead_bytes(), 0);
        assert_eq!(list.total_bytes(), v.total_bytes());
        assert_eq!(GopSplicer.name(), "gop");
    }

    #[test]
    fn duration_splice_tiles_and_hits_target_durations() {
        let v = video();
        for target in [1.0, 2.0, 4.0, 8.0] {
            let list = DurationSplicer::new(target).splice(&v);
            list.validate(&v).unwrap();
            // All but the last segment are within a frame of the target.
            let frame = 1.0 / f64::from(FPS);
            for (i, seg) in list.segments()[..list.len() - 1].iter().enumerate() {
                let d = seg.duration().as_secs_f64();
                assert!(
                    (d - target).abs() <= frame + 1e-9,
                    "target {target}: segment {i} lasts {d}"
                );
            }
        }
    }

    #[test]
    fn duration_splice_counts_match_division() {
        let v = video();
        let list = DurationSplicer::new(4.0).splice(&v);
        assert_eq!(list.len(), 15); // 60s / 4s
        assert_eq!(DurationSplicer::new(4.0).name(), "4s");
        assert_eq!(DurationSplicer::new(0.5).name(), "0.5s");
    }

    #[test]
    fn duration_splice_pays_overhead_where_cuts_land_mid_gop() {
        let v = video();
        let list = DurationSplicer::new(2.0).splice(&v);
        assert!(
            list.total_overhead_bytes() > 0,
            "mixed content should force conversions"
        );
        // Overhead only on segments that do not start with an I-frame.
        for (i, seg) in list.iter().enumerate() {
            let first = &v.frames()[seg.first_frame as usize];
            if first.kind == FrameType::I {
                assert_eq!(seg.overhead_bytes, 0, "segment {i}");
            }
        }
    }

    #[test]
    fn overhead_shrinks_with_segment_duration() {
        let v = video();
        let r2 = DurationSplicer::new(2.0).splice(&v).overhead_ratio();
        let r4 = DurationSplicer::new(4.0).splice(&v).overhead_ratio();
        let r8 = DurationSplicer::new(8.0).splice(&v).overhead_ratio();
        assert!(r2 > r4 && r4 > r8, "ratios {r2} {r4} {r8}");
        assert!(r2 < 0.5, "2s overhead ratio {r2} is implausibly high");
    }

    #[test]
    fn gop_aligned_duration_splice_has_zero_overhead() {
        // With a uniform 2 s GOP structure, 2 s duration cuts land exactly
        // on GOP boundaries: duration splicing degenerates to GOP splicing.
        let v = Video::builder()
            .duration_secs(20.0)
            .profile(ContentProfile::Uniform { gop_secs: 2.0 })
            .build();
        let list = DurationSplicer::new(2.0).splice(&v);
        list.validate(&v).unwrap();
        assert_eq!(list.total_overhead_bytes(), 0);
        assert_eq!(list.len(), v.gop_count());
    }

    #[test]
    fn gop_splice_sizes_vary_more_than_duration_splice() {
        let v = video();
        let gop = GopSplicer.splice(&v);
        let dur = DurationSplicer::new(2.0).splice(&v);
        let spread = |l: &SegmentList| {
            let max = l.max_segment_bytes() as f64;
            max / l.mean_segment_bytes()
        };
        assert!(
            spread(&gop) > spread(&dur),
            "gop spread {} should exceed duration spread {}",
            spread(&gop),
            spread(&dur)
        );
    }

    #[test]
    fn byte_splicer_tiles_and_bounds_sizes() {
        let v = video();
        let target = 100_000;
        let list = ByteSplicer::new(target).splice(&v);
        list.validate(&v).unwrap();
        assert_eq!(ByteSplicer::new(target).name(), "100000B");
        // Segments exceed the target by at most one frame plus conversion
        // overhead; sanity-bound at 2x.
        for (i, seg) in list.segments()[..list.len() - 1].iter().enumerate() {
            assert!(seg.bytes < 2 * target, "segment {i} is {} bytes", seg.bytes);
        }
    }

    #[test]
    fn ramp_splicer_tiles_and_ramps() {
        let v = video();
        let ramp = RampSplicer::new(1.0, 8.0);
        let list = ramp.splice(&v);
        list.validate(&v).unwrap();
        assert_eq!(ramp.name(), "ramp(1→8s)");
        let frame = 1.0 / f64::from(FPS);
        // Durations are non-decreasing (within a frame) and bounded.
        let durs: Vec<f64> = list.segments()[..list.len() - 1]
            .iter()
            .map(|s| s.duration().as_secs_f64())
            .collect();
        for pair in durs.windows(2) {
            assert!(pair[1] >= pair[0] - frame - 1e-9, "{durs:?}");
        }
        assert!(durs[0] <= 1.0 + frame + 1e-9);
        assert!(durs.iter().all(|&d| d <= 8.0 + frame + 1e-9));
        // A ramp that starts at its cap is duration splicing.
        let flat = RampSplicer::new(4.0, 4.0).splice(&v);
        assert_eq!(flat, DurationSplicer::new(4.0).splice(&v));
    }

    #[test]
    #[should_panic(expected = "bad ramp range")]
    fn inverted_ramp_panics() {
        let _ = RampSplicer::new(8.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_duration_panics() {
        let _ = DurationSplicer::new(0.0);
    }

    /// Half a 90 kHz tick is ~5.6 µs: below it the interval is zero ticks
    /// (refused), above it every frame is its own segment.
    #[test]
    fn sub_tick_durations_panic_and_one_tick_splices_per_frame() {
        let refused: [fn() -> String; 2] = [
            || DurationSplicer::new(1e-6).name(),
            || RampSplicer::new(1e-6, 1.0).name(),
        ];
        for build in refused {
            let payload = std::panic::catch_unwind(build).expect_err("must refuse");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.contains("at least one media tick"), "{msg}");
        }
        let video = Video::builder().duration_secs(1.0).seed(1).build();
        let list = DurationSplicer::new(1e-5).splice(&video);
        list.validate(&video).unwrap();
        assert_eq!(list.len(), video.frames().len());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bytes_panics() {
        let _ = ByteSplicer::new(0);
    }
}
