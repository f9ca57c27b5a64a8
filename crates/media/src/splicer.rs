//! Splicing: the paper's §II, cutting a video into transferable segments.
//!
//! [`SplicingSpec`] is the one splicing value an experiment chooses and
//! the one place its rules are stated. A splicing only chooses where to
//! cut: each variant lists the frame indices at which segments start, and
//! one builder turns that list into segments, charging the I-frame
//! conversion of every cut that lands mid-GOP.

use crate::frame::{MediaTicks, FRAME_TICKS};
use crate::segment::{Segment, SegmentList};
use crate::video::Video;

/// How a video is cut into segments (§II).
///
/// # Examples
///
/// ```
/// use splicecast_media::{SplicingSpec, Video};
///
/// let video = Video::builder().duration_secs(60.0).seed(1).build();
/// let ramp = SplicingSpec::Ramp { initial: 1.0, max: 8.0 };
/// let list = ramp.splice(&video);
/// // First segment is short, later segments reach the cap.
/// assert!(list[0].duration().as_secs_f64() <= 1.1);
/// assert!(list.segments().iter().any(|s| s.duration().as_secs_f64() > 7.0));
/// assert_eq!(ramp.label(), "ramp(1→8s)");
/// assert!(SplicingSpec::Bytes(0).check().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplicingSpec {
    /// One segment per closed GOP (§II-A): [`GopSplicer`].
    Gop,
    /// Frame-accurate cuts every given number of seconds (§II-B):
    /// [`DurationSplicer`].
    Duration(f64),
    /// PPLive-style fixed-byte blocks (the paper's related work): a cut
    /// as soon as a segment reaches this many bytes, paying the same
    /// mid-GOP I-frame conversion as duration splicing.
    Bytes(u64),
    /// Durations that grow 1.5× per segment from `initial` up to `max`
    /// seconds: §VIII's "adaptive splicing" future work. Small segments
    /// start fastest (Fig. 4) and medium-to-large ones stream most
    /// efficiently (Figs. 2–3), so the head of the video is cut small.
    Ramp {
        /// First segment's target duration, seconds.
        initial: f64,
        /// Steady-state target duration, seconds.
        max: f64,
    },
}

impl SplicingSpec {
    /// The rule a parameter breaks, if any: an `Err` here is exactly a
    /// panic in [`Self::splice`], with the same message. Callers holding
    /// outside input (the CLI) check first and report the message.
    pub fn check(&self) -> Result<(), String> {
        let shortest_secs = match *self {
            SplicingSpec::Gop => return Ok(()),
            SplicingSpec::Bytes(0) => return Err("segment size must be positive".to_owned()),
            SplicingSpec::Bytes(_) => return Ok(()),
            SplicingSpec::Duration(secs) if !(secs.is_finite() && secs > 0.0) => {
                return Err(format!("segment duration must be positive, got {secs}"));
            }
            SplicingSpec::Duration(secs) => secs,
            SplicingSpec::Ramp { initial, max } => {
                if !(initial.is_finite() && initial > 0.0 && initial <= max) {
                    return Err(format!("bad ramp range [{initial}, {max}]"));
                }
                initial
            }
        };
        // An interval under half a 90 kHz tick rounds to zero ticks, and
        // the boundary walk of `timed_cuts` would never advance.
        if MediaTicks::from_secs_f64(shortest_secs).is_zero() {
            return Err(format!(
                "segment duration must be at least one media tick, got {shortest_secs}"
            ));
        }
        Ok(())
    }

    /// Cuts `video` into segments that exactly tile its frames.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::check`] fails, with its message.
    pub fn splice(&self, video: &Video) -> SegmentList {
        self.assert_valid();
        match *self {
            SplicingSpec::Gop => GopSplicer.splice(video),
            SplicingSpec::Duration(target_secs) => DurationSplicer { target_secs }.splice(video),
            SplicingSpec::Bytes(target) => build_segments(video, &byte_cuts(video, target)),
            SplicingSpec::Ramp { initial, max } => {
                build_segments(video, &timed_cuts(video.frames().len(), initial, max))
            }
        }
    }

    /// Short label for reports: "gop", "4s", "1024B", "ramp(1→8s)".
    pub fn label(&self) -> String {
        match *self {
            SplicingSpec::Gop => "gop".to_owned(),
            SplicingSpec::Duration(secs) => format!("{}s", secs_text(secs)),
            SplicingSpec::Bytes(bytes) => format!("{bytes}B"),
            SplicingSpec::Ramp { initial, max } => {
                format!("ramp({}→{}s)", secs_text(initial), secs_text(max))
            }
        }
    }

    fn assert_valid(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }
}

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
    /// Panics where [`SplicingSpec::check`] fails for
    /// `SplicingSpec::Duration(target_secs)`.
    pub fn new(target_secs: f64) -> Self {
        SplicingSpec::Duration(target_secs).assert_valid();
        DurationSplicer { target_secs }
    }
}

impl Splicer for DurationSplicer {
    fn splice(&self, video: &Video) -> SegmentList {
        let cuts = timed_cuts(video.frames().len(), self.target_secs, self.target_secs);
        build_segments(video, &cuts)
    }

    fn name(&self) -> String {
        SplicingSpec::Duration(self.target_secs).label()
    }
}

/// Seconds as a label writes them: whole ones without a fraction.
fn secs_text(secs: f64) -> String {
    if (secs - secs.round()).abs() < 1e-9 {
        format!("{}", secs.round() as u64)
    } else {
        format!("{secs}")
    }
}

/// A [`SplicingSpec::Ramp`]'s growth: each segment's target duration is
/// 1.5× its predecessor's, up to the cap.
const RAMP_GROWTH: f64 = 1.5;

/// The cut points of [`SplicingSpec::Bytes`]: a cut at the first frame
/// after the segment so far reached `target_bytes`.
fn byte_cuts(video: &Video, target_bytes: u64) -> Vec<usize> {
    let frames = video.frames();
    let mut cuts: Vec<usize> = vec![0];
    let mut acc: u64 = 0;
    for (i, frame) in frames.iter().enumerate() {
        if acc >= target_bytes {
            cuts.push(i);
            acc = 0;
        }
        acc += u64::from(frame.bytes);
    }
    cuts.push(frames.len());
    cuts
}

/// The cut points of the timed splicings: a cut at the first frame that
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
        let list = SplicingSpec::Bytes(target).splice(&v);
        list.validate(&v).unwrap();
        // Segments exceed the target by at most one frame plus conversion
        // overhead; sanity-bound at 2x.
        for (i, seg) in list.segments()[..list.len() - 1].iter().enumerate() {
            assert!(seg.bytes < 2 * target, "segment {i} is {} bytes", seg.bytes);
        }
    }

    #[test]
    fn ramp_splicer_tiles_and_ramps() {
        let v = video();
        let list = SplicingSpec::Ramp {
            initial: 1.0,
            max: 8.0,
        }
        .splice(&v);
        list.validate(&v).unwrap();
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
        let flat = SplicingSpec::Ramp {
            initial: 4.0,
            max: 4.0,
        };
        assert_eq!(flat.splice(&v), DurationSplicer::new(4.0).splice(&v));
    }

    #[test]
    fn labels_are_pinned() {
        let ramp = SplicingSpec::Ramp {
            initial: 1.0,
            max: 8.0,
        };
        let specs = [
            SplicingSpec::Gop,
            SplicingSpec::Duration(2.0),
            SplicingSpec::Bytes(1024),
            ramp,
        ];
        let labels: Vec<String> = specs.iter().map(SplicingSpec::label).collect();
        assert_eq!(labels, ["gop", "2s", "1024B", "ramp(1→8s)"]);
    }

    /// The message `f` panics with, if it panics.
    fn panic_message<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Option<String> {
        let payload = std::panic::catch_unwind(f).err()?;
        Some(*payload.downcast::<String>().expect("a formatted panic"))
    }

    /// Every invalid input of each variant fails `check()`, and `splice()`
    /// (and `DurationSplicer::new`) panics with that same message.
    #[test]
    fn check_states_every_rule_splice_panics_on() {
        let v = Video::builder().duration_secs(4.0).seed(1).build();
        let ramp = |initial, max| SplicingSpec::Ramp { initial, max };
        let bad = [
            (SplicingSpec::Duration(0.0), "must be positive"),
            (SplicingSpec::Duration(-2.0), "must be positive"),
            (SplicingSpec::Duration(f64::NAN), "must be positive"),
            (SplicingSpec::Duration(f64::INFINITY), "must be positive"),
            // Under half a 90 kHz tick (~5.6 µs): zero ticks.
            (SplicingSpec::Duration(1e-6), "at least one media tick"),
            (SplicingSpec::Bytes(0), "segment size must be positive"),
            (ramp(8.0, 1.0), "bad ramp range"),
            (ramp(0.0, 1.0), "bad ramp range"),
            (ramp(1.0, f64::NAN), "bad ramp range"),
            (ramp(1e-6, 1.0), "at least one media tick"),
        ];
        for (spec, rule) in bad {
            let message = spec.check().expect_err(&format!("{spec:?}"));
            assert!(message.contains(rule), "{spec:?}: {message}");
            assert_eq!(panic_message(|| spec.splice(&v)), Some(message.clone()));
            if let SplicingSpec::Duration(secs) = spec {
                assert_eq!(panic_message(|| DurationSplicer::new(secs)), Some(message));
            }
        }
        for spec in [
            SplicingSpec::Gop,
            SplicingSpec::Duration(0.5),
            SplicingSpec::Duration(1e-5),
            SplicingSpec::Bytes(1),
            ramp(2.0, 2.0),
        ] {
            assert_eq!(spec.check(), Ok(()), "{spec:?}");
            assert_eq!(panic_message(|| spec.splice(&v)), None, "{spec:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bad ramp range")]
    fn inverted_ramp_panics() {
        let _ = SplicingSpec::Ramp {
            initial: 8.0,
            max: 2.0,
        }
        .splice(&video());
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
        let video = Video::builder().duration_secs(1.0).seed(1).build();
        let ramp = SplicingSpec::Ramp {
            initial: 1e-6,
            max: 1.0,
        };
        for message in [
            panic_message(|| DurationSplicer::new(1e-6)),
            panic_message(|| ramp.splice(&video)),
        ] {
            let message = message.expect("must refuse");
            assert!(message.contains("at least one media tick"), "{message}");
        }
        let list = SplicingSpec::Duration(1e-5).splice(&video);
        list.validate(&video).unwrap();
        assert_eq!(list.len(), video.frames().len());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bytes_panics() {
        let _ = SplicingSpec::Bytes(0).splice(&video());
    }

    #[test]
    fn specs_splice_consistently() {
        let video = Video::builder().duration_secs(20.0).seed(1).build();
        for spec in [
            SplicingSpec::Gop,
            SplicingSpec::Duration(4.0),
            SplicingSpec::Bytes(200_000),
            SplicingSpec::Ramp {
                initial: 1.0,
                max: 8.0,
            },
        ] {
            let list = spec.splice(&video);
            list.validate(&video).unwrap();
            assert!(!list.is_empty());
        }
    }
}
