//! The video container: the frame table and the builder.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::content::ContentProfile;
use crate::encoder::{encode, PAPER_BITRATE_BPS};
use crate::error::MediaError;
use crate::frame::{Frame, MediaTicks};

/// A coded video: a validated sequence of closed GOPs at [`FPS`] frames
/// per second, frame `i` starting at `i ×` [`FRAME_TICKS`]. A GOP starts
/// at each I-frame and runs to the next.
///
/// [`FPS`]: crate::FPS
/// [`FRAME_TICKS`]: crate::FRAME_TICKS
///
/// Construct one with [`Video::builder`] (synthetic encode) or
/// [`Video::from_parts`] (hand-assembled, e.g. in tests).
///
/// # Examples
///
/// ```
/// use splicecast_media::Video;
///
/// let video = Video::builder().duration_secs(10.0).seed(1).build();
/// assert!((video.duration().as_secs_f64() - 10.0).abs() < 0.2);
/// assert!(video.gop_count() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    frames: Vec<Frame>,
}

impl Video {
    /// Starts building a synthetic video.
    pub fn builder() -> VideoBuilder {
        VideoBuilder::default()
    }

    /// Assembles a video from its frames.
    ///
    /// # Errors
    ///
    /// [`MediaError::EmptyVideo`] without frames, and
    /// [`MediaError::GopMissingIFrame`] when the first frame is not intra
    /// (every later I-frame starts a GOP).
    pub fn from_parts(frames: Vec<Frame>) -> Result<Self, MediaError> {
        match frames.first() {
            None => Err(MediaError::EmptyVideo),
            Some(first) if !first.kind.is_intra() => Err(MediaError::GopMissingIFrame),
            Some(_) => Ok(Video { frames }),
        }
    }

    /// All frames, in presentation order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Frame indices where each GOP starts: its I-frames, ascending.
    pub fn gop_starts(&self) -> impl Iterator<Item = usize> + '_ {
        let kinds = self.frames.iter().map(|f| f.kind.is_intra());
        kinds
            .enumerate()
            .filter_map(|(i, intra)| intra.then_some(i))
    }

    /// Number of GOPs.
    pub fn gop_count(&self) -> usize {
        self.gop_starts().count()
    }

    /// Total display duration.
    pub fn duration(&self) -> MediaTicks {
        MediaTicks::of_frames(self.frames.len() as u64)
    }

    /// Total coded bytes.
    pub fn total_bytes(&self) -> u64 {
        self.frames.iter().map(|f| u64::from(f.bytes)).sum()
    }

    /// Average bitrate in bits per second.
    pub fn bitrate_bps(&self) -> f64 {
        let secs = self.duration().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_bytes() as f64 * 8.0 / secs
        }
    }
}

/// The content seed of the paper's test clip (the venue year; any fixed
/// value works): every run streams the *same* video, as in the paper, and
/// run-to-run randomness comes from the swarm seed instead.
pub const PAPER_CONTENT_SEED: u64 = 2015;

/// Builder for synthetic [`Video`]s.
///
/// Defaults match the paper's test clip: 2 minutes of 1 Mbps, 30 fps
/// MPEG-4 with mixed content.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoBuilder {
    duration_secs: f64,
    profile: ContentProfile,
    bitrate_bps: u64,
    seed: u64,
}

impl Default for VideoBuilder {
    fn default() -> Self {
        VideoBuilder {
            duration_secs: 120.0,
            profile: ContentProfile::paper_default(),
            bitrate_bps: PAPER_BITRATE_BPS,
            seed: 0,
        }
    }
}

impl VideoBuilder {
    /// Sets the clip length in seconds.
    pub fn duration_secs(&mut self, secs: f64) -> &mut Self {
        self.duration_secs = secs;
        self
    }

    /// Sets the content profile driving GOP durations.
    pub fn profile(&mut self, profile: ContentProfile) -> &mut Self {
        self.profile = profile;
        self
    }

    /// Sets the target bitrate in bits per second.
    pub fn bitrate_bps(&mut self, bps: u64) -> &mut Self {
        self.bitrate_bps = bps;
        self
    }

    /// Sets the RNG seed for content sampling and size jitter.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Encodes the video.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (a non-positive duration or
    /// bitrate).
    pub fn build(&self) -> Video {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let durations = self
            .profile
            .sample_gop_durations(&mut rng, self.duration_secs);
        Video {
            frames: encode(self.bitrate_bps, &durations, &mut rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameType, FPS};
    use crate::splicer::{GopSplicer, Splicer};

    fn paper_video() -> Video {
        Video::builder().seed(42).build()
    }

    /// Each GOP's frame count, read off `gop_starts`.
    fn gop_frame_counts(v: &Video) -> Vec<usize> {
        let starts: Vec<usize> = v.gop_starts().collect();
        let ends = starts[1..].iter().copied().chain([v.frames().len()]);
        starts
            .iter()
            .zip(ends)
            .map(|(start, end)| end - start)
            .collect()
    }

    #[test]
    fn paper_clip_has_paper_numbers() {
        let v = paper_video();
        assert!((v.duration().as_secs_f64() - 120.0).abs() < 0.2);
        // 1 Mbps over 2 minutes = 15 MB.
        let mb = v.total_bytes() as f64 / 1e6;
        assert!((mb - 15.0).abs() < 0.2, "total {mb} MB");
        assert!((v.bitrate_bps() - 1_000_000.0).abs() < 20_000.0);
        assert!(v.frames()[0].kind.is_intra());
    }

    #[test]
    fn gop_views_tile_the_video() {
        let v = paper_video();
        let counts = gop_frame_counts(&v);
        assert_eq!(counts.len(), v.gop_count());
        assert!(counts.iter().all(|&n| n > 0));
        assert_eq!(counts.iter().sum::<usize>(), v.frames().len());
        assert_eq!(v.gop_starts().next(), Some(0));
    }

    /// A GOP is the frames from one I-frame to the next, and the GOP
    /// splicer cuts one segment per GOP with its first frame, length,
    /// bytes and times.
    #[test]
    fn gop_accessors() {
        let f = |kind, bytes| Frame { kind, bytes };
        let frames = vec![
            f(FrameType::I, 400),
            f(FrameType::P, 20),
            f(FrameType::I, 1000),
            f(FrameType::B, 50),
            f(FrameType::P, 200),
        ];
        let v = Video::from_parts(frames).unwrap();
        assert_eq!(v.gop_count(), 2);
        assert_eq!(v.gop_starts().collect::<Vec<_>>(), [0, 2]);
        assert_eq!(gop_frame_counts(&v), [2, 3]);
        let gop = GopSplicer.splice(&v)[1];
        assert_eq!(gop.first_frame, 2);
        assert_eq!(gop.frame_count, 3);
        assert_eq!(gop.bytes, 1250);
        assert_eq!(gop.start_pts(), MediaTicks::from_ticks(6000));
        assert_eq!(gop.duration(), MediaTicks::from_ticks(9000));
        assert_eq!(v.duration(), MediaTicks::from_ticks(15_000));
    }

    #[test]
    fn builds_are_deterministic() {
        assert_eq!(paper_video(), paper_video());
        let other = Video::builder().seed(43).build();
        assert_ne!(paper_video(), other);
    }

    #[test]
    fn from_parts_validates() {
        let f = |kind| Frame { kind, bytes: 10 };
        // Valid: two GOPs.
        let ok = Video::from_parts(vec![f(FrameType::I), f(FrameType::P), f(FrameType::I)]);
        assert_eq!(ok.unwrap().gop_count(), 2);
        // Invalid: the first GOP starts on a P-frame.
        let bad = Video::from_parts(vec![f(FrameType::P), f(FrameType::I)]);
        assert_eq!(bad.unwrap_err(), MediaError::GopMissingIFrame);
        // Invalid: empty.
        assert_eq!(
            Video::from_parts(vec![]).unwrap_err(),
            MediaError::EmptyVideo
        );
    }

    #[test]
    fn gop_durations_vary_with_content() {
        let counts = gop_frame_counts(&paper_video());
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            *max as f64 / *min as f64 > 3.0,
            "expected variable GOPs, got {min}..{max} frames"
        );
    }

    #[test]
    fn uniform_profile_gives_uniform_gops() {
        let v = Video::builder()
            .duration_secs(10.0)
            .profile(ContentProfile::Uniform { gop_secs: 2.0 })
            .build();
        assert_eq!(v.gop_count(), 5);
        assert_eq!(gop_frame_counts(&v), [2 * FPS as usize; 5]);
    }
}
