//! The video container: frames, GOP index, and the builder.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::content::ContentProfile;
use crate::encoder::{encode, EncoderConfig};
use crate::error::MediaError;
use crate::frame::{Frame, MediaTicks};
use crate::gop::GopView;

/// A coded video: a validated sequence of closed GOPs.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Video {
    fps: u32,
    frames: Vec<Frame>,
    gop_starts: Vec<u32>,
}

impl Video {
    /// Starts building a synthetic video.
    pub fn builder() -> VideoBuilder {
        VideoBuilder::default()
    }

    /// Assembles a video from parts, validating the closed-GOP invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: frames non-empty, strictly
    /// increasing timestamps, every GOP starting with an I-frame and
    /// containing no other I-frames.
    pub fn from_parts(
        fps: u32,
        frames: Vec<Frame>,
        gop_starts: Vec<u32>,
    ) -> Result<Self, MediaError> {
        let video = Video {
            fps,
            frames,
            gop_starts,
        };
        video.validate()?;
        Ok(video)
    }

    /// Frames per second.
    pub fn fps(&self) -> u32 {
        self.fps
    }

    /// All frames, in presentation order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Frame indices where each GOP starts.
    pub fn gop_starts(&self) -> &[u32] {
        &self.gop_starts
    }

    /// Number of GOPs.
    pub fn gop_count(&self) -> usize {
        self.gop_starts.len()
    }

    /// A view of the `index`-th GOP.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.gop_count()`.
    pub fn gop(&self, index: usize) -> GopView<'_> {
        let start = self.gop_starts[index] as usize;
        let end = self
            .gop_starts
            .get(index + 1)
            .map(|&s| s as usize)
            .unwrap_or(self.frames.len());
        GopView::new(index, start, &self.frames[start..end])
    }

    /// Iterates over all GOPs.
    pub fn gops(&self) -> impl Iterator<Item = GopView<'_>> + '_ {
        (0..self.gop_count()).map(|i| self.gop(i))
    }

    /// Total display duration.
    pub fn duration(&self) -> MediaTicks {
        match self.frames.last() {
            Some(last) => last.end_pts() - self.frames[0].pts,
            None => MediaTicks::ZERO,
        }
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

    /// Checks every container invariant.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), MediaError> {
        if self.frames.is_empty() {
            return Err(MediaError::EmptyVideo);
        }
        if self.gop_starts.first() != Some(&0) {
            return Err(MediaError::GopMissingIFrame { gop: 0 });
        }
        for (i, pair) in self.frames.windows(2).enumerate() {
            if pair[1].pts <= pair[0].pts {
                return Err(MediaError::NonMonotonicPts { frame: i + 1 });
            }
        }
        let starts: std::collections::HashSet<u32> = self.gop_starts.iter().copied().collect();
        for (g, &start) in self.gop_starts.iter().enumerate() {
            match self.frames.get(start as usize) {
                Some(f) if f.kind.is_intra() => {}
                _ => return Err(MediaError::GopMissingIFrame { gop: g }),
            }
        }
        for (i, frame) in self.frames.iter().enumerate() {
            if frame.kind.is_intra() != starts.contains(&(i as u32)) {
                return if frame.kind.is_intra() {
                    Err(MediaError::StrayIFrame { frame: i })
                } else {
                    Err(MediaError::GopMissingIFrame {
                        gop: self
                            .gop_starts
                            .iter()
                            .position(|&s| s == i as u32)
                            .unwrap_or(0),
                    })
                };
            }
        }
        Ok(())
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoBuilder {
    duration_secs: f64,
    profile: ContentProfile,
    encoder: EncoderConfig,
    seed: u64,
}

impl Default for VideoBuilder {
    fn default() -> Self {
        VideoBuilder {
            duration_secs: 120.0,
            profile: ContentProfile::paper_default(),
            encoder: EncoderConfig::default(),
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

    /// Sets the full encoder configuration.
    pub fn encoder(&mut self, encoder: EncoderConfig) -> &mut Self {
        self.encoder = encoder;
        self
    }

    /// Sets the target bitrate in bits per second.
    pub fn bitrate_bps(&mut self, bps: u64) -> &mut Self {
        self.encoder.bitrate_bps = bps;
        self
    }

    /// Sets the frame rate.
    pub fn fps(&mut self, fps: u32) -> &mut Self {
        self.encoder.fps = fps;
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
    /// Panics if the configuration is invalid (non-positive duration or
    /// bitrate, fps that does not divide 90 000, ...).
    pub fn build(&self) -> Video {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let durations = self
            .profile
            .sample_gop_durations(&mut rng, self.duration_secs);
        let (frames, gop_starts) = encode(&self.encoder, &durations, &mut rng);
        let video = Video {
            fps: self.encoder.fps,
            frames,
            gop_starts,
        };
        debug_assert!(video.validate().is_ok());
        video
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameType;

    fn paper_video() -> Video {
        Video::builder().seed(42).build()
    }

    #[test]
    fn paper_clip_has_paper_numbers() {
        let v = paper_video();
        assert!((v.duration().as_secs_f64() - 120.0).abs() < 0.2);
        // 1 Mbps over 2 minutes = 15 MB.
        let mb = v.total_bytes() as f64 / 1e6;
        assert!((mb - 15.0).abs() < 0.2, "total {mb} MB");
        assert!((v.bitrate_bps() - 1_000_000.0).abs() < 20_000.0);
        assert!(v.validate().is_ok());
    }

    #[test]
    fn gop_views_tile_the_video() {
        let v = paper_video();
        let total_frames: usize = v.gops().map(|g| g.frame_count()).sum();
        assert_eq!(total_frames, v.frames().len());
        let total_bytes: u64 = v.gops().map(|g| g.bytes()).sum();
        assert_eq!(total_bytes, v.total_bytes());
        let mut expected_first = 0;
        for gop in v.gops() {
            assert_eq!(gop.first_frame, expected_first);
            expected_first += gop.frame_count();
        }
    }

    #[test]
    fn builds_are_deterministic() {
        assert_eq!(paper_video(), paper_video());
        let other = Video::builder().seed(43).build();
        assert_ne!(paper_video(), other);
    }

    #[test]
    fn from_parts_validates() {
        let f = |kind, pts| Frame {
            kind,
            bytes: 10,
            pts: MediaTicks::from_ticks(pts),
            duration: MediaTicks::from_ticks(3000),
        };
        // Valid: two GOPs.
        let ok = Video::from_parts(
            30,
            vec![
                f(FrameType::I, 0),
                f(FrameType::P, 3000),
                f(FrameType::I, 6000),
            ],
            vec![0, 2],
        );
        assert!(ok.is_ok());
        // Invalid: second GOP starts on a P-frame.
        let bad = Video::from_parts(
            30,
            vec![f(FrameType::I, 0), f(FrameType::P, 3000)],
            vec![0, 1],
        );
        assert_eq!(bad.unwrap_err(), MediaError::GopMissingIFrame { gop: 1 });
        // Invalid: stray mid-GOP I-frame.
        let stray = Video::from_parts(30, vec![f(FrameType::I, 0), f(FrameType::I, 3000)], vec![0]);
        assert_eq!(stray.unwrap_err(), MediaError::StrayIFrame { frame: 1 });
        // Invalid: non-monotonic pts.
        let order = Video::from_parts(
            30,
            vec![f(FrameType::I, 100), f(FrameType::P, 100)],
            vec![0],
        );
        assert_eq!(order.unwrap_err(), MediaError::NonMonotonicPts { frame: 1 });
        // Invalid: empty.
        assert_eq!(
            Video::from_parts(30, vec![], vec![]).unwrap_err(),
            MediaError::EmptyVideo
        );
    }

    #[test]
    fn gop_durations_vary_with_content() {
        let v = paper_video();
        let durs: Vec<f64> = v.gops().map(|g| g.duration().as_secs_f64()).collect();
        let min = durs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = durs.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 3.0, "expected variable GOPs, got {min}..{max}");
    }

    #[test]
    fn uniform_profile_gives_uniform_gops() {
        let v = Video::builder()
            .duration_secs(10.0)
            .profile(ContentProfile::Uniform { gop_secs: 2.0 })
            .build();
        assert_eq!(v.gop_count(), 5);
        for gop in v.gops() {
            assert!((gop.duration().as_secs_f64() - 2.0).abs() < 1e-9);
        }
    }
}
