//! The synthetic encoder: turns GOP durations into coded frames.
//!
//! Pixel content never matters for streaming dynamics — only the byte
//! layout over time does. The encoder therefore fabricates frames whose
//! sizes follow the structural facts of MPEG-4 coding: I-frames are several
//! times larger than P-frames, which are larger than B-frames; per-frame
//! sizes jitter; and the whole stream is scaled to hit an exact target
//! bitrate (a constant-bitrate encode).

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::frame::{Frame, FrameType, MediaTicks, TICKS_PER_SEC};

/// The paper's test clip bitrate: 1 Mbps.
pub const PAPER_BITRATE_BPS: u64 = 1_000_000;

/// Relative size of an I-frame.
const I_WEIGHT: f64 = 12.0;
/// Relative size of a P-frame.
const P_WEIGHT: f64 = 3.0;
/// Relative size of a B-frame.
const B_WEIGHT: f64 = 1.0;
/// Number of B-frames between reference frames (the classic
/// `I B B P B B P …` pattern).
const B_FRAMES: usize = 2;
/// Log-normal σ of per-frame size jitter.
const SIZE_JITTER_SIGMA: f64 = 0.15;

/// Tunables of the synthetic encoder: frame rate and target bitrate. The
/// I:P:B weights 12:3:1, two B-frames per reference and a log-normal size
/// jitter of σ = 0.15 are constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Frames per second. Must divide 90 000 for exact timestamps.
    pub fps: u32,
    /// Target bitrate in bits per second (constant-bitrate scaling).
    pub bitrate_bps: u64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            fps: 30,
            bitrate_bps: PAPER_BITRATE_BPS,
        }
    }
}

impl EncoderConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive bitrate or an fps that does not divide the
    /// 90 kHz clock.
    pub fn validate(&self) {
        assert!(
            self.fps > 0 && TICKS_PER_SEC.is_multiple_of(u64::from(self.fps)),
            "fps {} must divide 90000",
            self.fps
        );
        assert!(self.bitrate_bps > 0, "bitrate must be positive");
    }

    /// Duration of one frame.
    pub fn frame_duration(&self) -> MediaTicks {
        MediaTicks::from_ticks(TICKS_PER_SEC / u64::from(self.fps))
    }

    /// The frame type at position `idx` within a GOP (0 is always `I`).
    pub fn frame_type_at(&self, idx: usize) -> FrameType {
        if idx == 0 {
            return FrameType::I;
        }
        // Groups of `B_FRAMES` B-frames, each closed by a P reference.
        if idx.is_multiple_of(B_FRAMES + 1) {
            FrameType::P
        } else {
            FrameType::B
        }
    }
}

fn weight(kind: FrameType) -> f64 {
    match kind {
        FrameType::I => I_WEIGHT,
        FrameType::P => P_WEIGHT,
        FrameType::B => B_WEIGHT,
    }
}

/// Encodes a video: one GOP per entry of `gop_durations` (seconds), frames
/// timed back-to-back, sizes scaled so total bytes equal
/// `bitrate × total_duration / 8`.
///
/// Returns the frames plus the index of each GOP's first frame.
///
/// # Panics
///
/// Panics if `gop_durations` is empty or the config is invalid.
pub fn encode(
    cfg: &EncoderConfig,
    gop_durations: &[f64],
    rng: &mut StdRng,
) -> (Vec<Frame>, Vec<u32>) {
    cfg.validate();
    assert!(
        !gop_durations.is_empty(),
        "cannot encode a video with no GOPs"
    );

    let frame_dur = cfg.frame_duration();
    let mut frames: Vec<Frame> = Vec::new();
    let mut gop_starts: Vec<u32> = Vec::new();
    let mut raw_sizes: Vec<f64> = Vec::new();

    // Frame counts come from rounding *cumulative* boundaries so the total
    // frame count never drifts, no matter how many sub-frame-rate GOPs the
    // content produces.
    let mut cum_secs = 0.0;
    let mut cum_frames = 0usize;
    for &gop_secs in gop_durations {
        assert!(gop_secs > 0.0, "GOP durations must be positive");
        cum_secs += gop_secs;
        let target_frames = (cum_secs * f64::from(cfg.fps)).round() as usize;
        let mut n = target_frames.saturating_sub(cum_frames);
        if n == 0 {
            if frames.is_empty() {
                n = 1; // a video is never empty
            } else {
                continue; // sub-frame GOP: absorbed by its neighbour
            }
        }
        cum_frames += n;
        gop_starts.push(frames.len() as u32);
        for idx in 0..n {
            let kind = cfg.frame_type_at(idx);
            raw_sizes.push(weight(kind) * size_jitter(rng));
            let pts = MediaTicks::from_ticks(frame_dur.ticks() * frames.len() as u64);
            frames.push(Frame {
                kind,
                bytes: 0,
                pts,
                duration: frame_dur,
            });
        }
    }

    // Constant-bitrate scaling: total bytes must match the target exactly
    // (up to per-frame rounding).
    let total_secs = frames.len() as f64 / f64::from(cfg.fps);
    let target_bytes = cfg.bitrate_bps as f64 * total_secs / 8.0;
    let raw_total: f64 = raw_sizes.iter().sum();
    let scale = target_bytes / raw_total;
    for (frame, raw) in frames.iter_mut().zip(&raw_sizes) {
        frame.bytes = ((raw * scale).round() as u32).max(1);
    }

    (frames, gop_starts)
}

/// A log-normal size factor with σ = [`SIZE_JITTER_SIGMA`] (Box–Muller).
fn size_jitter(rng: &mut StdRng) -> f64 {
    use rand::Rng;
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (SIZE_JITTER_SIGMA * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn pattern_is_ibbp() {
        let cfg = EncoderConfig::default();
        let kinds: Vec<FrameType> = (0..7).map(|i| cfg.frame_type_at(i)).collect();
        use FrameType::*;
        assert_eq!(kinds, vec![I, B, B, P, B, B, P]);
    }

    #[test]
    fn encode_hits_target_bitrate() {
        let cfg = EncoderConfig::default();
        let (frames, _) = encode(&cfg, &[2.0, 3.0, 1.0], &mut rng());
        let total: u64 = frames.iter().map(|f| u64::from(f.bytes)).sum();
        let expected = 1_000_000.0 * 6.0 / 8.0;
        let err = (total as f64 - expected).abs() / expected;
        assert!(err < 0.001, "total {total}, expected {expected}");
    }

    #[test]
    fn encode_counts_frames_per_gop() {
        let cfg = EncoderConfig::default();
        let (frames, starts) = encode(&cfg, &[2.0, 1.0], &mut rng());
        assert_eq!(frames.len(), 90);
        assert_eq!(starts, vec![0, 60]);
        assert!(frames[0].kind.is_intra());
        assert!(frames[60].kind.is_intra());
    }

    #[test]
    fn timestamps_are_contiguous() {
        let cfg = EncoderConfig::default();
        let (frames, _) = encode(&cfg, &[1.0, 1.0], &mut rng());
        for pair in frames.windows(2) {
            assert_eq!(pair[0].end_pts(), pair[1].pts);
        }
    }

    #[test]
    fn i_frames_dominate_sizes_on_average() {
        let cfg = EncoderConfig::default();
        let (frames, _) = encode(&cfg, &[4.0; 50], &mut rng());
        let mean = |kind| {
            let sizes: Vec<f64> = frames
                .iter()
                .filter(|f| f.kind == kind)
                .map(|f| f64::from(f.bytes))
                .collect();
            sizes.iter().sum::<f64>() / sizes.len() as f64
        };
        let (i, p, b) = (mean(FrameType::I), mean(FrameType::P), mean(FrameType::B));
        assert!((i / p - 4.0).abs() < 0.2, "I/P ratio {}", i / p);
        assert!((p / b - 3.0).abs() < 0.1, "P/B ratio {}", p / b);
    }

    #[test]
    fn tiny_gop_still_has_a_frame() {
        let cfg = EncoderConfig::default();
        let (frames, starts) = encode(&cfg, &[0.001], &mut rng());
        assert_eq!(frames.len(), 1);
        assert_eq!(starts, vec![0]);
        assert!(frames[0].kind.is_intra());
    }

    #[test]
    #[should_panic(expected = "no GOPs")]
    fn empty_input_panics() {
        let _ = encode(&EncoderConfig::default(), &[], &mut rng());
    }

    #[test]
    #[should_panic(expected = "must divide 90000")]
    fn bad_fps_panics() {
        let cfg = EncoderConfig {
            fps: 29,
            ..EncoderConfig::default()
        };
        cfg.validate();
    }
}
