//! The synthetic encoder: turns GOP durations into coded frames.
//!
//! Pixel content never matters for streaming dynamics — only the byte
//! layout over time does. The encoder therefore fabricates frames whose
//! sizes follow the structural facts of MPEG-4 coding: I-frames are several
//! times larger than P-frames, which are larger than B-frames; per-frame
//! sizes jitter; and the whole stream is scaled to hit an exact target
//! bitrate (a constant-bitrate encode). The frame rate is [`FPS`]; the
//! bitrate is the one knob
//! ([`VideoBuilder::bitrate_bps`](crate::VideoBuilder::bitrate_bps)). The
//! I:P:B weights 12:3:1, two B-frames per reference and a log-normal size
//! jitter of σ = 0.15 are constants.

use rand::rngs::StdRng;

use crate::frame::{Frame, FrameType, FPS};

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

/// The frame type at position `idx` within a GOP (0 is always `I`).
fn frame_type_at(idx: usize) -> FrameType {
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

fn weight(kind: FrameType) -> f64 {
    match kind {
        FrameType::I => I_WEIGHT,
        FrameType::P => P_WEIGHT,
        FrameType::B => B_WEIGHT,
    }
}

/// Encodes a video: one GOP per entry of `gop_durations` (seconds), frames
/// back-to-back at [`FPS`], sizes scaled so total bytes equal
/// `bitrate_bps × total_duration / 8`.
///
/// Every GOP opens with its I-frame, so the frames alone say where the
/// GOPs start.
///
/// # Panics
///
/// Panics if `gop_durations` is empty or the bitrate is zero.
pub(crate) fn encode(bitrate_bps: u64, gop_durations: &[f64], rng: &mut StdRng) -> Vec<Frame> {
    assert!(bitrate_bps > 0, "bitrate must be positive");
    assert!(
        !gop_durations.is_empty(),
        "cannot encode a video with no GOPs"
    );

    let mut frames: Vec<Frame> = Vec::new();
    let mut raw_sizes: Vec<f64> = Vec::new();

    // Frame counts come from rounding *cumulative* boundaries so the total
    // frame count never drifts, no matter how many sub-frame-rate GOPs the
    // content produces.
    let mut cum_secs = 0.0;
    let mut cum_frames = 0usize;
    for &gop_secs in gop_durations {
        assert!(gop_secs > 0.0, "GOP durations must be positive");
        cum_secs += gop_secs;
        let target_frames = (cum_secs * f64::from(FPS)).round() as usize;
        let mut n = target_frames.saturating_sub(cum_frames);
        if n == 0 {
            if frames.is_empty() {
                n = 1; // a video is never empty
            } else {
                continue; // sub-frame GOP: absorbed by its neighbour
            }
        }
        cum_frames += n;
        for idx in 0..n {
            let kind = frame_type_at(idx);
            raw_sizes.push(weight(kind) * size_jitter(rng));
            frames.push(Frame { kind, bytes: 0 });
        }
    }

    // Constant-bitrate scaling: total bytes must match the target exactly
    // (up to per-frame rounding).
    let total_secs = frames.len() as f64 / f64::from(FPS);
    let target_bytes = bitrate_bps as f64 * total_secs / 8.0;
    let raw_total: f64 = raw_sizes.iter().sum();
    let scale = target_bytes / raw_total;
    for (frame, raw) in frames.iter_mut().zip(&raw_sizes) {
        frame.bytes = ((raw * scale).round() as u32).max(1);
    }

    frames
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

    use crate::PAPER_BITRATE_BPS;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    /// The frame indices of the I-frames: where the GOPs start.
    fn intra_at(frames: &[Frame]) -> Vec<usize> {
        let intra = frames.iter().map(|f| f.kind.is_intra());
        intra
            .enumerate()
            .filter_map(|(i, intra)| intra.then_some(i))
            .collect()
    }

    #[test]
    fn pattern_is_ibbp() {
        let kinds: Vec<FrameType> = (0..7).map(frame_type_at).collect();
        use FrameType::*;
        assert_eq!(kinds, vec![I, B, B, P, B, B, P]);
    }

    #[test]
    fn encode_hits_target_bitrate() {
        let frames = encode(PAPER_BITRATE_BPS, &[2.0, 3.0, 1.0], &mut rng());
        let total: u64 = frames.iter().map(|f| u64::from(f.bytes)).sum();
        let expected = 1_000_000.0 * 6.0 / 8.0;
        let err = (total as f64 - expected).abs() / expected;
        assert!(err < 0.001, "total {total}, expected {expected}");
    }

    #[test]
    fn encode_counts_frames_per_gop() {
        let frames = encode(PAPER_BITRATE_BPS, &[2.0, 1.0], &mut rng());
        assert_eq!(frames.len(), 90);
        assert_eq!(intra_at(&frames), [0, 60]);
    }

    /// GOP lengths round at their cumulative boundaries, so the frames
    /// tile the timeline without drift: three 0.52 s GOPs (15.6 frames
    /// each) are 16 + 15 + 16 = 47 frames (1.56 s × 30 = 46.8), where
    /// rounding each GOP alone would give 48.
    #[test]
    fn timestamps_are_contiguous() {
        let frames = encode(PAPER_BITRATE_BPS, &[0.52; 3], &mut rng());
        assert_eq!(intra_at(&frames), [0, 16, 31]);
        assert_eq!(frames.len(), 47);
    }

    #[test]
    fn i_frames_dominate_sizes_on_average() {
        let frames = encode(PAPER_BITRATE_BPS, &[4.0; 50], &mut rng());
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
        let frames = encode(PAPER_BITRATE_BPS, &[0.001], &mut rng());
        assert_eq!(intra_at(&frames), [0]);
        assert_eq!(frames.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no GOPs")]
    fn empty_input_panics() {
        let _ = encode(PAPER_BITRATE_BPS, &[], &mut rng());
    }
}
