//! Frames and the MPEG 90 kHz media clock.
//!
//! Every video runs at a constant [`FPS`], so a frame's time is its
//! index: frame `i` starts at `i ×` [`FRAME_TICKS`] and lasts one
//! [`FRAME_TICKS`]. Nothing stores a timestamp.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Ticks of the MPEG system clock: 90 000 per second.
pub const TICKS_PER_SEC: u64 = 90_000;

/// Frames per second of every video: the paper's clip is 30 fps.
pub const FPS: u32 = 30;

/// Display duration of one frame, in ticks: 3 000 at 30 fps.
pub const FRAME_TICKS: u64 = TICKS_PER_SEC / FPS as u64;

/// A point on (or span of) the media timeline, in 90 kHz ticks.
///
/// MPEG transport uses a 90 kHz clock for presentation timestamps; keeping
/// the same unit makes frame timing exact for all common frame rates.
///
/// # Examples
///
/// ```
/// use splicecast_media::MediaTicks;
///
/// let one_frame = MediaTicks::from_secs_f64(1.0 / 30.0);
/// assert_eq!(one_frame.ticks(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MediaTicks(u64);

impl MediaTicks {
    /// The zero point / empty span.
    pub const ZERO: MediaTicks = MediaTicks(0);

    /// Constructs from raw 90 kHz ticks.
    pub const fn from_ticks(ticks: u64) -> Self {
        MediaTicks(ticks)
    }

    /// Constructs from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid media time: {secs}"
        );
        MediaTicks((secs * TICKS_PER_SEC as f64).round() as u64)
    }

    /// The span of `frames` frames, which is also where frame number
    /// `frames` starts.
    pub(crate) const fn of_frames(frames: u64) -> Self {
        MediaTicks(frames * FRAME_TICKS)
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Value in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// True for the zero value.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: MediaTicks) -> MediaTicks {
        MediaTicks(self.0.saturating_sub(rhs.0))
    }
}

impl Add for MediaTicks {
    type Output = MediaTicks;
    fn add(self, rhs: MediaTicks) -> MediaTicks {
        MediaTicks(self.0 + rhs.0)
    }
}

impl AddAssign for MediaTicks {
    fn add_assign(&mut self, rhs: MediaTicks) {
        self.0 += rhs.0;
    }
}

impl Sub for MediaTicks {
    type Output = MediaTicks;
    /// # Panics
    ///
    /// Panics on underflow; use [`MediaTicks::saturating_sub`] when the
    /// operands may be unordered.
    fn sub(self, rhs: MediaTicks) -> MediaTicks {
        MediaTicks(self.0.checked_sub(rhs.0).expect("MediaTicks underflow"))
    }
}

impl fmt::Display for MediaTicks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// The coding type of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Intra-coded: decodable on its own. Starts every closed GOP and is by
    /// far the largest frame type.
    I,
    /// Predicted from previous reference frames.
    P,
    /// Bi-directionally predicted; the smallest frame type.
    B,
}

impl FrameType {
    /// True for I-frames.
    pub const fn is_intra(self) -> bool {
        matches!(self, FrameType::I)
    }
}

impl fmt::Display for FrameType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameType::I => write!(f, "I"),
            FrameType::P => write!(f, "P"),
            FrameType::B => write!(f, "B"),
        }
    }
}

/// One coded video frame: its type and its coded size. Its place on the
/// media timeline is its index in the video.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Coding type.
    pub kind: FrameType,
    /// Coded size in bytes.
    pub bytes: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_round_trip() {
        let t = MediaTicks::from_secs_f64(2.5);
        assert_eq!(t.ticks(), 225_000);
        assert_eq!(t.as_secs_f64(), 2.5);
        assert_eq!(t.to_string(), "2.500s");
    }

    #[test]
    fn exact_frame_durations_for_common_rates() {
        for fps in [24u64, 25, 30, 60] {
            assert_eq!(TICKS_PER_SEC % fps, 0, "{fps} fps is not exact at 90kHz");
        }
        assert_eq!(FRAME_TICKS * u64::from(FPS), TICKS_PER_SEC);
        assert_eq!(MediaTicks::of_frames(u64::from(FPS)).as_secs_f64(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let a = MediaTicks::from_ticks(100);
        let b = MediaTicks::from_ticks(40);
        assert_eq!(a + b, MediaTicks::from_ticks(140));
        assert_eq!(a - b, MediaTicks::from_ticks(60));
        assert_eq!(b.saturating_sub(a), MediaTicks::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = MediaTicks::from_ticks(1) - MediaTicks::from_ticks(2);
    }

    /// Frame 1 starts at tick 3 000 and ends where frame 2 starts.
    #[test]
    fn frame_end_pts() {
        assert_eq!(MediaTicks::of_frames(1), MediaTicks::from_ticks(3000));
        assert_eq!(MediaTicks::of_frames(2), MediaTicks::from_ticks(6000));
        assert!(!FrameType::P.is_intra());
        assert!(FrameType::I.is_intra());
    }

    #[test]
    fn frame_type_display() {
        assert_eq!(FrameType::I.to_string(), "I");
        assert_eq!(FrameType::P.to_string(), "P");
        assert_eq!(FrameType::B.to_string(), "B");
    }
}
