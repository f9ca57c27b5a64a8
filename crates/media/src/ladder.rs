//! Multi-bitrate rendition ladders.
//!
//! The paper's §I motivates duration-adaptive splicing as an alternative to
//! the industry's *bitrate* adaptation ("Netflix and Hulu ... clients
//! determine a bit-rate based on the available bandwidth. As they keep the
//! duration of the segment constant and vary the bit-rates, it will degrade
//! the video quality"). To compare the two fairly we need that baseline: a
//! ladder of renditions of the *same* content at different bitrates, cut at
//! the *same* segment boundaries, so a client can switch rendition at any
//! segment edge.

use serde::{Deserialize, Serialize};

use crate::error::MediaError;
use crate::segment::SegmentList;
use crate::splicer::{DurationSplicer, Splicer};
use crate::video::{Video, PAPER_CONTENT_SEED};

/// One rung of a [`Ladder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rendition {
    /// Target bitrate of this rendition, bits per second.
    pub bitrate_bps: u64,
    /// The coded video.
    pub video: Video,
    /// The video cut at the ladder's common segment boundaries.
    pub segments: SegmentList,
}

/// An aligned set of renditions: same content, same GOP structure, same
/// segment boundaries — only the bytes differ.
///
/// # Examples
///
/// ```
/// use splicecast_media::Ladder;
///
/// let ladder = Ladder::builder().duration_secs(20.0).build();
/// assert_eq!(ladder.len(), 3);
/// assert_eq!(ladder.segment_count(), 5);
/// // Higher rungs cost more bytes for the same timeline.
/// assert!(ladder.segment_bytes(2, 0) > ladder.segment_bytes(0, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ladder {
    renditions: Vec<Rendition>,
}

impl Ladder {
    /// The rendition bitrates every ladder carries, ascending, bits per
    /// second.
    pub const BITRATES_BPS: [u64; 3] = [250_000, 500_000, 1_000_000];

    /// Starts building a ladder.
    pub fn builder() -> LadderBuilder {
        LadderBuilder::default()
    }

    /// The renditions, ascending by bitrate.
    pub fn renditions(&self) -> &[Rendition] {
        &self.renditions
    }

    /// Number of renditions.
    pub fn len(&self) -> usize {
        self.renditions.len()
    }

    /// True when the ladder has no renditions (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.renditions.is_empty()
    }

    /// Number of segments (identical across renditions).
    pub fn segment_count(&self) -> usize {
        self.renditions[0].segments.len()
    }

    /// Transfer size of one segment of one rendition.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn segment_bytes(&self, rendition: usize, segment: usize) -> u64 {
        self.renditions[rendition].segments[segment].bytes
    }

    /// Display duration of a segment in seconds (identical across
    /// renditions).
    pub fn segment_secs(&self, segment: usize) -> f64 {
        self.renditions[0].segments[segment].duration.as_secs_f64()
    }

    /// The segment list of one rendition.
    pub fn segments(&self, rendition: usize) -> &SegmentList {
        &self.renditions[rendition].segments
    }

    /// Bitrate of a rendition, bits per second.
    pub fn bitrate_bps(&self, rendition: usize) -> u64 {
        self.renditions[rendition].bitrate_bps
    }

    /// Validates cross-rendition alignment: same segment count, same
    /// per-segment durations, strictly increasing bitrates.
    ///
    /// # Errors
    ///
    /// Returns a [`MediaError::SegmentCoverage`] flavoured error when
    /// alignment is broken.
    pub fn validate(&self) -> Result<(), MediaError> {
        if self.renditions.is_empty() {
            return Err(MediaError::EmptyVideo);
        }
        let reference = &self.renditions[0];
        reference.segments.validate(&reference.video)?;
        for rendition in &self.renditions[1..] {
            rendition.segments.validate(&rendition.video)?;
            if rendition.segments.len() != reference.segments.len() {
                return Err(MediaError::SegmentCoverage { frame: 0 });
            }
            for (a, b) in rendition.segments.iter().zip(reference.segments.iter()) {
                if a.duration != b.duration || a.start_pts != b.start_pts {
                    return Err(MediaError::SegmentCoverage {
                        frame: a.first_frame as usize,
                    });
                }
            }
        }
        if !self
            .renditions
            .windows(2)
            .all(|w| w[0].bitrate_bps < w[1].bitrate_bps)
        {
            return Err(MediaError::SegmentCoverage { frame: 0 });
        }
        Ok(())
    }
}

/// The common segment duration of every rendition, seconds.
const SEGMENT_SECS: f64 = 4.0;

/// Builder for [`Ladder`]s: the paper's content (profile, seed, frame rate)
/// at [`Ladder::BITRATES_BPS`], cut every 4 s. Only the clip length is
/// settable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LadderBuilder {
    duration_secs: f64,
}

impl Default for LadderBuilder {
    fn default() -> Self {
        LadderBuilder {
            duration_secs: 120.0,
        }
    }
}

impl LadderBuilder {
    /// Sets the clip length in seconds.
    pub fn duration_secs(&mut self, secs: f64) -> &mut Self {
        self.duration_secs = secs;
        self
    }

    /// Encodes every rendition from the same content realisation and cuts
    /// them at the same boundaries.
    ///
    /// # Panics
    ///
    /// Panics when the clip length is invalid.
    pub fn build(&self) -> Ladder {
        let splicer = DurationSplicer::new(SEGMENT_SECS);
        let renditions = Ladder::BITRATES_BPS
            .into_iter()
            .map(|bitrate_bps| {
                // Same profile + same seed ⇒ identical GOP structure and
                // per-frame jitter draws; only the byte scaling differs.
                let video = Video::builder()
                    .duration_secs(self.duration_secs)
                    .bitrate_bps(bitrate_bps)
                    .seed(PAPER_CONTENT_SEED)
                    .build();
                let segments = splicer.splice(&video);
                Rendition {
                    bitrate_bps,
                    video,
                    segments,
                }
            })
            .collect();
        let ladder = Ladder { renditions };
        debug_assert!(ladder.validate().is_ok());
        ladder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Ladder {
        Ladder::builder().duration_secs(24.0).build()
    }

    #[test]
    fn renditions_are_aligned() {
        let l = ladder();
        l.validate().unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.segment_count(), 6);
        for seg in 0..l.segment_count() {
            let d = l.segment_secs(seg);
            assert!(d > 0.0);
            // Bytes scale roughly with bitrate on every segment.
            let low = l.segment_bytes(0, seg) as f64;
            let high = l.segment_bytes(2, seg) as f64;
            let ratio = high / low;
            assert!((3.0..5.3).contains(&ratio), "segment {seg} ratio {ratio}");
        }
    }

    #[test]
    fn rungs_are_the_abr_ladder_ascending() {
        let l = Ladder::builder().duration_secs(8.0).build();
        assert_eq!(l.len(), 3);
        let bitrates: Vec<u64> = (0..l.len()).map(|r| l.bitrate_bps(r)).collect();
        assert_eq!(bitrates, Ladder::BITRATES_BPS);
    }

    /// A ladder over an empty clip has nothing to encode.
    #[test]
    #[should_panic(expected = "bad video length")]
    fn empty_ladder_panics() {
        let _ = Ladder::builder().duration_secs(0.0).build();
    }

    #[test]
    fn validate_catches_misalignment() {
        let mut l = ladder();
        // Cut the top rendition differently.
        let video = l.renditions[2].video.clone();
        l.renditions[2].segments = DurationSplicer::new(2.0).splice(&video);
        assert!(l.validate().is_err());
    }
}
