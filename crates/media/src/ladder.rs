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

use crate::segment::SegmentList;
use crate::splicer::{DurationSplicer, Splicer};
use crate::video::{Video, PAPER_CONTENT_SEED};

/// An aligned set of renditions, one per rung of [`Ladder::BITRATES_BPS`]:
/// same content, same GOP structure, same segment boundaries — only the
/// bytes differ.
///
/// # Examples
///
/// ```
/// use splicecast_media::Ladder;
///
/// let ladder = Ladder::builder().duration_secs(20.0).build();
/// assert_eq!(Ladder::BITRATES_BPS.len(), 3);
/// assert_eq!(ladder.segment_count(), 5);
/// // Higher rungs cost more bytes for the same timeline.
/// assert!(ladder.segments(2)[0].bytes > ladder.segments(0)[0].bytes);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    /// Each rung's segment list, in the order of `BITRATES_BPS`.
    rungs: Vec<SegmentList>,
}

impl Ladder {
    /// The rendition bitrates every ladder carries, ascending, bits per
    /// second.
    pub const BITRATES_BPS: [u64; 3] = [250_000, 500_000, 1_000_000];

    /// Starts building a ladder.
    pub fn builder() -> LadderBuilder {
        LadderBuilder::default()
    }

    /// Number of segments (identical across renditions).
    pub fn segment_count(&self) -> usize {
        self.rungs[0].len()
    }

    /// Display duration of a segment in seconds (identical across
    /// renditions).
    pub fn segment_secs(&self, segment: usize) -> f64 {
        self.segments(0)[segment].duration().as_secs_f64()
    }

    /// The segment list of one rendition.
    pub fn segments(&self, rendition: usize) -> &SegmentList {
        &self.rungs[rendition]
    }
}

const _: () = assert!(
    Ladder::BITRATES_BPS[0] < Ladder::BITRATES_BPS[1]
        && Ladder::BITRATES_BPS[1] < Ladder::BITRATES_BPS[2],
    "the ladder's bitrates must ascend"
);

/// The common segment duration of every rendition, seconds.
const SEGMENT_SECS: f64 = 4.0;

/// Builder for [`Ladder`]s: the paper's content (profile, seed, frame rate)
/// at [`Ladder::BITRATES_BPS`], cut every 4 s. Only the clip length is
/// settable.
#[derive(Debug, Clone, PartialEq)]
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

    /// Encodes every rendition from the same content realisation, cuts
    /// them at the same boundaries and keeps only the cuts.
    ///
    /// # Panics
    ///
    /// Panics when the clip length is invalid.
    pub fn build(&self) -> Ladder {
        let splicer = DurationSplicer::new(SEGMENT_SECS);
        let rungs: Vec<SegmentList> = Ladder::BITRATES_BPS
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
                segments.validate(&video).expect("a splice tiles its video");
                segments
            })
            .collect();
        assert!(
            aligned(&rungs),
            "every rung must share the segment boundaries"
        );
        Ladder { rungs }
    }
}

/// Whether every list cuts at the first one's frames: the same segment
/// count, each segment spanning the same frames.
fn aligned(rungs: &[SegmentList]) -> bool {
    let spans = |list: &SegmentList| -> Vec<(u32, u32)> {
        list.iter()
            .map(|s| (s.first_frame, s.frame_count))
            .collect()
    };
    rungs.iter().all(|list| spans(list) == spans(&rungs[0]))
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
        assert!(aligned(&l.rungs));
        assert_eq!(l.rungs.len(), Ladder::BITRATES_BPS.len());
        assert_eq!(l.segment_count(), 6);
        for seg in 0..l.segment_count() {
            let d = l.segment_secs(seg);
            assert!(d > 0.0);
            // Bytes scale roughly with bitrate on every segment.
            let low = l.segments(0)[seg].bytes as f64;
            let high = l.segments(2)[seg].bytes as f64;
            let ratio = high / low;
            assert!((3.0..5.3).contains(&ratio), "segment {seg} ratio {ratio}");
        }
    }

    #[test]
    fn rungs_are_the_abr_ladder_ascending() {
        let l = Ladder::builder().duration_secs(8.0).build();
        assert_eq!(l.rungs.len(), Ladder::BITRATES_BPS.len());
    }

    /// A ladder over an empty clip has nothing to encode.
    #[test]
    #[should_panic(expected = "bad video length")]
    fn empty_ladder_panics() {
        let _ = Ladder::builder().duration_secs(0.0).build();
    }

    #[test]
    fn alignment_catches_a_rung_cut_differently() {
        let video = Video::builder().duration_secs(24.0).build();
        let by_4s = DurationSplicer::new(4.0).splice(&video);
        let by_2s = DurationSplicer::new(2.0).splice(&video);
        assert!(aligned(&[by_4s.clone(), by_4s.clone()]));
        assert!(!aligned(&[by_4s, by_2s]));
    }
}
