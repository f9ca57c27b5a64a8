//! The segment buffer: which parts of the timeline are downloaded.

use std::sync::Arc;

use splicecast_media::{MediaTicks, Segment, SegmentList};

/// Tracks which segments of a spliced video have been fully downloaded and
/// answers timeline questions: "can playback proceed at pts X?" and "how
/// much is buffered ahead of X?" (the paper's `T`). The timeline itself is
/// the splice's shared [`SegmentList`]; the buffer adds one bit per segment.
///
/// # Examples
///
/// ```
/// use splicecast_media::{DurationSplicer, MediaTicks, Splicer, Video};
/// use splicecast_player::SegmentBuffer;
///
/// let video = Video::builder().duration_secs(12.0).seed(1).build();
/// let segments = DurationSplicer::new(4.0).splice(&video);
/// let mut buffer = SegmentBuffer::new(segments);
/// buffer.insert(0);
/// buffer.insert(1);
/// let t = buffer.buffered_from(MediaTicks::from_secs_f64(1.0));
/// assert!((t.as_secs_f64() - 7.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentBuffer {
    segments: Arc<SegmentList>,
    have: Vec<bool>,
    /// Lowest index not held: every segment below it is held. Downloads
    /// are near-sequential, so timeline queries answer from this mark in
    /// O(1) instead of walking the contiguous run each time.
    first_missing: usize,
}

impl SegmentBuffer {
    /// Creates an empty buffer for the given splice.
    pub fn new(segments: impl Into<Arc<SegmentList>>) -> Self {
        let segments = segments.into();
        SegmentBuffer {
            have: vec![false; segments.len()],
            segments,
            first_missing: 0,
        }
    }

    /// Whether every segment is held.
    pub fn is_complete(&self) -> bool {
        self.first_missing == self.have.len()
    }

    /// The lowest segment index not held (the segment count once every
    /// segment is): everything below it is held.
    pub fn first_missing(&self) -> usize {
        self.first_missing
    }

    /// Whether segment `index` is held.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn has(&self, index: usize) -> bool {
        self.have[index]
    }

    /// Marks segment `index` as downloaded. Returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn insert(&mut self, index: usize) -> bool {
        if self.have[index] {
            false
        } else {
            self.have[index] = true;
            while self.first_missing < self.have.len() && self.have[self.first_missing] {
                self.first_missing += 1;
            }
            true
        }
    }

    /// End of the video timeline.
    pub fn media_end(&self) -> MediaTicks {
        self.segments
            .segments()
            .last()
            .map_or(MediaTicks::ZERO, Segment::end_pts)
    }

    /// The segment whose interval contains `pts`, if any.
    pub fn segment_at(&self, pts: MediaTicks) -> Option<usize> {
        self.segments.segment_at(pts)
    }

    /// The timeline point up to which playback can run without interruption
    /// starting from `position`: the end of the contiguous run of held
    /// segments covering `position`. Returns `position` itself when the
    /// segment under it is missing.
    pub fn playable_until(&self, position: MediaTicks) -> MediaTicks {
        let Some(mut idx) = self.segment_at(position) else {
            // At or beyond the end of the timeline.
            return self.media_end().max(position);
        };
        if !self.have[idx] {
            return position;
        }
        if idx < self.first_missing {
            // The common sequential case: the run covering `position` ends
            // exactly at the first gap.
            return self.segments[self.first_missing - 1].end_pts();
        }
        while idx + 1 < self.have.len() && self.have[idx + 1] {
            idx += 1;
        }
        self.segments[idx].end_pts()
    }

    /// Buffered playback time ahead of `position` — the paper's `T`.
    pub fn buffered_from(&self, position: MediaTicks) -> MediaTicks {
        self.playable_until(position).saturating_sub(position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splicecast_media::{DurationSplicer, Splicer, Video};

    fn buffer() -> SegmentBuffer {
        // 20 s video in 4 s segments → 5 segments.
        let v = Video::builder().duration_secs(20.0).seed(2).build();
        SegmentBuffer::new(DurationSplicer::new(4.0).splice(&v))
    }

    fn secs(s: f64) -> MediaTicks {
        MediaTicks::from_secs_f64(s)
    }

    #[test]
    fn insert_tracks_held_count() {
        let mut b = buffer();
        assert!(b.insert(2));
        assert!(!b.insert(2), "double insert is not new");
        assert!(b.has(2));
        assert!(!b.has(1));
        assert!(!b.is_complete());
        assert_eq!(b.first_missing(), 0);
        b.insert(0);
        b.insert(1);
        assert_eq!(b.first_missing(), 3, "the mark skips the held run");
        b.insert(4);
        b.insert(3);
        assert!(b.is_complete());
        assert_eq!(b.first_missing(), 5);
    }

    #[test]
    fn playable_until_stops_at_first_gap() {
        let mut b = buffer();
        b.insert(0);
        b.insert(1);
        b.insert(3); // gap at 2
        assert!((b.playable_until(secs(0.0)).as_secs_f64() - 8.0).abs() < 1e-6);
        assert!((b.buffered_from(secs(3.0)).as_secs_f64() - 5.0).abs() < 1e-6);
        // Standing inside the missing segment: nothing playable.
        assert_eq!(b.buffered_from(secs(9.0)), MediaTicks::ZERO);
        // Standing inside segment 3 plays to 16 s only.
        assert!((b.playable_until(secs(13.0)).as_secs_f64() - 16.0).abs() < 1e-6);
    }

    #[test]
    fn position_at_segment_boundary_needs_the_next_segment() {
        let mut b = buffer();
        b.insert(0);
        // At exactly 4 s the play head is in segment 1, which is missing.
        assert_eq!(b.buffered_from(secs(4.0)), MediaTicks::ZERO);
        b.insert(1);
        assert!((b.buffered_from(secs(4.0)).as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn end_of_timeline_is_always_playable() {
        let b = buffer();
        let end = b.media_end();
        assert_eq!(b.segment_at(end), None);
        assert_eq!(b.buffered_from(end), MediaTicks::ZERO);
        assert_eq!(b.playable_until(end), end);
    }

    #[test]
    fn segment_at_maps_timeline_points() {
        let b = buffer();
        assert_eq!(b.segment_at(secs(0.0)), Some(0));
        assert_eq!(b.segment_at(secs(3.999)), Some(0));
        assert_eq!(b.segment_at(secs(4.0)), Some(1));
        assert_eq!(b.segment_at(secs(19.9)), Some(4));
        assert_eq!(b.segment_at(secs(20.0)), None);
    }
}
