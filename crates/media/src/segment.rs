//! Segments: the units a spliced video is transferred in.

use std::ops::Index;

use crate::error::MediaError;
use crate::frame::{MediaTicks, FRAME_TICKS};
use crate::video::Video;

/// One spliced segment of a video. A segment is named by its position
/// in its [`SegmentList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Index of the first frame this segment carries.
    pub first_frame: u32,
    /// Number of frames carried.
    pub frame_count: u32,
    /// Bytes that must be transferred for this segment, **including**
    /// splicing overhead.
    pub bytes: u64,
    /// Extra bytes the splicer added (re-intra-coding the first frame when
    /// a cut lands mid-GOP). Zero for GOP-based splicing.
    pub overhead_bytes: u64,
}

impl Segment {
    /// Presentation timestamp of the first frame.
    pub fn start_pts(&self) -> MediaTicks {
        MediaTicks::of_frames(u64::from(self.first_frame))
    }

    /// Total display duration.
    pub fn duration(&self) -> MediaTicks {
        MediaTicks::of_frames(u64::from(self.frame_count))
    }

    /// The timestamp just after this segment's last frame.
    pub fn end_pts(&self) -> MediaTicks {
        MediaTicks::of_frames(u64::from(self.first_frame) + u64::from(self.frame_count))
    }

    /// Bytes of original media (excluding splicing overhead).
    pub fn media_bytes(&self) -> u64 {
        self.bytes - self.overhead_bytes
    }
}

/// The complete splice of a video: an ordered list of segments that tile
/// the video's frames.
///
/// # Examples
///
/// ```
/// use splicecast_media::{DurationSplicer, Splicer, Video};
///
/// let video = Video::builder().duration_secs(20.0).seed(3).build();
/// let segments = DurationSplicer::new(4.0).splice(&video);
/// assert_eq!(segments.len(), 5);
/// segments.validate(&video).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentList {
    segments: Vec<Segment>,
}

impl SegmentList {
    /// Wraps a list of segments. Use [`SegmentList::validate`] to check it
    /// against the video it was cut from.
    pub fn new(segments: Vec<Segment>) -> Self {
        SegmentList { segments }
    }

    /// The segments in playback order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when there are no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The segment at `index`, if any.
    pub fn get(&self, index: usize) -> Option<&Segment> {
        self.segments.get(index)
    }

    /// Iterates over the segments.
    pub fn iter(&self) -> std::slice::Iter<'_, Segment> {
        self.segments.iter()
    }

    /// Total transfer bytes (media + overhead).
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Total splicing overhead bytes.
    pub fn total_overhead_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.overhead_bytes).sum()
    }

    /// Overhead as a fraction of the original media bytes.
    pub fn overhead_ratio(&self) -> f64 {
        let media: u64 = self.segments.iter().map(|s| s.media_bytes()).sum();
        if media == 0 {
            0.0
        } else {
            self.total_overhead_bytes() as f64 / media as f64
        }
    }

    /// Total display duration.
    pub fn total_duration(&self) -> MediaTicks {
        match (self.segments.first(), self.segments.last()) {
            (Some(first), Some(last)) => last.end_pts() - first.start_pts(),
            _ => MediaTicks::ZERO,
        }
    }

    /// The largest segment, in bytes.
    pub fn max_segment_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).max().unwrap_or(0)
    }

    /// The arithmetic-mean segment size, in bytes.
    pub fn mean_segment_bytes(&self) -> f64 {
        if self.segments.is_empty() {
            0.0
        } else {
            self.total_bytes() as f64 / self.segments.len() as f64
        }
    }

    /// The position of the segment whose playback interval contains `pts`.
    pub fn segment_at(&self, pts: MediaTicks) -> Option<usize> {
        // The search runs on frame indices: the player asks on every tick.
        let frame = pts.ticks() / FRAME_TICKS;
        let idx = self
            .segments
            .partition_point(|s| u64::from(s.first_frame + s.frame_count) <= frame);
        let seg = self.segments.get(idx)?;
        (u64::from(seg.first_frame) <= frame).then_some(idx)
    }

    /// Checks that the segments exactly tile `video` and that their byte
    /// counts are consistent with the frames they span.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, video: &Video) -> Result<(), MediaError> {
        let frames = video.frames();
        let mut next_frame = 0u32;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.first_frame != next_frame || seg.frame_count == 0 {
                return Err(MediaError::SegmentCoverage {
                    frame: next_frame as usize,
                });
            }
            let span =
                &frames[seg.first_frame as usize..(seg.first_frame + seg.frame_count) as usize];
            let media: u64 = span.iter().map(|f| u64::from(f.bytes)).sum();
            if seg.bytes != media + seg.overhead_bytes {
                return Err(MediaError::SegmentBytes { segment: i });
            }
            next_frame += seg.frame_count;
        }
        if next_frame as usize != frames.len() {
            return Err(MediaError::SegmentCoverage {
                frame: next_frame as usize,
            });
        }
        Ok(())
    }

    /// The playlist the seeder serves joining peers, as `m3u8` text (like
    /// the `.m3u8` an HLS origin serves): every segment's duration and
    /// transfer size, the size in a `#EXT-X-SPLICECAST-BYTES` application
    /// tag, each segment named `{name}-{position:05}.m4s`.
    pub fn to_m3u8(&self, name: &str) -> String {
        let target = self
            .segments
            .iter()
            .map(|s| s.duration().as_secs_f64().ceil() as u64)
            .max()
            .unwrap_or(0);
        let mut out = format!("#EXTM3U\n#EXT-X-VERSION:3\n#EXT-X-TARGETDURATION:{target}\n");
        for (index, seg) in self.segments.iter().enumerate() {
            let (bytes, secs) = (seg.bytes, seg.duration().as_secs_f64());
            out += &format!(
                "#EXT-X-SPLICECAST-BYTES:{bytes}\n#EXTINF:{secs:.6},\n{name}-{index:05}.m4s\n"
            );
        }
        out + "#EXT-X-ENDLIST\n"
    }
}

impl Index<usize> for SegmentList {
    type Output = Segment;
    fn index(&self, index: usize) -> &Segment {
        &self.segments[index]
    }
}

impl<'a> IntoIterator for &'a SegmentList {
    type Item = &'a Segment;
    type IntoIter = std::slice::Iter<'a, Segment>;
    fn into_iter(self) -> Self::IntoIter {
        self.segments.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splicer::{GopSplicer, Splicer};

    fn video() -> Video {
        Video::builder().duration_secs(30.0).seed(9).build()
    }

    #[test]
    fn list_statistics() {
        let v = video();
        let list = GopSplicer.splice(&v);
        assert_eq!(list.total_bytes(), v.total_bytes());
        assert_eq!(list.total_overhead_bytes(), 0);
        assert_eq!(list.overhead_ratio(), 0.0);
        assert_eq!(list.total_duration(), v.duration());
        assert!(list.max_segment_bytes() >= list.mean_segment_bytes() as u64);
        assert!(!list.is_empty());
        assert_eq!(list.len(), v.gop_count());
    }

    #[test]
    fn segment_at_finds_the_right_segment() {
        let v = video();
        let list = GopSplicer.splice(&v);
        for (i, seg) in list.iter().enumerate() {
            let mid = MediaTicks::from_ticks((seg.start_pts().ticks() + seg.end_pts().ticks()) / 2);
            assert_eq!(list.segment_at(mid), Some(i));
            assert_eq!(list.segment_at(seg.start_pts()), Some(i));
        }
        assert!(list.segment_at(v.duration()).is_none());
    }

    #[test]
    fn m3u8_lists_every_segment() {
        let list = crate::splicer::DurationSplicer::new(4.0).splice(&video());
        let text = list.to_m3u8("clip");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4 + 3 * list.len());
        assert_eq!(
            lines[..3],
            ["#EXTM3U", "#EXT-X-VERSION:3", "#EXT-X-TARGETDURATION:4"]
        );
        let first = format!("#EXT-X-SPLICECAST-BYTES:{}", list[0].bytes);
        assert_eq!(lines[3..6], [&first, "#EXTINF:4.000000,", "clip-00000.m4s"]);
        assert_eq!(lines.last(), Some(&"#EXT-X-ENDLIST"));
    }

    #[test]
    fn empty_list_renders_an_empty_playlist() {
        let empty = SegmentList::new(Vec::new()).to_m3u8("clip");
        assert_eq!(
            empty,
            "#EXTM3U\n#EXT-X-VERSION:3\n#EXT-X-TARGETDURATION:0\n#EXT-X-ENDLIST\n"
        );
    }

    #[test]
    fn validate_rejects_tampered_lists() {
        let v = video();
        let list = GopSplicer.splice(&v);

        let mut wrong_bytes = list.clone();
        wrong_bytes.segments[0].bytes += 1;
        assert_eq!(
            wrong_bytes.validate(&v).unwrap_err(),
            MediaError::SegmentBytes { segment: 0 }
        );

        let mut gap = list.clone();
        gap.segments.remove(1);
        assert!(matches!(
            gap.validate(&v).unwrap_err(),
            MediaError::SegmentCoverage { .. }
        ));

        let mut truncated = list.clone();
        truncated.segments.pop();
        assert!(matches!(
            truncated.validate(&v).unwrap_err(),
            MediaError::SegmentCoverage { .. }
        ));
    }

    #[test]
    fn indexing_and_iteration() {
        let v = video();
        let list = GopSplicer.splice(&v);
        assert_eq!(list[0], *list.get(0).unwrap());
        let count = list.iter().count();
        assert_eq!(count, list.len());
    }
}
