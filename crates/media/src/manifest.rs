//! HLS-style playlists describing a spliced video.
//!
//! The seeder serves a manifest to joining peers (like the `.m3u8` playlist
//! an HLS origin serves), listing every segment's duration and transfer
//! size. A small emitter/parser pair is provided so manifests can travel as
//! plain text.

use crate::error::MediaError;
use crate::segment::SegmentList;

/// One entry of a [`Manifest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Segment file name (informational).
    pub uri: String,
    /// Display duration in seconds.
    pub duration_secs: f64,
    /// Transfer size in bytes (media + splicing overhead).
    pub bytes: u64,
}

/// A playlist describing every segment of a spliced video.
///
/// # Examples
///
/// ```
/// use splicecast_media::{DurationSplicer, Manifest, Splicer, Video};
///
/// let video = Video::builder().duration_secs(12.0).seed(1).build();
/// let segments = DurationSplicer::new(4.0).splice(&video);
/// let manifest = Manifest::from_segments("clip", &segments);
/// let text = manifest.to_m3u8();
/// let parsed = Manifest::parse_m3u8(&text).unwrap();
/// assert_eq!(parsed, manifest);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Playlist format version.
    pub version: u32,
    /// Upper bound on segment duration, in whole seconds (like
    /// `#EXT-X-TARGETDURATION`).
    pub target_duration_secs: u64,
    /// The segments in playback order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Builds a manifest from a segment list.
    pub fn from_segments(name: &str, segments: &SegmentList) -> Self {
        let entries = segments
            .iter()
            .map(|seg| ManifestEntry {
                uri: format!("{name}-{:05}.m4s", seg.index),
                duration_secs: seg.duration.as_secs_f64(),
                bytes: seg.bytes,
            })
            .collect::<Vec<_>>();
        let target = entries
            .iter()
            .map(|e| e.duration_secs.ceil() as u64)
            .max()
            .unwrap_or(0);
        Manifest {
            version: 3,
            target_duration_secs: target,
            entries,
        }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the playlist has no segments.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total transfer bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Emits the playlist as `m3u8` text. Segment byte sizes travel in a
    /// `#EXT-X-SPLICECAST-BYTES` application tag.
    pub fn to_m3u8(&self) -> String {
        let mut out = String::new();
        out.push_str("#EXTM3U\n");
        out.push_str(&format!("#EXT-X-VERSION:{}\n", self.version));
        out.push_str(&format!(
            "#EXT-X-TARGETDURATION:{}\n",
            self.target_duration_secs
        ));
        for entry in &self.entries {
            out.push_str(&format!("#EXT-X-SPLICECAST-BYTES:{}\n", entry.bytes));
            out.push_str(&format!("#EXTINF:{:.6},\n", entry.duration_secs));
            out.push_str(&entry.uri);
            out.push('\n');
        }
        out.push_str("#EXT-X-ENDLIST\n");
        out
    }

    /// Parses playlist text produced by [`Manifest::to_m3u8`].
    ///
    /// # Errors
    ///
    /// Returns [`MediaError::ParseManifest`] on malformed input.
    pub fn parse_m3u8(text: &str) -> Result<Self, MediaError> {
        let bad = |msg: &str| MediaError::ParseManifest(msg.to_owned());
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        if lines.next() != Some("#EXTM3U") {
            return Err(bad("missing #EXTM3U header"));
        }
        let mut version = 1;
        let mut target = 0;
        let mut entries = Vec::new();
        let mut pending_bytes: Option<u64> = None;
        let mut pending_duration: Option<f64> = None;
        for line in lines {
            if let Some(v) = line.strip_prefix("#EXT-X-VERSION:") {
                version = v.parse().map_err(|_| bad("bad version"))?;
            } else if let Some(v) = line.strip_prefix("#EXT-X-TARGETDURATION:") {
                target = v.parse().map_err(|_| bad("bad target duration"))?;
            } else if let Some(v) = line.strip_prefix("#EXT-X-SPLICECAST-BYTES:") {
                pending_bytes = Some(v.parse().map_err(|_| bad("bad byte count"))?);
            } else if let Some(v) = line.strip_prefix("#EXTINF:") {
                let duration = v
                    .trim_end_matches(',')
                    .parse()
                    .map_err(|_| bad("bad duration"))?;
                pending_duration = Some(duration);
            } else if line == "#EXT-X-ENDLIST" {
                break;
            } else if line.starts_with('#') {
                // Unknown tags are ignored, like real HLS clients do.
            } else {
                let duration_secs = pending_duration
                    .take()
                    .ok_or_else(|| bad("uri without #EXTINF"))?;
                let bytes = pending_bytes
                    .take()
                    .ok_or_else(|| bad("uri without byte size"))?;
                entries.push(ManifestEntry {
                    uri: line.to_owned(),
                    duration_secs,
                    bytes,
                });
            }
        }
        Ok(Manifest {
            version,
            target_duration_secs: target,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splicer::{DurationSplicer, GopSplicer, Splicer};
    use crate::video::Video;

    fn video() -> Video {
        Video::builder().duration_secs(20.0).seed(4).build()
    }

    #[test]
    fn manifest_mirrors_segments() {
        let v = video();
        let list = DurationSplicer::new(4.0).splice(&v);
        let m = Manifest::from_segments("clip", &list);
        assert_eq!(m.len(), list.len());
        assert_eq!(m.total_bytes(), list.total_bytes());
        assert_eq!(m.target_duration_secs, 4);
        assert_eq!(m.entries[0].uri, "clip-00000.m4s");
    }

    #[test]
    fn m3u8_round_trips() {
        let v = video();
        for list in [GopSplicer.splice(&v), DurationSplicer::new(2.0).splice(&v)] {
            let m = Manifest::from_segments("clip", &list);
            let parsed = Manifest::parse_m3u8(&m.to_m3u8()).unwrap();
            assert_eq!(parsed.version, m.version);
            assert_eq!(parsed.target_duration_secs, m.target_duration_secs);
            assert_eq!(parsed.len(), m.len());
            for (a, b) in parsed.entries.iter().zip(&m.entries) {
                assert_eq!(a.uri, b.uri);
                assert_eq!(a.bytes, b.bytes);
                assert!((a.duration_secs - b.duration_secs).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Manifest::parse_m3u8("").is_err());
        assert!(Manifest::parse_m3u8("not a playlist").is_err());
        let missing_inf = "#EXTM3U\n#EXT-X-SPLICECAST-BYTES:10\nseg.m4s\n";
        assert!(Manifest::parse_m3u8(missing_inf).is_err());
        let missing_bytes = "#EXTM3U\n#EXTINF:2.0,\nseg.m4s\n";
        assert!(Manifest::parse_m3u8(missing_bytes).is_err());
        let bad_number = "#EXTM3U\n#EXT-X-VERSION:x\n";
        assert!(Manifest::parse_m3u8(bad_number).is_err());
    }

    #[test]
    fn parser_ignores_unknown_tags() {
        let text = "#EXTM3U\n#EXT-X-FANCY:1\n#EXT-X-SPLICECAST-BYTES:10\n#EXTINF:2.0,\nseg.m4s\n#EXT-X-ENDLIST\n";
        let m = Manifest::parse_m3u8(text).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.entries[0].bytes, 10);
    }

    #[test]
    fn empty_manifest_is_empty() {
        let m = Manifest::parse_m3u8("#EXTM3U\n#EXT-X-ENDLIST\n").unwrap();
        assert!(m.is_empty());
        assert_eq!(m.total_bytes(), 0);
    }
}
