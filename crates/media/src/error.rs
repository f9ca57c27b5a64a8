//! Error types for the media model.

use std::error::Error;
use std::fmt;

/// Errors surfaced by video construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MediaError {
    /// A video must contain at least one frame.
    EmptyVideo,
    /// A video must begin with an I-frame: its first (closed) GOP's.
    GopMissingIFrame,
    /// Segments must partition the video's frames without gaps or overlap.
    SegmentCoverage {
        /// First frame index not covered correctly.
        frame: usize,
    },
    /// A segment byte count disagrees with the frames it spans.
    SegmentBytes {
        /// Index of the offending segment.
        segment: usize,
    },
}

impl fmt::Display for MediaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaError::EmptyVideo => write!(f, "video contains no frames"),
            MediaError::GopMissingIFrame => write!(f, "video does not begin with an I-frame"),
            MediaError::SegmentCoverage { frame } => {
                write!(f, "segments do not cover frame {frame} exactly once")
            }
            MediaError::SegmentBytes { segment } => {
                write!(f, "segment {segment} byte count disagrees with its frames")
            }
        }
    }
}

impl Error for MediaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            MediaError::EmptyVideo.to_string(),
            "video contains no frames"
        );
        assert_eq!(
            MediaError::GopMissingIFrame.to_string(),
            "video does not begin with an I-frame"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MediaError>();
    }
}
