//! # splicecast-media
//!
//! A synthetic **MPEG-4 stream model** and the **video splicers** studied in
//! *"Video Splicing Techniques for P2P Video Streaming"* (ICDCS 2015).
//!
//! Real pixel data is irrelevant to streaming dynamics; what matters is the
//! *byte layout over time* of the coded video. This crate models exactly
//! that:
//!
//! - [`Frame`]s with type-dependent sizes (I ≫ P > B) on a 90 kHz clock;
//! - closed GOPs whose durations follow a [`ContentProfile`] (scene
//!   changes → short GOPs, static scenes → very long GOPs);
//! - a constant-bitrate synthetic encoder ([`EncoderConfig`]) assembled by
//!   [`Video::builder`];
//! - the paper's splicing strategies: [`GopSplicer`] (§II-A, zero overhead,
//!   wild size variance) and [`DurationSplicer`] (§II-B, equal durations,
//!   I-frame conversion overhead), plus a PPLive-style [`ByteSplicer`];
//! - an HLS-style [`Manifest`] for shipping the segment index to peers.
//!
//! ## Example
//!
//! ```
//! use splicecast_media::{DurationSplicer, GopSplicer, Splicer, Video};
//!
//! // The paper's clip: 2 minutes of 1 Mbps MPEG-4.
//! let video = Video::builder().seed(7).build();
//!
//! let by_gop = GopSplicer.splice(&video);
//! let by_4s = DurationSplicer::new(4.0).splice(&video);
//!
//! assert_eq!(by_gop.total_overhead_bytes(), 0);
//! assert!(by_4s.total_overhead_bytes() > 0); // inserted I-frames
//! assert!(by_gop.max_segment_bytes() > by_4s.max_segment_bytes());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod content;
mod encoder;
mod error;
mod frame;
mod gop;
mod ladder;
mod manifest;
mod segment;
mod splicer;
mod video;

pub use content::{ContentProfile, SceneClass};
pub use encoder::{encode, EncoderConfig, PAPER_BITRATE_BPS};
pub use error::MediaError;
pub use frame::{Frame, FrameType, MediaTicks, TICKS_PER_SEC};
pub use gop::GopView;
pub use ladder::{Ladder, LadderBuilder, Rendition};
pub use manifest::{Manifest, ManifestEntry};
pub use segment::{Segment, SegmentList};
pub use splicer::{ByteSplicer, DurationSplicer, GopSplicer, RampSplicer, Splicer};
pub use video::{Video, VideoBuilder, PAPER_CONTENT_SEED};
