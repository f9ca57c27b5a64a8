//! # splicecast-media
//!
//! A synthetic **MPEG-4 stream model** and the **video splicers** studied in
//! *"Video Splicing Techniques for P2P Video Streaming"* (ICDCS 2015).
//!
//! Real pixel data is irrelevant to streaming dynamics; what matters is the
//! *byte layout over time* of the coded video. This crate models exactly
//! that:
//!
//! - [`Frame`]s with type-dependent sizes (I ≫ P > B) at a constant
//!   [`FPS`] on a 90 kHz clock: a frame's time is its index (frame `i`
//!   starts at `i ×` [`FRAME_TICKS`]), so a frame is its kind and size;
//! - closed GOPs whose durations follow a [`ContentProfile`] (scene
//!   changes → short GOPs, static scenes → very long GOPs), each starting
//!   at its I-frame ([`Video::gop_starts`] reads them off the frames);
//! - a constant-bitrate synthetic encoder, driven by [`Video::builder`],
//!   whose one tunable is the bitrate;
//! - the splicing an experiment chooses, one [`SplicingSpec`] value whose
//!   variants each list cut frame indices: the paper's GOP splicing
//!   (§II-A, [`GopSplicer`]: cuts at GOP starts, zero overhead, wild size
//!   variance) and duration splicing (§II-B, [`DurationSplicer`]: equal
//!   durations, I-frame conversion overhead), plus PPLive-style byte
//!   blocks and the ramped durations of §VIII's future work;
//! - the HLS-style playlist text ([`SegmentList::to_m3u8`]) the seeder
//!   serves to joining peers.
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
mod ladder;
mod segment;
mod splicer;
mod video;

pub use content::{ContentProfile, SceneClass};
pub use encoder::PAPER_BITRATE_BPS;
pub use error::MediaError;
pub use frame::{Frame, FrameType, MediaTicks, FPS, FRAME_TICKS, TICKS_PER_SEC};
pub use ladder::{Ladder, LadderBuilder};
pub use segment::{Segment, SegmentList};
pub use splicer::{DurationSplicer, GopSplicer, Splicer, SplicingSpec};
pub use video::{Video, VideoBuilder, PAPER_CONTENT_SEED};
