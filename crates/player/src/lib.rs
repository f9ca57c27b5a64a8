//! # splicecast-player
//!
//! The **playback model**: a sequential viewer that plays segmented video
//! in real time and accounts exactly the quantities the paper measures —
//! startup time, stall count, and total stall duration (§V–VI).
//!
//! - [`SegmentBuffer`] tracks downloaded segments over the splice's shared
//!   [`SegmentList`](splicecast_media::SegmentList) and answers "how much
//!   is buffered ahead of the play head" (the `T` of the paper's Eq. 1);
//! - [`Playback`] is the play-out state machine (waiting → playing ⇄
//!   stalled → finished) and the one owner of a viewer's timeline: it
//!   records each stall, and the finish, at the instant the buffer runs
//!   dry, so its accounting does not depend on when it is polled;
//! - [`StallEvent`] / [`QoeMetrics`] are the per-viewer results.
//!
//! ## Example
//!
//! ```
//! use splicecast_media::{DurationSplicer, Splicer, Video};
//! use splicecast_player::Playback;
//!
//! let video = Video::builder().duration_secs(8.0).seed(1).build();
//! let segments = DurationSplicer::new(2.0).splice(&video);
//! let mut playback = Playback::new(segments);
//! playback.on_segment(0, 0.5);
//! playback.on_segment(1, 4.0); // arrives 1.5 s after the buffer ran dry
//! let stalls = playback.stalls();
//! assert_eq!(stalls.len(), 1);
//! assert!((stalls[0].duration_secs() - 1.5).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod playback;
mod stall;

pub use buffer::SegmentBuffer;
pub use playback::{Playback, PlaybackState};
pub use stall::{QoeMetrics, StallEvent};
