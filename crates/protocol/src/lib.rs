//! # splicecast-protocol
//!
//! The **BitTorrent-like wire protocol** the paper's P2P streaming
//! application speaks ("we implemented our own BitTorrent like messaging
//! protocol", §V), adapted for segment streaming:
//!
//! - [`Message`]: handshake, [`Bitfield`] availability maps, `Have`
//!   announcements and the `NotInterested` that unsubscribes from them,
//!   whole-segment `Request`s, a `SegmentHeader` announcing each bulk
//!   transfer, and manifest exchange. BitTorrent's choke and interest
//!   signals are not on the wire: a request queues at a busy uploader
//!   instead of being choked.
//! - [`encode`] / [`decode_single`]: a length-prefixed binary codec with
//!   strict validation and a frame-size cap, one whole frame at a time (the
//!   simulator delivers every message as one frame).
//!
//! ## Example
//!
//! ```
//! use splicecast_protocol::{encode_to_bytes, decode_single, Bitfield, Message};
//!
//! let mut held = Bitfield::new(30);
//! held.set(4);
//! let wire = encode_to_bytes(&Message::Bitfield(held.clone()));
//! assert_eq!(decode_single(&wire).unwrap(), Message::Bitfield(held));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitfield;
mod codec;
mod error;
mod message;

pub use bitfield::Bitfield;
pub use codec::{
    decode_single, encode, encode_to_bytes, have_bundle_indices, EncodeBuf, MAX_FRAME_LEN,
};
pub use error::ProtocolError;
pub use message::{Message, PROTOCOL_MAGIC, PROTOCOL_VERSION};
