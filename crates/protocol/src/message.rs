//! The message vocabulary of the swarm protocol.
//!
//! Modelled on the BitTorrent peer wire protocol, adapted for streaming:
//! requests name whole segments (the transfer unit of HLS-style streaming),
//! the manifest replaces the torrent metainfo, and bulk segment bytes are
//! announced by a [`Message::SegmentHeader`] and then travel as a TCP
//! transfer rather than inline `piece` messages.

use bytes::Bytes;

/// Identifies the protocol in handshakes.
pub const PROTOCOL_MAGIC: [u8; 8] = *b"SPLCAST1";

/// Current protocol version.
pub const PROTOCOL_VERSION: u8 = 1;

/// A peer-wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Message {
    /// Opens a session between two peers.
    Handshake {
        /// The sender's stable identity.
        peer_id: u64,
        /// Identifies the video being swarmed (hash of the manifest).
        info_hash: [u8; 20],
        /// Protocol version of the sender.
        version: u8,
    },
    /// The sender no longer wants anything from the receiver.
    NotInterested,
    /// The sender has finished downloading a segment.
    Have {
        /// Segment index.
        index: u32,
    },
    /// Several completions announced at once — the coalesced form of
    /// [`Message::Have`] used by the event-driven control plane. Indices
    /// are sorted ascending and deduplicated on the wire.
    HaveBundle {
        /// Completed segment indices, ascending.
        indices: Vec<u32>,
    },
    /// Full availability map of the sender (sent after handshake).
    Bitfield(crate::Bitfield),
    /// Ask the receiver to upload one segment.
    Request {
        /// Segment index.
        index: u32,
    },
    /// Withdraw an earlier request.
    Cancel {
        /// Segment index.
        index: u32,
    },
    /// Announces an imminent bulk transfer of a segment's bytes.
    SegmentHeader {
        /// Segment index.
        index: u32,
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// Ask the seeder for the video manifest.
    ManifestRequest,
    /// The manifest playlist, as `m3u8` text.
    ManifestData {
        /// UTF-8 playlist body.
        payload: Bytes,
    },
    /// Polite departure notice before going offline.
    Goodbye,
    /// Ask the tracker (the seeder doubles as one) for peers in the swarm.
    PeerListRequest,
    /// The tracker's answer: node addresses of known swarm members.
    PeerList {
        /// Opaque per-network node addresses.
        peers: Vec<u32>,
    },
}

impl Message {
    /// The wire type byte for this message.
    pub fn wire_type(&self) -> u8 {
        match self {
            Message::NotInterested => 3,
            Message::Have { .. } => 4,
            Message::Bitfield(_) => 5,
            Message::Request { .. } => 6,
            Message::SegmentHeader { .. } => 7,
            Message::Cancel { .. } => 8,
            Message::ManifestRequest => 9,
            Message::ManifestData { .. } => 10,
            Message::Goodbye => 11,
            Message::PeerListRequest => 13,
            Message::PeerList { .. } => 14,
            Message::HaveBundle { .. } => 15,
            Message::Handshake { .. } => 20,
        }
    }

    /// A short name for logs.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Handshake { .. } => "handshake",
            Message::NotInterested => "not-interested",
            Message::Have { .. } => "have",
            Message::HaveBundle { .. } => "have-bundle",
            Message::Bitfield(_) => "bitfield",
            Message::Request { .. } => "request",
            Message::Cancel { .. } => "cancel",
            Message::SegmentHeader { .. } => "segment-header",
            Message::ManifestRequest => "manifest-request",
            Message::ManifestData { .. } => "manifest-data",
            Message::Goodbye => "goodbye",
            Message::PeerListRequest => "peer-list-request",
            Message::PeerList { .. } => "peer-list",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_types_are_distinct() {
        let msgs = [
            Message::NotInterested,
            Message::Have { index: 0 },
            Message::HaveBundle { indices: vec![0] },
            Message::Bitfield(crate::Bitfield::new(1)),
            Message::Request { index: 0 },
            Message::SegmentHeader { index: 0, bytes: 0 },
            Message::Cancel { index: 0 },
            Message::ManifestRequest,
            Message::ManifestData {
                payload: Bytes::new(),
            },
            Message::Goodbye,
            Message::PeerListRequest,
            Message::PeerList { peers: vec![] },
            Message::Handshake {
                peer_id: 0,
                info_hash: [0; 20],
                version: 1,
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for m in &msgs {
            let t = m.wire_type();
            assert!(seen.insert(t), "duplicate wire type {t} for {}", m.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Message::Request { index: 3 }.name(), "request");
    }
}
