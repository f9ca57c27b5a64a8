//! The seeder: holds the whole video and serves manifest + segments.

use std::sync::Arc;

use bytes::Bytes;

use splicecast_media::{Manifest, SegmentList};
use splicecast_netsim::{Ctx, NodeBehavior, NodeEvent, NodeId};
use splicecast_protocol::{decode_single, Bitfield, EncodeBuf, Message, PROTOCOL_VERSION};

use crate::upload::UploadSide;

/// Derives the 20-byte swarm identifier from the manifest text (stands in
/// for the SHA-1 infohash of BitTorrent).
pub fn info_hash_of(manifest_text: &str) -> [u8; 20] {
    let mut hash = [0u8; 20];
    let mut state: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    for (i, byte) in manifest_text.bytes().enumerate() {
        state ^= u64::from(byte);
        state = state.wrapping_mul(0x1000_0000_01b3);
        hash[i % 20] ^= (state >> 24) as u8;
    }
    // Spread the final state across the tail so short inputs still fill it.
    for (i, slot) in hash.iter_mut().enumerate() {
        *slot ^= (state.rotate_left((i as u32 * 7) % 64) & 0xFF) as u8;
    }
    hash
}

/// The origin node: starts with every segment, answers manifest requests,
/// handshakes, and segment requests. Also used as the CDN node in hybrid
/// mode (a CDN is an origin with a fatter pipe) and as the origin of the
/// adaptive-bitrate baseline ([`run_abr`](crate::run_abr)).
#[derive(Debug)]
pub struct SeederNode {
    segments: Arc<SegmentList>,
    manifest_wire: Bytes,
    info_hash: [u8; 20],
    peer_id: u64,
    holdings: Bitfield,
    uploads: UploadSide,
    /// Scratch buffer for outgoing frames (reused across sends).
    wire_buf: EncodeBuf,
    /// Swarm members in join order — the seeder doubles as the tracker
    /// (the paper: "each peer contacts the seeder and gets different
    /// information about the video and the swarm").
    members: Vec<NodeId>,
}

impl SeederNode {
    /// Creates a seeder for the given splice. Accepts either an owned
    /// [`SegmentList`] or a pre-shared `Arc<SegmentList>`.
    pub fn new(segments: impl Into<Arc<SegmentList>>, peer_id: u64, upload_slots: usize) -> Self {
        let segments = segments.into();
        let manifest = Manifest::from_segments("video", &segments);
        let text = manifest.to_m3u8();
        let info_hash = info_hash_of(&text);
        let holdings = Bitfield::full(segments.len() as u32);
        SeederNode {
            segments,
            manifest_wire: Bytes::from(text.into_bytes()),
            info_hash,
            peer_id,
            holdings,
            uploads: UploadSide::new(upload_slots),
            wire_buf: EncodeBuf::new(),
            members: Vec::new(),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        let Ok(message) = decode_single(payload) else {
            return; // a malformed peer is ignored, not crashed on
        };
        match message {
            Message::ManifestRequest => {
                let reply = Message::ManifestData {
                    payload: self.manifest_wire.clone(),
                };
                let _ = ctx.send(from, self.wire_buf.wire(&reply));
            }
            Message::Handshake { .. } => {
                if !self.members.contains(&from) {
                    self.members.push(from);
                }
                let hs = Message::Handshake {
                    peer_id: self.peer_id,
                    info_hash: self.info_hash,
                    version: PROTOCOL_VERSION,
                };
                let _ = ctx.send(from, self.wire_buf.wire(&hs));
                let bitfield = Message::Bitfield(self.holdings.clone());
                let _ = ctx.send(from, self.wire_buf.wire(&bitfield));
            }
            Message::PeerListRequest => {
                let peers: Vec<u32> = self
                    .members
                    .iter()
                    .filter(|&&p| p != from && ctx.is_online(p))
                    .take(64)
                    .map(|p| p.index() as u32)
                    .collect();
                let _ = ctx.send(from, self.wire_buf.wire(&Message::PeerList { peers }));
            }
            Message::Request { index } => {
                self.uploads
                    .on_request(ctx, from, index, &self.segments, true);
            }
            Message::Cancel { index } => self.uploads.on_cancel(from, index),
            // A `NotInterested` needs no reaction from an origin that
            // announces nothing, and neither does a `Goodbye`: the tracker
            // answers with online members only, and a request queued by a
            // peer that left is skipped when its turn comes.
            _ => {}
        }
    }
}

impl NodeBehavior for SeederNode {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        match event {
            NodeEvent::Message { from, payload } => self.on_message(ctx, from, &payload),
            NodeEvent::UploadComplete { flow, .. } => {
                self.uploads.on_upload_complete(ctx, flow, &self.segments);
            }
            NodeEvent::TransferFailed { flow, .. } => {
                self.uploads.on_transfer_failed(ctx, flow, &self.segments);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splicecast_media::{DurationSplicer, Splicer, Video};

    #[test]
    fn info_hash_is_stable_and_content_sensitive() {
        let a = info_hash_of("#EXTM3U\nseg0\n");
        let b = info_hash_of("#EXTM3U\nseg0\n");
        let c = info_hash_of("#EXTM3U\nseg1\n");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, [0u8; 20]);
    }

    #[test]
    fn seeder_holds_everything() {
        let v = Video::builder().duration_secs(8.0).seed(1).build();
        let segs = DurationSplicer::new(2.0).splice(&v);
        let seeder = SeederNode::new(segs, 99, 4);
        assert!(seeder.holdings.is_complete());
        assert_eq!(seeder.uploads.bytes_uploaded, 0);
    }
}
