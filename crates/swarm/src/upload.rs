//! The upload side shared by seeders, leechers, and CDN nodes.

use bytes::Bytes;
use splicecast_media::SegmentList;
use splicecast_netsim::{Ctx, FlowId, NodeId};
use splicecast_protocol::{encode_to_bytes, EncodeBuf, Message};

use crate::peer::{UploadManager, UploadRequest};

/// A duplicate upload (second concurrent copy of the same segment) is
/// admitted only when the busiest link toward the requester is running
/// below this utilization.
const DUP_UTILIZATION_MAX: f64 = 0.6;

/// Serves segment requests over bounded upload slots.
///
/// On `Request`, a free slot means immediate service (`Unchoke` +
/// `SegmentHeader` + bulk transfer); otherwise the request queues and the
/// requester is told `Choke`. Slots are released on upload completion or
/// failure, immediately serving the next queued request.
#[derive(Debug)]
pub struct UploadSide {
    mgr: UploadManager,
    /// The uploads in progress, at most `slots` of them in no particular
    /// order: every reader either walks them all (once per queued request
    /// a release looks at) or looks one flow up, and a scan of so few
    /// pairs costs less than hashing the key.
    active_flows: Vec<(FlowId, UploadRequest)>,
    /// Peers we have served before — the connection to them is kept alive,
    /// so further segments skip the TCP handshake. One bit per node index.
    warm_peers: Vec<u64>,
    /// Payload bytes of completed uploads.
    pub bytes_uploaded: u64,
    /// Scratch buffer for per-request frames (`SegmentHeader`).
    wire_buf: EncodeBuf,
    /// `Choke`/`Unchoke` never change: encoded once, cloned per send
    /// (a `Bytes` clone is a reference-count bump).
    choke_wire: Bytes,
    unchoke_wire: Bytes,
}

impl UploadSide {
    /// Creates an upload side with the given slot count.
    pub fn new(slots: usize) -> Self {
        UploadSide {
            mgr: UploadManager::new(slots),
            active_flows: Vec::with_capacity(slots),
            warm_peers: Vec::new(),
            bytes_uploaded: 0,
            wire_buf: EncodeBuf::new(),
            choke_wire: encode_to_bytes(&Message::Choke),
            unchoke_wire: encode_to_bytes(&Message::Unchoke),
        }
    }

    /// True when no active upload is already pushing `segment`.
    fn segment_idle(&self, segment: u32) -> bool {
        !self.active_flows.iter().any(|(_, r)| r.segment == segment)
    }

    /// Forgets an ended flow, returning its request when it was an upload
    /// of ours.
    fn take_flow(&mut self, flow: FlowId) -> Option<UploadRequest> {
        let at = self.active_flows.iter().position(|&(f, _)| f == flow)?;
        Some(self.active_flows.swap_remove(at).1)
    }

    fn is_warm(&self, peer: NodeId) -> bool {
        let (word, bit) = (peer.index() / 64, 1u64 << (peer.index() % 64));
        self.warm_peers.get(word).is_some_and(|w| w & bit != 0)
    }

    fn set_warm(&mut self, peer: NodeId) {
        let (word, bit) = (peer.index() / 64, 1u64 << (peer.index() % 64));
        if self.warm_peers.len() <= word {
            self.warm_peers.resize(word + 1, 0);
        }
        self.warm_peers[word] |= bit;
    }

    /// Handles an incoming `Request`. `have` guards against requests for
    /// segments this node does not hold (ignored — the requester's timeout
    /// path recovers).
    ///
    /// Requests for a segment that is *already being uploaded* queue even
    /// when slots are free (super-seeding style deduplication): pushing
    /// two copies of the same bytes halves the rate of both, while the
    /// second requester will shortly have a fresh replica to fetch from.
    pub fn on_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        index: u32,
        segments: &SegmentList,
        have: bool,
    ) {
        if !have || index as usize >= segments.len() {
            return;
        }
        let request = UploadRequest {
            peer: from,
            segment: index,
        };
        // Duplicates are also admitted while the path to the requester has
        // spare capacity — at a fat link, pushing a second copy costs
        // nothing and halves the swarm's replication latency.
        let admissible =
            self.segment_idle(index) || ctx.path_utilization(from) < DUP_UTILIZATION_MAX;
        if self.mgr.offer(request, |_| admissible) {
            self.serve(ctx, request, segments);
        } else {
            let _ = ctx.send(from, self.choke_wire.clone());
        }
    }

    /// Handles a `Cancel`: drops matching queued requests (an in-flight
    /// upload is left to finish, as in BitTorrent).
    pub fn on_cancel(&mut self, from: NodeId, index: u32) {
        self.mgr.cancel(from, index);
    }

    /// Handles `UploadComplete`. Returns `true` when the flow was one of
    /// ours (an upload), after releasing the slot and serving the queue.
    pub fn on_upload_complete(
        &mut self,
        ctx: &mut Ctx<'_>,
        flow: FlowId,
        segments: &SegmentList,
    ) -> bool {
        let Some(request) = self.take_flow(flow) else {
            return false;
        };
        self.bytes_uploaded += segments[request.segment as usize].bytes;
        self.release_and_continue(ctx, segments);
        true
    }

    /// Handles `TransferFailed` for the upload side. Returns `true` when
    /// the failed flow was one of our uploads.
    pub fn on_transfer_failed(
        &mut self,
        ctx: &mut Ctx<'_>,
        flow: FlowId,
        segments: &SegmentList,
    ) -> bool {
        if self.take_flow(flow).is_none() {
            return false;
        }
        self.release_and_continue(ctx, segments);
        true
    }

    fn pop_serviceable(&mut self, ctx: &mut Ctx<'_>) -> Option<UploadRequest> {
        // Prefer requests for segments nobody is currently receiving (they
        // grow the number of replicas); serve duplicates only to requesters
        // whose path still has spare capacity.
        let active_flows = &self.active_flows;
        self.mgr.release_preferring(
            |r| !active_flows.iter().any(|(_, a)| a.segment == r.segment),
            |r| ctx.path_utilization(r.peer) < DUP_UTILIZATION_MAX,
        )
    }

    fn release_and_continue(&mut self, ctx: &mut Ctx<'_>, segments: &SegmentList) {
        if let Some(next) = self.pop_serviceable(ctx) {
            self.serve(ctx, next, segments);
        }
    }

    fn serve(&mut self, ctx: &mut Ctx<'_>, request: UploadRequest, segments: &SegmentList) {
        // The requester may have gone offline while queued: skip down the
        // queue until a serviceable request or an empty queue.
        let mut current = Some(request);
        while let Some(req) = current {
            let bytes = segments[req.segment as usize].bytes;
            let header = Message::SegmentHeader {
                index: req.segment,
                bytes,
            };
            let reachable = ctx.send(req.peer, self.unchoke_wire.clone()).is_ok()
                && ctx.send(req.peer, self.wire_buf.wire(&header)).is_ok();
            if reachable {
                let started = if self.is_warm(req.peer) {
                    ctx.start_transfer_warm(req.peer, bytes, u64::from(req.segment))
                } else {
                    ctx.start_transfer(req.peer, bytes, u64::from(req.segment))
                };
                match started {
                    Ok(flow) => {
                        self.set_warm(req.peer);
                        self.active_flows.push((flow, req));
                        return;
                    }
                    Err(_) => { /* fall through to release */ }
                }
            }
            current = self.pop_serviceable(ctx);
        }
    }
}
