//! The upload side shared by seeders, leechers, and CDN nodes: bounded
//! concurrent uploads plus a FIFO queue of the requests waiting for a
//! slot, like the per-peer service slots of a BitTorrent client.

use std::collections::VecDeque;

use splicecast_media::SegmentList;
use splicecast_netsim::{Ctx, FlowId, NodeId};
use splicecast_protocol::{EncodeBuf, Message};

/// A duplicate upload (second concurrent copy of the same segment) is
/// admitted only when the busiest link toward the requester is running
/// below this utilization.
const DUP_UTILIZATION_MAX: f64 = 0.6;

/// An accepted request: who asked for which segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Request {
    peer: NodeId,
    segment: u32,
}

/// Serves segment requests over bounded upload slots.
///
/// On `Request`, a free slot means immediate service (`SegmentHeader` +
/// bulk transfer); otherwise the request queues, and the requester is told
/// nothing. Slots are released on upload completion or failure,
/// immediately serving the next queued request.
#[derive(Debug)]
pub struct UploadSide {
    /// Concurrent uploads: a slot is free while `active_flows` is shorter.
    slots: usize,
    /// Requests waiting for a slot, oldest first.
    queue: VecDeque<Request>,
    /// The uploads in progress, at most `slots` of them in no particular
    /// order: every reader either walks them all (once per queued request
    /// a release looks at) or looks one flow up, and a scan of so few
    /// pairs costs less than hashing the key.
    active_flows: Vec<(FlowId, Request)>,
    /// Peers we have served before — the connection to them is kept alive,
    /// so further segments skip the TCP handshake. One bit per node index.
    warm_peers: Vec<u64>,
    /// Payload bytes of completed uploads.
    pub bytes_uploaded: u64,
    /// Scratch buffer for per-request frames (`SegmentHeader`).
    wire_buf: EncodeBuf,
}

impl UploadSide {
    /// Creates an upload side with the given slot count.
    ///
    /// # Panics
    ///
    /// Panics when `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "upload slots must be positive");
        UploadSide {
            slots,
            queue: VecDeque::new(),
            active_flows: Vec::with_capacity(slots),
            warm_peers: Vec::new(),
            bytes_uploaded: 0,
            wire_buf: EncodeBuf::new(),
        }
    }

    /// True when no active upload is already pushing `segment`.
    fn segment_idle(&self, segment: u32) -> bool {
        !self.active_flows.iter().any(|(_, r)| r.segment == segment)
    }

    /// Forgets an ended flow, returning its request when it was an upload
    /// of ours.
    fn take_flow(&mut self, flow: FlowId) -> Option<Request> {
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
        let request = Request {
            peer: from,
            segment: index,
        };
        // Duplicates are also admitted while the path to the requester has
        // spare capacity — at a fat link, pushing a second copy costs
        // nothing and halves the swarm's replication latency.
        if self.active_flows.len() < self.slots
            && (self.segment_idle(index) || ctx.path_utilization(from) < DUP_UTILIZATION_MAX)
        {
            self.serve(ctx, request, segments);
        } else {
            self.queue.push_back(request);
        }
    }

    /// Handles a `Cancel`: drops every queued request of `from` for
    /// `index` (a re-request after a timeout can queue the pair twice) and
    /// leaves the order of the rest untouched; an upload in progress is
    /// left to finish, as in BitTorrent. Two `Cancel`s in three arrive at
    /// a queue hundreds of entries long, so the queue is only *read* for
    /// matches and each one removed where it sits — no pass that rewrites
    /// every entry.
    pub fn on_cancel(&mut self, from: NodeId, index: u32) {
        let mut at = 0;
        while let Some(offset) = self
            .queue
            .range(at..)
            .position(|r| r.peer == from && r.segment == index)
        {
            at += offset;
            self.queue.remove(at);
        }
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

    /// Takes the queued request a freed slot serves next. Prefers requests
    /// for segments nobody is currently receiving (they grow the number of
    /// replicas); serves duplicates only to requesters whose path still
    /// has spare capacity.
    fn pop_serviceable(&mut self, ctx: &Ctx<'_>) -> Option<Request> {
        let active_flows = &self.active_flows;
        pop_first(
            &mut self.queue,
            |r| !active_flows.iter().any(|(_, a)| a.segment == r.segment),
            |r| ctx.path_utilization(r.peer) < DUP_UTILIZATION_MAX,
        )
    }

    fn release_and_continue(&mut self, ctx: &mut Ctx<'_>, segments: &SegmentList) {
        if let Some(next) = self.pop_serviceable(ctx) {
            self.serve(ctx, next, segments);
        }
    }

    fn serve(&mut self, ctx: &mut Ctx<'_>, request: Request, segments: &SegmentList) {
        // The requester may have gone offline while queued: skip down the
        // queue until a serviceable request or an empty queue.
        let mut current = Some(request);
        while let Some(req) = current {
            let bytes = segments[req.segment as usize].bytes;
            let header = Message::SegmentHeader {
                index: req.segment,
                bytes,
            };
            if ctx.send(req.peer, self.wire_buf.wire(&header)).is_ok() {
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
                    Err(_) => { /* fall through to the next request */ }
                }
            }
            current = self.pop_serviceable(ctx);
        }
    }
}

/// Removes and returns the first request `primary` admits, or failing
/// that the first `fallback` admits; the skipped ones keep their order.
fn pop_first(
    queue: &mut VecDeque<Request>,
    primary: impl FnMut(&Request) -> bool,
    fallback: impl FnMut(&Request) -> bool,
) -> Option<Request> {
    let at = queue
        .iter()
        .position(primary)
        .or_else(|| queue.iter().position(fallback))?;
    queue.remove(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use proptest::prelude::*;
    use splicecast_media::Segment;
    use splicecast_netsim::{
        star, LinkSpec, NodeBehavior, NodeEvent, NullBehavior, SimDuration, SimTime, Simulator,
    };
    use splicecast_protocol::{decode_single, encode_to_bytes};

    /// What a client saw: an upload to it starting (its `SegmentHeader`)
    /// or finishing. Clients are named `'a'`, `'b'`, … in script order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Seen {
        Start(char, u32),
        Done(char, u32),
    }

    type Log = Rc<RefCell<Vec<Seen>>>;

    /// An origin that is nothing but an upload side.
    struct Server {
        side: UploadSide,
        segments: SegmentList,
    }

    impl NodeBehavior for Server {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            match event {
                NodeEvent::Message { from, payload } => match decode_single(&payload) {
                    Ok(Message::Request { index }) => {
                        self.side.on_request(ctx, from, index, &self.segments, true);
                    }
                    Ok(Message::Cancel { index }) => self.side.on_cancel(from, index),
                    _ => {}
                },
                NodeEvent::UploadComplete { flow, .. } => {
                    assert!(self.side.on_upload_complete(ctx, flow, &self.segments));
                }
                NodeEvent::TransferFailed { flow, .. } => {
                    self.side.on_transfer_failed(ctx, flow, &self.segments);
                }
                _ => {}
            }
        }
    }

    /// Sends each scripted message to the server at its instant, in
    /// milliseconds, and logs the uploads it receives.
    struct Client {
        name: char,
        server: NodeId,
        script: Vec<(u64, Message)>,
        log: Log,
    }

    impl NodeBehavior for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (k, &(at, _)) in self.script.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(at), k as u64);
            }
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            let seen = match event {
                NodeEvent::Timer { token } => {
                    let message = &self.script[token as usize].1;
                    ctx.send(self.server, encode_to_bytes(message)).unwrap();
                    return;
                }
                NodeEvent::Message { payload, .. } => match decode_single(&payload) {
                    Ok(Message::SegmentHeader { index, .. }) => Seen::Start(self.name, index),
                    _ => return,
                },
                NodeEvent::TransferComplete { tag, .. } => Seen::Done(self.name, tag as u32),
                _ => return,
            };
            self.log.borrow_mut().push(seen);
        }
    }

    /// Runs a server of `slots` upload slots over segments of 400, 100,
    /// 600 and 100 kB on a 100 kB/s lossless star, with one client per
    /// script. Returns what the clients saw, in dispatch order.
    fn serve(slots: usize, scripts: &[&[(u64, Message)]]) -> Vec<Seen> {
        let segments = [400_000, 100_000, 600_000, 100_000].map(|bytes| Segment {
            first_frame: 0,
            frame_count: 1,
            bytes,
            overhead_bytes: 0,
        });
        let spec = LinkSpec::from_bytes_per_sec(100_000.0, SimDuration::from_millis(10), 0.0);
        let star = star(&vec![spec; scripts.len() + 1]);
        let server = star.leaves[0];
        let log = Log::default();
        let mut sim = Simulator::new(star.network, 7);
        sim.add_node(Box::new(NullBehavior));
        sim.add_node(Box::new(Server {
            side: UploadSide::new(slots),
            segments: SegmentList::new(segments.to_vec()),
        }));
        for (name, script) in ('a'..).zip(scripts) {
            sim.add_node(Box::new(Client {
                name,
                server,
                script: script.to_vec(),
                log: log.clone(),
            }));
        }
        sim.run_until_idle(SimTime::from_secs_f64(60.0));
        log.take()
    }

    fn at(log: &[Seen], seen: Seen) -> usize {
        log.iter()
            .position(|&s| s == seen)
            .unwrap_or_else(|| panic!("{seen:?} never happened in {log:?}"))
    }

    fn request(index: u32) -> Message {
        Message::Request { index }
    }

    /// With one slot, a second request waits for the first upload and is
    /// served the moment it completes.
    #[test]
    fn second_request_queues_until_the_first_upload_completes() {
        let log = serve(1, &[&[(0, request(0))], &[(10, request(1))]]);
        use Seen::*;
        assert_eq!(
            log,
            [Start('a', 0), Done('a', 0), Start('b', 1), Done('b', 1)]
        );
    }

    /// A request for a segment already being pushed queues although a
    /// slot is free (two seconds in, the path is busy with that very
    /// upload), while a later request for another segment takes the slot
    /// at once.
    #[test]
    fn duplicate_of_an_uploading_segment_queues_while_a_slot_is_free() {
        use Seen::*;
        let log = serve(
            2,
            &[
                &[(0, request(0))],
                &[(2000, request(0))],
                &[(2010, request(1))],
            ],
        );
        assert!(at(&log, Start('c', 1)) < at(&log, Done('a', 0)), "{log:?}");
        assert!(at(&log, Done('a', 0)) < at(&log, Start('b', 0)), "{log:?}");
    }

    /// A freed slot skips a queued request for a segment still being
    /// uploaded and serves a fresh one behind it first.
    #[test]
    fn release_prefers_a_fresh_segment() {
        use Seen::*;
        let log = serve(
            2,
            &[
                &[(0, request(1))],
                &[(20, request(2))],
                &[(30, request(3))],
                &[(10, request(2))],
            ],
        );
        assert!(at(&log, Done('a', 1)) < at(&log, Start('c', 3)), "{log:?}");
        assert!(at(&log, Start('c', 3)) < at(&log, Done('d', 2)), "{log:?}");
        assert!(at(&log, Done('d', 2)) < at(&log, Start('b', 2)), "{log:?}");
    }

    /// A re-request can queue the same `(peer, segment)` twice; one
    /// `Cancel` removes every copy and nothing else.
    #[test]
    fn cancel_removes_every_duplicate_and_nothing_else() {
        use Seen::*;
        let log = serve(
            1,
            &[
                &[(0, request(0))],
                &[
                    (10, request(1)),
                    (20, request(1)),
                    (40, request(3)),
                    (50, request(1)),
                    (60, Message::Cancel { index: 1 }),
                ],
                &[(30, request(2))],
            ],
        );
        assert_eq!(
            log,
            [
                Start('a', 0),
                Done('a', 0),
                Start('c', 2),
                Done('c', 2),
                Start('b', 3),
                Done('b', 3)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "upload slots must be positive")]
    fn zero_slots_panic() {
        UploadSide::new(0);
    }

    fn req(peer: usize, segment: u32) -> Request {
        Request {
            peer: NodeId::from_index(peer),
            segment,
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Queue(Request),
        /// Take the first request for `segment`, falling back to the
        /// first of `peer` (either may match nothing: both ranges run one
        /// past the ids).
        Pop {
            segment: u32,
            peer: usize,
        },
        Cancel(Request),
    }

    /// Four peers and four segments, so most pairs are queued more than
    /// once. Arms are drawn uniformly; a repeated arm is a weight.
    fn op() -> impl Strategy<Value = Op> {
        let request = || (0usize..4, 0u32..4).prop_map(|(peer, seg)| req(peer, seg));
        let pop = || (0u32..5, 0usize..5).prop_map(|(segment, peer)| Op::Pop { segment, peer });
        prop_oneof![
            request().prop_map(Op::Queue),
            request().prop_map(Op::Queue),
            request().prop_map(Op::Queue),
            pop(),
            pop(),
            request().prop_map(Op::Cancel),
            request().prop_map(Op::Cancel),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 2048 }))]

        /// The queue against a reference written out: a `VecDeque` whose
        /// pop is a search from the front and whose `Cancel` is a
        /// `retain` over every entry.
        #[test]
        fn every_step_matches_a_deque_with_retain(ops in prop::collection::vec(op(), 1..300)) {
            let mut real = UploadSide::new(1);
            let mut model = VecDeque::new();
            for op in ops {
                match op {
                    Op::Queue(request) => {
                        real.queue.push_back(request);
                        model.push_back(request);
                    }
                    Op::Pop { segment, peer } => {
                        let primary = |r: &Request| r.segment == segment;
                        let fallback = |r: &Request| r.peer == NodeId::from_index(peer);
                        let at = model
                            .iter()
                            .position(primary)
                            .or_else(|| model.iter().position(fallback));
                        let next = at.and_then(|at| model.remove(at));
                        prop_assert_eq!(pop_first(&mut real.queue, primary, fallback), next);
                    }
                    Op::Cancel(request) => {
                        model.retain(|r| *r != request);
                        real.on_cancel(request.peer, request.segment);
                    }
                }
                prop_assert_eq!(&real.queue, &model);
            }
        }
    }
}
