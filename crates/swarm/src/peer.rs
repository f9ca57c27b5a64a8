//! A node's upload queue: bounded concurrent uploads and the requests
//! waiting for a slot.

use std::collections::VecDeque;

use splicecast_netsim::NodeId;

/// An accepted upload: who asked for which segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadRequest {
    /// The requesting peer.
    pub peer: NodeId,
    /// The requested segment.
    pub segment: u32,
}

/// Manages a node's upload side: a bounded number of concurrent uploads
/// plus a FIFO queue of waiting requests, like the per-peer service slots
/// of a BitTorrent client.
#[derive(Debug)]
pub struct UploadManager {
    max_active: usize,
    active: usize,
    queue: VecDeque<UploadRequest>,
}

impl UploadManager {
    /// Creates a manager with the given concurrency limit.
    ///
    /// # Panics
    ///
    /// Panics when `max_active` is zero.
    pub fn new(max_active: usize) -> Self {
        assert!(max_active > 0, "upload slots must be positive");
        UploadManager {
            max_active,
            active: 0,
            queue: VecDeque::new(),
        }
    }

    /// Offers a request. Returns `true` when it can start right away (a
    /// slot was claimed and `can_serve` allowed it); otherwise it is
    /// queued. `can_serve` lets the caller veto requests that must wait
    /// even though a slot is free — e.g. super-seeding style deduplication
    /// (don't push the same segment to two peers at once).
    pub fn offer<F>(&mut self, request: UploadRequest, mut can_serve: F) -> bool
    where
        F: FnMut(&UploadRequest) -> bool,
    {
        if self.active < self.max_active && can_serve(&request) {
            self.active += 1;
            true
        } else {
            self.queue.push_back(request);
            false
        }
    }

    /// Releases a slot after an upload ends (complete or failed) and pops
    /// a queued request, which immediately occupies the slot: the first
    /// matching `primary`, or if none does, the first matching `fallback`.
    /// Skipped requests keep their queue order.
    ///
    /// # Panics
    ///
    /// Panics when no upload is active.
    pub fn release_preferring<F, G>(&mut self, primary: F, fallback: G) -> Option<UploadRequest>
    where
        F: FnMut(&UploadRequest) -> bool,
        G: FnMut(&UploadRequest) -> bool,
    {
        assert!(self.active > 0, "release without an active upload");
        self.active -= 1;
        let idx = self
            .queue
            .iter()
            .position(primary)
            .or_else(|| self.queue.iter().position(fallback))?;
        let next = self.queue.remove(idx).expect("index in range");
        self.active += 1;
        Some(next)
    }

    /// Handles a `Cancel`: removes every queued request of `peer` for
    /// `segment` (a re-request after a timeout can queue the pair twice)
    /// and leaves the order of the rest untouched. Two `Cancel`s in three
    /// arrive at a queue hundreds of entries long, so the queue is only
    /// *read* for matches and each one removed where it sits — no pass
    /// that rewrites every entry.
    pub fn cancel(&mut self, peer: NodeId, segment: u32) {
        let mut from = 0;
        while let Some(offset) = self
            .queue
            .range(from..)
            .position(|r| r.peer == peer && r.segment == segment)
        {
            from += offset;
            self.queue.remove(from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(peer: usize, seg: u32) -> UploadRequest {
        UploadRequest {
            peer: NodeId::from_index(peer),
            segment: seg,
        }
    }

    fn any(_: &UploadRequest) -> bool {
        true
    }

    fn none(_: &UploadRequest) -> bool {
        false
    }

    #[test]
    fn slots_then_queue() {
        let mut m = UploadManager::new(2);
        assert!(m.offer(req(1, 0), any));
        assert!(m.offer(req(2, 1), any));
        assert!(!m.offer(req(3, 2), any));
        assert_eq!(m.active, 2);
        assert_eq!(m.queue.len(), 1);
    }

    #[test]
    fn release_pops_fifo() {
        let mut m = UploadManager::new(1);
        assert!(m.offer(req(1, 0), any));
        assert!(!m.offer(req(2, 1), any));
        assert!(!m.offer(req(3, 2), any));
        assert_eq!(m.release_preferring(any, none), Some(req(2, 1)));
        assert_eq!(m.active, 1, "popped request re-occupies the slot");
        assert_eq!(m.release_preferring(any, none), Some(req(3, 2)));
        assert_eq!(m.release_preferring(any, none), None);
        assert_eq!(m.active, 0);
    }

    #[test]
    fn offer_veto_queues_despite_free_slot() {
        let mut m = UploadManager::new(4);
        assert!(!m.offer(req(1, 7), |_| false));
        assert_eq!(m.active, 0);
        assert_eq!(m.queue.len(), 1);
    }

    #[test]
    fn release_skips_vetoed_requests_in_order() {
        let mut m = UploadManager::new(1);
        assert!(m.offer(req(1, 0), any));
        m.offer(req(2, 5), any);
        m.offer(req(3, 6), any);
        // Veto segment 5: release should pop segment 6 and keep 5 queued.
        assert_eq!(
            m.release_preferring(|r| r.segment != 5, none),
            Some(req(3, 6))
        );
        assert_eq!(m.queue.len(), 1);
        assert_eq!(m.release_preferring(any, none), Some(req(2, 5)));
    }

    #[test]
    fn release_with_all_vetoed_frees_the_slot() {
        let mut m = UploadManager::new(1);
        assert!(m.offer(req(1, 0), any));
        m.offer(req(2, 5), any);
        assert_eq!(m.release_preferring(none, none), None);
        assert_eq!(m.active, 0);
        assert_eq!(m.queue.len(), 1);
    }

    /// A re-request can queue the same `(peer, segment)` twice; one
    /// `Cancel` removes every copy and nothing else, in place.
    #[test]
    fn cancel_removes_every_duplicate_and_nothing_else() {
        let mut m = UploadManager::new(1);
        m.offer(req(9, 9), any); // takes the slot
        let queued = [
            req(2, 5),
            req(1, 5),
            req(2, 5),
            req(2, 6),
            req(3, 5),
            req(2, 5),
        ];
        for r in queued {
            assert!(!m.offer(r, any));
        }
        m.cancel(NodeId::from_index(2), 5);
        let left: Vec<_> = m.queue.iter().copied().collect();
        assert_eq!(left, [req(1, 5), req(2, 6), req(3, 5)]);
        assert_eq!(m.active, 1, "an upload in progress is left to finish");
        m.cancel(NodeId::from_index(2), 5); // nothing queued: a no-op
        m.cancel(NodeId::from_index(7), 0);
        assert_eq!(m.queue.len(), 3);
    }

    /// A reference `UploadManager`, written out: a `VecDeque` whose
    /// `Cancel` is a `retain` over every entry.
    struct Model {
        max_active: usize,
        active: usize,
        queue: VecDeque<UploadRequest>,
    }

    #[derive(Debug, Clone)]
    enum Op {
        Offer {
            request: UploadRequest,
            admit: bool,
        },
        /// Prefer requests for `segment`, fall back to requests of `peer`
        /// (either may match nothing: both ranges run one past the ids).
        Release {
            segment: u32,
            peer: usize,
        },
        Cancel(UploadRequest),
    }

    /// Four peers and four segments, so most pairs are queued more than
    /// once. Arms are drawn uniformly; a repeated arm is a weight.
    fn op() -> impl Strategy<Value = Op> {
        let request = || (0usize..4, 0u32..4).prop_map(|(peer, seg)| req(peer, seg));
        let offer = || {
            // Three offers in four are admitted when a slot is free.
            (request(), 0u32..4).prop_map(|(request, coin)| Op::Offer {
                request,
                admit: coin != 0,
            })
        };
        let release =
            || (0u32..5, 0usize..5).prop_map(|(segment, peer)| Op::Release { segment, peer });
        prop_oneof![
            offer(),
            offer(),
            offer(),
            release(),
            release(),
            request().prop_map(Op::Cancel),
            request().prop_map(Op::Cancel),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 2048 }))]

        #[test]
        fn every_step_matches_a_deque_with_retain(
            slots in 1usize..4,
            ops in prop::collection::vec(op(), 1..300),
        ) {
            let mut real = UploadManager::new(slots);
            let mut model = Model { max_active: slots, active: 0, queue: VecDeque::new() };
            for op in ops {
                match op {
                    Op::Offer { request, admit } => {
                        let started = model.active < model.max_active && admit;
                        if started {
                            model.active += 1;
                        } else {
                            model.queue.push_back(request);
                        }
                        prop_assert_eq!(real.offer(request, |_| admit), started);
                    }
                    // Releasing with no upload active is a panic on both
                    // sides (`release_when_idle_panics`).
                    Op::Release { .. } if model.active == 0 => {}
                    Op::Release { segment, peer } => {
                        let primary = |r: &UploadRequest| r.segment == segment;
                        let fallback = |r: &UploadRequest| r.peer == NodeId::from_index(peer);
                        let at = model
                            .queue
                            .iter()
                            .position(primary)
                            .or_else(|| model.queue.iter().position(fallback));
                        let next = at.and_then(|at| model.queue.remove(at));
                        model.active -= usize::from(next.is_none());
                        prop_assert_eq!(real.release_preferring(primary, fallback), next);
                    }
                    Op::Cancel(request) => {
                        model.queue.retain(|r| *r != request);
                        real.cancel(request.peer, request.segment);
                    }
                }
                prop_assert_eq!(real.active, model.active);
                prop_assert_eq!(real.queue.len(), model.queue.len());
                prop_assert_eq!(&real.queue, &model.queue);
            }
        }
    }

    #[test]
    #[should_panic(expected = "release without an active upload")]
    fn release_when_idle_panics() {
        UploadManager::new(1).release_preferring(any, none);
    }
}
