//! The discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;

use crate::id::{DirLinkId, NodeId};
use crate::node::NodeEvent;
use crate::time::SimTime;

/// Everything that can be scheduled on the simulator clock.
#[derive(Debug)]
pub(crate) enum Scheduled {
    /// Deliver an application-visible event to a node.
    Node { target: NodeId, event: NodeEvent },
    /// Deliver one control message to a run of receivers that share a
    /// delivery instant, in send order (see [`EventQueue::push_message`]).
    /// `members` names the receiver list in the queue's pool.
    Multicast {
        from: NodeId,
        payload: Bytes,
        members: u32,
    },
    /// Advance one RTT round of a TCP flow (round model), or activate a
    /// freshly-handshaken flow (fluid model).
    FlowRound { flow: u64 },
    /// Complete a fluid-model flow, if this is its live completion event
    /// (the one at the flow's `armed_at`) and the flow is due; a live pop
    /// that comes early, because the rate dropped since, re-arms itself.
    FlowDone { flow: u64 },
    /// Apply a scheduled link-capacity change (bandwidth modulation).
    Capacity { dir: DirLinkId, capacity_bps: f64 },
    /// Flip a node's online flag at a scheduled time (fault-injected outage
    /// windows). Going offline fails the node's flows exactly like
    /// [`crate::Ctx::go_offline`]; coming back online only restores the flag.
    SetOnline { node: NodeId, online: bool },
}

// Every pending entry is resident, so its size is the queue's memory: a
// multicast keeps its receivers in the pooled lists, not inline. With an
// inline `Vec` of receivers an entry is 64 bytes, and the benchmark's
// `swarm_thin` workload peaks 3.1 % higher (8.91 -> 9.19 MB, median of
// five runs each on a 2-core x86-64 host; the benchmark's bound is 5 %).
const _: () = assert!(std::mem::size_of::<Scheduled>() == 48);

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// The heap holds one `u128` key per entry — see [`key`] — so a sift step
/// is a single integer compare and a 16-byte move; ties in time break by
/// insertion order (`seq`), making runs deterministic. The payloads sit in
/// a slab indexed by the key's `slot` bits and never move.
///
/// A [`Scheduled::Multicast`] to `n` receivers stands for the `n` pushes
/// in a row that one send per receiver makes. Their keys `(t, s … s+n−1)`
/// would be consecutive, and every later push takes a larger `seq`, so
/// nothing could pop between them: one key, whose pop dispatches the
/// members in order, pops exactly as they would.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
    /// Payload per slot; `None` marks a free slot.
    payloads: Vec<Option<Scheduled>>,
    /// Freed slot indices, reused LIFO.
    free: Vec<u32>,
    /// Receiver lists of pending multicasts. A freed list keeps its
    /// capacity, so a steady run allocates none.
    lists: Vec<Vec<NodeId>>,
    /// Freed list indices, reused LIFO.
    free_lists: Vec<u32>,
    /// Pending deliveries: a multicast counts its members.
    pending: usize,
    seq: u64,
}

/// Bits of a key that name the payload slot: at most 2²⁴ pending entries.
const SLOT_BITS: u32 = 24;
/// One past the largest sequence number a key can carry (40 bits).
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// Packs `time_µs << 64 | seq << 24 | slot`: integer order on keys is
/// `(time, seq)` order, and `seq` is unique among live keys, so the slot
/// bits never decide a comparison. A slot that does not fit its 24 bits
/// panics rather than spill into `seq` and misorder the run.
fn key(time: SimTime, seq: u64, slot: u32) -> u128 {
    assert!(
        slot >> SLOT_BITS == 0,
        "event queue: more than 2^{SLOT_BITS} events pending at once"
    );
    debug_assert!(seq < SEQ_LIMIT);
    u128::from(time.as_micros()) << 64 | u128::from(seq) << SLOT_BITS | u128::from(slot)
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Queues one delivery (anything but a multicast, which
    /// [`Self::push_message`] builds).
    pub fn push(&mut self, time: SimTime, what: Scheduled) {
        debug_assert!(!matches!(what, Scheduled::Multicast { .. }));
        self.push_entry(time, what, 1);
    }

    /// Queues the control message `payload` from `from` to each of
    /// `targets`, in order, all at `time`: one entry, ordered exactly as
    /// `targets.len()` pushes of a [`Scheduled::Node`] in a row.
    pub fn push_message(
        &mut self,
        time: SimTime,
        from: NodeId,
        payload: &Bytes,
        targets: &[NodeId],
    ) {
        let what = match *targets {
            [target] => Scheduled::Node {
                target,
                event: NodeEvent::Message {
                    from,
                    payload: payload.clone(),
                },
            },
            _ => {
                debug_assert!(!targets.is_empty());
                let members = match self.free_lists.pop() {
                    Some(m) => m,
                    None => {
                        self.lists.push(Vec::new());
                        (self.lists.len() - 1) as u32
                    }
                };
                self.lists[members as usize].extend_from_slice(targets);
                Scheduled::Multicast {
                    from,
                    payload: payload.clone(),
                    members,
                }
            }
        };
        self.push_entry(time, what, targets.len());
    }

    fn push_entry(&mut self, time: SimTime, what: Scheduled, deliveries: usize) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.payloads.push(None);
                (self.payloads.len() - 1) as u32
            }
        };
        self.payloads[slot as usize] = Some(what);
        if self.seq == SEQ_LIMIT {
            self.renumber();
        }
        self.heap.push(Reverse(key(time, self.seq, slot)));
        self.seq += 1;
        self.pending += deliveries;
    }

    /// Reassigns the live keys the sequence numbers `0..len` in pop order,
    /// once every 2⁴⁰ pushes: relative order is unchanged and `seq` has
    /// room again (fewer than 2²⁴ keys are live).
    fn renumber(&mut self) {
        const SEQ_MASK: u128 = ((SEQ_LIMIT - 1) as u128) << SLOT_BITS;
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.sort_unstable_by_key(|&Reverse(k)| k);
        for (seq, Reverse(k)) in keys.iter_mut().enumerate() {
            *k = *k & !SEQ_MASK | (seq as u128) << SLOT_BITS;
        }
        self.seq = keys.len() as u64;
        self.heap = keys.into();
    }

    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(k)| time_of(k))
    }

    /// Pops the next entry. A popped multicast's receivers are read with
    /// [`Self::take_members`] and handed back with [`Self::recycle_members`].
    pub fn pop(&mut self) -> Option<(SimTime, Scheduled)> {
        let Reverse(k) = self.heap.pop()?;
        let slot = k as usize & ((1 << SLOT_BITS) - 1);
        let what = self.payloads[slot]
            .take()
            .expect("heap key without payload");
        self.free.push(slot as u32);
        self.pending -= match what {
            Scheduled::Multicast { members, .. } => self.lists[members as usize].len(),
            _ => 1,
        };
        Some((time_of(k), what))
    }

    /// The receivers of a popped multicast, in send order.
    pub fn take_members(&mut self, members: u32) -> Vec<NodeId> {
        std::mem::take(&mut self.lists[members as usize])
    }

    /// Returns a popped multicast's receiver list to the pool.
    pub fn recycle_members(&mut self, members: u32, mut list: Vec<NodeId>) {
        list.clear();
        self.lists[members as usize] = list;
        self.free_lists.push(members);
    }

    /// Pending deliveries, a multicast counting its members.
    pub fn len(&self) -> usize {
        self.pending
    }
}

fn time_of(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn timer(token: u64) -> Scheduled {
        Scheduled::Node {
            target: NodeId::from_index(0),
            event: NodeEvent::Timer { token },
        }
    }

    fn token_of(s: Scheduled) -> u64 {
        match s {
            Scheduled::Node {
                event: NodeEvent::Timer { token },
                ..
            } => token,
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), timer(3));
        q.push(SimTime::from_micros(10), timer(1));
        q.push(SimTime::from_micros(20), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, s)| token_of(s))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.push(SimTime::from_micros(5), timer(token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, s)| token_of(s))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn next_time_peeks_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(SimTime::from_micros(42), timer(0));
        assert_eq!(q.next_time(), Some(SimTime::from_micros(42)));
        assert_eq!(q.len(), 1);
    }

    /// An [`EventQueue`] checked against the definition of its order: a
    /// `Vec` of `(time, push order)` sorted by exactly that pair.
    #[derive(Default)]
    struct Checked {
        queue: EventQueue,
        /// Pending events, latest first once sorted, so the next one due
        /// is at the back.
        model: Vec<(SimTime, u64)>,
        sorted: bool,
        pushed: u64,
        /// Time of the last event popped: the simulation clock.
        now: SimTime,
    }

    impl Checked {
        fn push(&mut self, time: SimTime) {
            self.queue.push(time, timer(self.pushed));
            self.model.push((time, self.pushed));
            self.sorted = false;
            self.pushed += 1;
        }

        /// Pushes one message to `count` receivers at `time`; the model
        /// holds `count` separate events, and a receiver's index is its
        /// push order.
        fn push_group(&mut self, time: SimTime, count: u32) {
            let targets: Vec<NodeId> = (0..u64::from(count))
                .map(|k| NodeId::from_index((self.pushed + k) as usize))
                .collect();
            let from = NodeId::from_index(0);
            self.queue.push_message(time, from, &Bytes::new(), &targets);
            for target in targets {
                self.model.push((time, target.index() as u64));
            }
            self.sorted = false;
            self.pushed += u64::from(count);
        }

        /// Pops one entry and compares each of its deliveries with the
        /// model in turn; `false` when empty.
        fn pop(&mut self) -> bool {
            if !self.sorted {
                // Stable merge sort: one pass over an already-sorted prefix.
                self.model.sort_by_key(|&entry| Reverse(entry));
                self.sorted = true;
            }
            let next = self.model.last().map(|&(time, _)| time);
            assert_eq!(self.queue.next_time(), next);
            let Some((time, what)) = self.queue.pop() else {
                assert_eq!(self.model.pop(), None);
                return false;
            };
            let tokens = match what {
                Scheduled::Multicast { members, .. } => {
                    let list = self.queue.take_members(members);
                    let tokens: Vec<u64> = list.iter().map(|n| n.index() as u64).collect();
                    self.queue.recycle_members(members, list);
                    tokens
                }
                // A group of one is a plain message.
                Scheduled::Node {
                    target,
                    event: NodeEvent::Message { .. },
                } => vec![target.index() as u64],
                other => vec![token_of(other)],
            };
            for token in tokens {
                assert_eq!(Some((time, token)), self.model.pop());
            }
            assert_eq!(self.queue.len(), self.model.len());
            self.now = time;
            true
        }

        fn drain(&mut self) {
            while self.pop() {}
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push at the clock: runs behind everything already due now.
        PushNow,
        /// Push this many microseconds before the clock.
        PushPast(u64),
        PushAt(u64),
        /// Push this many events at one instant.
        Burst {
            at: u64,
            count: u32,
        },
        /// Push one message to this many receivers at the clock.
        GroupNow(u32),
        /// Push one message to this many receivers at one instant.
        Group {
            at: u64,
            count: u32,
        },
        Pop(u32),
    }

    /// Arms are drawn uniformly; a repeated arm is a weight.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::PushNow),
            Just(Op::PushNow),
            (1u64..1_000).prop_map(Op::PushPast),
            Just(Op::PushAt(u64::MAX)),
            // A narrow band, dense with ties, and the whole range.
            (0u64..64).prop_map(Op::PushAt),
            (0u64..64).prop_map(Op::PushAt),
            any::<u64>().prop_map(Op::PushAt),
            (1u32..6).prop_map(Op::Pop),
            (1u32..6).prop_map(Op::Pop),
            (1u32..6).prop_map(Op::Pop),
            (1u32..6).prop_map(Op::Pop),
            ((0u64..64), (1_000u32..4_000)).prop_map(|(at, count)| Op::Burst { at, count }),
            (1u32..300).prop_map(Op::GroupNow),
            ((0u64..64), (1u32..300)).prop_map(|(at, count)| Op::Group { at, count }),
        ]
    }

    proptest! {
        // ~5 M events in release (the CI step), ~150 k in the debug suite.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 4 } else { 128 }))]

        #[test]
        fn pops_match_a_vec_sorted_by_time_then_push_order(
            ops in prop::collection::vec(op(), 1..400),
        ) {
            let mut q = Checked::default();
            for op in ops {
                match op {
                    Op::PushNow => q.push(q.now),
                    Op::PushPast(by) => {
                        q.push(SimTime::from_micros(q.now.as_micros().saturating_sub(by)));
                    }
                    Op::PushAt(at) => q.push(SimTime::from_micros(at)),
                    Op::Burst { at, count } => {
                        for _ in 0..count {
                            q.push(SimTime::from_micros(at));
                        }
                    }
                    Op::GroupNow(count) => q.push_group(q.now, count),
                    Op::Group { at, count } => q.push_group(SimTime::from_micros(at), count),
                    Op::Pop(count) => {
                        for _ in 0..count {
                            q.pop();
                        }
                    }
                }
            }
            q.drain();
        }
    }

    /// The sequence counter runs out after 2⁴⁰ pushes; the push that would
    /// wrap renumbers the live keys instead, and order — including FIFO
    /// among ties pushed on either side of the renumbering — is unchanged.
    /// A multicast is one key, live through a renumbering or the push
    /// that triggers one.
    #[test]
    fn sequence_numbers_are_renumbered_not_wrapped() {
        let mut q = Checked::default();
        let spread = [7, 5, 7, u64::MAX, 5, 0, 7].map(SimTime::from_micros);
        spread.into_iter().for_each(|at| q.push(at));
        q.push_group(SimTime::from_micros(5), 3);
        q.pop();
        // 2⁴⁰ real pushes are out of a test's reach: jump the counter.
        q.queue.seq = SEQ_LIMIT - 3;
        spread.into_iter().for_each(|at| q.push(at));
        // The fourth push found 6 + 3 live keys and the group's, and
        // renumbered them 0..10.
        assert_eq!(q.queue.seq, 10 + 4);
        // Thousands of ties, and a group among them whose push renumbers.
        q.queue.seq = SEQ_LIMIT - 1_000;
        for _ in 0..1_000 {
            q.push(SimTime::from_micros(5));
        }
        q.push_group(SimTime::from_micros(5), 1_000);
        assert_eq!(q.queue.seq, 14 + 1_000 + 1);
        for _ in 0..1_000 {
            q.push(SimTime::from_micros(5));
        }
        assert_eq!(q.queue.seq, 14 + 2_001);
        q.drain();
        assert_eq!(q.pushed, 17 + 3_000);
    }

    /// Keys at the packing limits still order by `(time, seq)`.
    #[test]
    fn keys_at_the_limits_keep_their_order() {
        let t = SimTime::from_micros;
        let (max_seq, max_slot) = (SEQ_LIMIT - 1, (1 << SLOT_BITS) - 1);
        assert!(key(t(9), 4, max_slot) < key(t(9), 5, 0));
        assert!(key(t(9), max_seq, max_slot) < key(t(10), 0, 0));
        assert_eq!(key(SimTime::MAX, max_seq, max_slot), u128::MAX);
        assert_eq!(time_of(key(SimTime::MAX, max_seq, max_slot)), SimTime::MAX);
    }

    /// A slot that does not fit fails loudly instead of carrying into
    /// `seq`. (Through `key`: 2²⁴ live payloads would be over 1 GB.)
    #[test]
    #[should_panic(expected = "more than 2^24 events pending")]
    fn a_slot_past_the_limit_is_refused() {
        key(SimTime::ZERO, 0, 1 << SLOT_BITS);
    }
}
