//! The discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::id::{DirLinkId, NodeId};
use crate::node::NodeEvent;
use crate::time::SimTime;

/// Everything that can be scheduled on the simulator clock.
#[derive(Debug)]
pub(crate) enum Scheduled {
    /// Deliver an application-visible event to a node.
    Node { target: NodeId, event: NodeEvent },
    /// Advance one RTT round of a TCP flow (round model), or activate a
    /// freshly-handshaken flow (fluid model).
    FlowRound { flow: u64 },
    /// Complete a fluid-model flow, if its rate epoch is still current (a
    /// rebalance that changed the flow's rate bumps the epoch, leaving the
    /// previously-scheduled completion stale).
    FlowDone { flow: u64, epoch: u32 },
    /// Apply a scheduled link-capacity change (bandwidth modulation).
    Capacity { dir: DirLinkId, capacity_bps: f64 },
    /// Flip a node's online flag at a scheduled time (fault-injected outage
    /// windows). Going offline fails the node's flows exactly like
    /// [`crate::Ctx::go_offline`]; coming back online only restores the flag.
    SetOnline { node: NodeId, online: bool },
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// The heap holds only small `(time, seq, slot)` keys — ties in time break
/// by insertion order (`seq`), making runs deterministic — while the
/// payloads sit in a slab indexed by `slot`. Sift operations on a binary
/// heap move entries around `log n` times each, so keeping the moved value
/// at three words instead of a full [`Scheduled`] makes the queue largely
/// disappear from simulation profiles.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Payload per slot; `None` marks a free slot.
    payloads: Vec<Option<Scheduled>>,
    /// Freed slot indices, reused LIFO.
    free: Vec<u32>,
    seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    pub fn push(&mut self, time: SimTime, what: Scheduled) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.payloads.push(None);
                (self.payloads.len() - 1) as u32
            }
        };
        self.payloads[slot as usize] = Some(what);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((time, seq, slot)));
    }

    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((time, _, _))| time)
    }

    pub fn pop(&mut self) -> Option<(SimTime, Scheduled)> {
        let Reverse((time, _, slot)) = self.heap.pop()?;
        let what = self.payloads[slot as usize]
            .take()
            .expect("heap key without payload");
        self.free.push(slot);
        Some((time, what))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
