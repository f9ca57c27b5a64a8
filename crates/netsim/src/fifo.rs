//! The FIFO clamp of the control channel: the messages of one (source,
//! destination) connection arrive in the order they were sent, like the
//! bytes of one TCP stream.

use std::collections::HashMap;

use crate::time::{SimDuration, SimTime};

/// The last delivery instant booked on each (source, destination) pair
/// whose next send could still be clamped. A message whose own path would
/// deliver it at or before that instant arrives 1 µs after it instead.
///
/// An entry keeps only what can still clamp. `floor` is the least delay any
/// message on its pair can have (latency and loss are fixed for a run), so
/// a send made after `at − floor` arrives after `at` and is never clamped:
/// from then on the entry is dead, and a missing or dead entry reads as
/// [`SimTime::ZERO`]. So the table holds what was sent within one
/// transmission time or one injected delay, not one entry per pair that
/// ever talked.
///
/// A pair has one home slot. A send to a pair takes it when it holds the
/// pair or a dead entry. When it holds a live entry of another pair, the
/// slot keeps whichever of the two expires later, the other goes to the
/// overflow map, and the slot keeps the latest expiry it shed so that
/// only the pairs homed there, and only while that expiry is live, look
/// in the map. When the map outgrows a quarter of the slots its dead
/// entries go, and if more than an eighth of the slots' worth are left,
/// the table doubles: a sweep either frees an eighth of the slots' worth
/// of entries or is paid for by the doubling.
#[derive(Debug)]
pub(crate) struct FifoClamp {
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: a pair's home slot is the top bits of its
    /// key times [`HASH`].
    shift: u32,
    /// Live entries their home slots did not keep, pair key to expiry;
    /// they may die here before a sweep drops them.
    overflow: HashMap<u64, u64>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// `source << 32 | destination`, or [`NO_PAIR`].
    pair: u64,
    /// `at − floor` in µs, where `at` is the pair's last delivery instant:
    /// the last sending instant the entry can clamp.
    expires: u64,
    /// The latest expiry of an entry this slot shed to the overflow map.
    shed: u64,
}

/// The key of an empty slot: no (source, destination) pair of `u32` node
/// indices has it but the last node's self-pair.
const NO_PAIR: u64 = u64::MAX;

const EMPTY: Slot = Slot {
    pair: NO_PAIR,
    expires: 0,
    shed: 0,
};

/// The table's first size.
const MIN_SLOTS: usize = 256;

/// Fibonacci hashing: 2⁶⁴ / φ.
const HASH: u64 = 0x9E37_79B9_7F4A_7C15;

impl FifoClamp {
    pub(crate) fn new() -> Self {
        Self::with_slots(MIN_SLOTS)
    }

    /// A table of `len` slots, a power of two.
    fn with_slots(len: usize) -> Self {
        debug_assert!(len.is_power_of_two());
        FifoClamp {
            slots: vec![EMPTY; len],
            shift: 64 - len.trailing_zeros(),
            overflow: HashMap::new(),
        }
    }

    /// Books a message sent at `now` from `from` to `to`, that its path
    /// would deliver at `arrives` (not before `now + floor`), and returns
    /// its delivery instant: `arrives`, or 1 µs after the pair's last
    /// delivery when that is later. `floor` is the least delay a message
    /// on the pair can have; it must be the same at every send on the
    /// pair.
    pub(crate) fn book(
        &mut self,
        now: SimTime,
        from: usize,
        to: usize,
        arrives: SimTime,
        floor: SimDuration,
    ) -> SimTime {
        debug_assert!(arrives >= now + floor, "a delivery before its floor");
        let (now, floor) = (now.as_micros(), floor.as_micros());
        let pair = (from as u64) << 32 | to as u64;
        let i = self.home(pair);
        let old = self.slots[i];
        let expires = if old.pair == pair {
            Some(old.expires)
        } else if old.shed >= now {
            self.overflow.get(&pair).copied()
        } else {
            None
        };
        let last = match expires {
            Some(expires) if expires >= now => expires + floor,
            _ => 0,
        };
        let arrives = arrives.as_micros();
        let at = if arrives <= last {
            last.saturating_add(1)
        } else {
            arrives
        };
        if let Some((pair, expires)) = self.place(now, i, pair, at - floor) {
            self.shed(now, pair, expires);
        }
        SimTime::from_micros(at)
    }

    /// Puts `pair`'s entry in slot `i`, and returns the entry that has to
    /// go to the overflow map instead, if any: of two live entries of
    /// different pairs the slot keeps the one that expires later.
    fn place(&mut self, now: u64, i: usize, pair: u64, expires: u64) -> Option<(u64, u64)> {
        let slot = &mut self.slots[i];
        if slot.pair == pair || slot.pair == NO_PAIR || slot.expires < now {
            slot.pair = pair;
            slot.expires = expires;
            return None;
        }
        let out = if expires < slot.expires {
            (pair, expires)
        } else {
            let old = (slot.pair, slot.expires);
            slot.pair = pair;
            slot.expires = expires;
            old
        };
        slot.shed = slot.shed.max(out.1);
        Some(out)
    }

    fn home(&self, pair: u64) -> usize {
        (pair.wrapping_mul(HASH) >> self.shift) as usize
    }

    /// Puts a live entry its home slot did not keep in the overflow map.
    /// A sweep rebuilds the map from its live entries, so that its
    /// allocation follows what it holds rather than its peak.
    #[cold]
    fn shed(&mut self, now: u64, pair: u64, expires: u64) {
        self.overflow.insert(pair, expires);
        if self.overflow.len() * 4 > self.slots.len() {
            self.overflow = self.overflow.drain().filter(|&(_, e)| e >= now).collect();
            if self.overflow.len() * 8 > self.slots.len() {
                self.grow(now);
            }
        }
    }

    /// Doubles the table, more than once if need be, until its overflow
    /// map holds at most an eighth of its slots' worth, and moves every
    /// live entry to its home slot there.
    #[cold]
    fn grow(&mut self, now: u64) {
        // The map's entries first: where a slot holds the same pair, its
        // entry is the later one.
        let overflow = std::mem::take(&mut self.overflow).into_iter();
        let live: Vec<(u64, u64)> = overflow
            .chain(self.slots.iter().map(|s| (s.pair, s.expires)))
            .filter(|&(pair, expires)| pair != NO_PAIR && expires >= now)
            .collect();
        let mut len = self.slots.len();
        loop {
            len *= 2;
            *self = Self::with_slots(len);
            for &(pair, expires) in &live {
                if let Some((pair, expires)) = self.place(now, self.home(pair), pair, expires) {
                    self.overflow.insert(pair, expires);
                }
            }
            if self.overflow.len() * 8 <= len {
                break;
            }
        }
    }

    /// The entries, in the slots and the overflow map, that are not dead
    /// at `now`.
    #[cfg(test)]
    pub(crate) fn live(&self, now: SimTime) -> usize {
        let now = now.as_micros();
        let slots = self.slots.iter().filter(|s| s.pair != NO_PAIR);
        let expiries = slots
            .map(|s| s.expires)
            .chain(self.overflow.values().copied());
        expiries.filter(|&expires| expires >= now).count()
    }

    /// The slots the table holds, empty ones included.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// The clamp as one dense row of absolute instants per source, indexed by
/// destination: every entry kept forever. The model the table must match.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct DenseRows {
    rows: Vec<Vec<SimTime>>,
}

#[cfg(test)]
impl DenseRows {
    pub(crate) fn new(nodes: usize) -> Self {
        DenseRows {
            rows: vec![vec![SimTime::ZERO; nodes]; nodes],
        }
    }

    pub(crate) fn book(&mut self, from: usize, to: usize, arrives: SimTime) -> SimTime {
        let last = &mut self.rows[from][to];
        *last = if arrives <= *last {
            *last + SimDuration::from_micros(1)
        } else {
            arrives
        };
        *last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const WRAP: u64 = 1 << 32;
    const NODES: usize = 5;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

        /// Any sequence of sends books the instants the dense rows do, for
        /// several sources and destinations, self-sends, per-pair floors,
        /// zero delays, injected extra delays and spans past 2³² µs. Tables
        /// of 2 and 8 slots shed live entries to the overflow map and grow
        /// on most sends.
        #[test]
        fn matches_absolute_instants(
            slots in prop_oneof![Just(2usize), Just(8), Just(MIN_SLOTS)],
            start in prop_oneof![Just(0u64), Just(WRAP - 50_000), Just(3 * WRAP - 7)],
            floors in proptest::collection::vec(
                prop_oneof![Just(0u64), 1u64..50, 1_000u64..60_000],
                NODES * NODES..NODES * NODES + 1,
            ),
            sends in proptest::collection::vec(
                (
                    prop_oneof![Just(0u64), 0u64..100, 0u64..200_000, WRAP - 10..WRAP + 10],
                    0usize..NODES,
                    0usize..NODES,
                    prop_oneof![Just(0u64), 0u64..5, 1u64..50_000],
                    prop_oneof![Just(0u64), Just(0u64), Just(0u64), 0u64..2_000_000, WRAP..WRAP + 3],
                ),
                1..300,
            ),
        ) {
            let mut clamp = FifoClamp::with_slots(slots);
            let mut model = DenseRows::new(NODES);
            let mut now = start;
            for (step, from, to, tx, extra) in sends {
                now += step;
                let floor = floors[from * NODES + to];
                let arrives = SimTime::from_micros(now + floor + tx + extra);
                let at = clamp.book(
                    SimTime::from_micros(now),
                    from,
                    to,
                    arrives,
                    SimDuration::from_micros(floor),
                );
                prop_assert_eq!(at, model.book(from, to, arrives));
            }
        }
    }

    /// A send at t = 0 whose delay is 0 reads the missing entry as
    /// [`SimTime::ZERO`] and is delivered at 1 µs, as a zero-filled row
    /// would have it.
    #[test]
    fn a_missing_entry_reads_as_time_zero() {
        let mut clamp = FifoClamp::new();
        let zero = SimTime::ZERO;
        let mut book = |from, to| clamp.book(zero, from, to, zero, SimDuration::ZERO);
        assert_eq!(book(1, 2).as_micros(), 1);
        assert_eq!(book(1, 2).as_micros(), 2);
        assert_eq!(book(2, 1).as_micros(), 1);
    }

    /// Entries die once no later send can reach them: a long run of
    /// short-lived sends over many pairs keeps the table at its smallest.
    #[test]
    fn dead_entries_take_no_room() {
        let mut clamp = FifoClamp::new();
        let floor = SimDuration::from_micros(100);
        for step in 0..100_000u64 {
            let now = SimTime::from_micros(step * 10);
            let (from, to) = ((step % 1_000) as usize, (step / 1_000 % 1_000) as usize);
            let at = clamp.book(
                now,
                from,
                to,
                now + floor + SimDuration::from_micros(5),
                floor,
            );
            assert_eq!(at, now + SimDuration::from_micros(105));
        }
        assert_eq!(clamp.capacity(), MIN_SLOTS);
        assert_eq!(clamp.live(SimTime::from_micros(1_000_000)), 0);
    }
}
