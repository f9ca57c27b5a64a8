//! The FIFO clamp of the control channel: the messages of one (source,
//! destination) connection arrive in the order they were sent, like the
//! bytes of one TCP stream.

use crate::time::{SimDuration, SimTime};

/// One source's clamp row: the last delivery instant booked to each
/// destination. A message whose own path would deliver it at or before
/// that instant arrives 1 µs after it instead.
///
/// A simulator keeps one entry per ordered pair of nodes that talk, so an
/// entry is a `u32` µs offset from the row's `base` rather than an
/// absolute [`SimTime`]. When an offset would overflow (2³² µs is 71.6
/// simulated minutes), the row is rebased to 1 µs before the sending
/// instant: an entry in flight keeps its instant, and one in the past
/// becomes the new base, which clamps nothing sent from then on (a
/// delivery is never earlier than its send). So the clamp is exact for any
/// run length. A row that books a delivery more than 2³² µs after its
/// send, which takes a path or injected delay that long, keeps absolute
/// instants from then on.
#[derive(Debug, Default)]
pub(crate) struct FifoRow {
    /// Microseconds the offsets count from.
    base: u64,
    lanes: Lanes,
}

#[derive(Debug)]
enum Lanes {
    /// `base + offset` µs, per destination.
    Offsets(Vec<u32>),
    /// The instants themselves, per destination.
    Absolute(Vec<SimTime>),
}

impl Default for Lanes {
    fn default() -> Self {
        Lanes::Offsets(Vec::new())
    }
}

impl FifoRow {
    /// The number of destinations the row holds: none until its source
    /// first sends.
    pub(crate) fn len(&self) -> usize {
        match &self.lanes {
            Lanes::Offsets(offsets) => offsets.len(),
            Lanes::Absolute(instants) => instants.len(),
        }
    }

    /// Whether the row's source never sent.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Books a message sent at `now` to destination `to` of `width`, that
    /// its path would deliver at `arrives` (not before `now`), and returns
    /// its delivery instant: `arrives`, or 1 µs after the connection's
    /// last delivery when that is later.
    pub(crate) fn book(
        &mut self,
        now: SimTime,
        width: usize,
        to: usize,
        arrives: SimTime,
    ) -> SimTime {
        if self.is_empty() {
            self.lanes = Lanes::Offsets(vec![0; width]);
        }
        let last = self.last(to);
        let at = if arrives <= last {
            last + SimDuration::from_micros(1)
        } else {
            arrives
        };
        if !self.store(to, at) {
            self.rebase(now, at);
            let stored = self.store(to, at);
            debug_assert!(stored, "a rebased row holds its new entry");
        }
        at
    }

    fn last(&self, to: usize) -> SimTime {
        match &self.lanes {
            Lanes::Offsets(offsets) => SimTime::from_micros(self.base + u64::from(offsets[to])),
            Lanes::Absolute(instants) => instants[to],
        }
    }

    /// Records `at` as the last delivery to `to`, unless its offset does
    /// not fit a `u32`.
    fn store(&mut self, to: usize, at: SimTime) -> bool {
        match &mut self.lanes {
            Lanes::Offsets(offsets) => match u32::try_from(at.as_micros() - self.base) {
                Ok(offset) => {
                    offsets[to] = offset;
                    true
                }
                Err(_) => false,
            },
            Lanes::Absolute(instants) => {
                instants[to] = at;
                true
            }
        }
    }

    /// Moves the base to 1 µs before `now` when `at` fits an offset from
    /// there; otherwise the row turns absolute. The base only moves
    /// forward, so every stored entry, at most `u32::MAX` past the old
    /// base, fits an offset from the new one.
    fn rebase(&mut self, now: SimTime, at: SimTime) {
        let Lanes::Offsets(offsets) = &mut self.lanes else {
            return;
        };
        let (old, base) = (self.base, now.as_micros().saturating_sub(1));
        debug_assert!(base >= old, "the base moved backwards");
        if at.as_micros().saturating_sub(base) <= u64::from(u32::MAX) {
            for offset in offsets.iter_mut() {
                *offset = (old + u64::from(*offset)).saturating_sub(base) as u32;
            }
            self.base = base;
        } else {
            let instants = offsets
                .iter()
                .map(|&o| SimTime::from_micros(old + u64::from(o)))
                .collect();
            self.lanes = Lanes::Absolute(instants);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const WRAP: u64 = 1 << 32;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

        /// Any sequence of sends books the instants a row of absolute
        /// `u64` instants does, `max(arrives, last + 1 µs)`: across
        /// rebases, with zero delays, and with delays past 2³² µs that turn
        /// the row absolute.
        #[test]
        fn matches_absolute_instants(
            start in prop_oneof![Just(0u64), Just(WRAP - 50_000), Just(3 * WRAP - 7)],
            sends in proptest::collection::vec(
                (
                    prop_oneof![Just(0u64), 0u64..100, 0u64..200_000, WRAP - 10..WRAP + 10],
                    0usize..4,
                    prop_oneof![Just(0u64), 1u64..50_000, Just(WRAP - 1), WRAP..WRAP + 3],
                ),
                1..200,
            ),
        ) {
            let mut row = FifoRow::default();
            let mut model = [0u64; 4];
            let mut now = start;
            for (step, to, delay) in sends {
                now += step;
                let arrives = now + delay;
                let want = if arrives <= model[to] { model[to] + 1 } else { arrives };
                let at = row.book(SimTime::from_micros(now), 4, to, SimTime::from_micros(arrives));
                prop_assert_eq!(at.as_micros(), want);
                model[to] = want;
            }
        }
    }

    #[test]
    fn offsets_rebase_and_keep_in_flight_instants() {
        let mut row = FifoRow::default();
        let now = SimTime::from_micros(WRAP - 1_000);
        // In flight over the rebase: booked at offset 2³² − 1 exactly.
        let first = row.book(now, 2, 0, SimTime::from_micros(WRAP - 1));
        assert_eq!(first.as_micros(), WRAP - 1);
        assert!(matches!(row.lanes, Lanes::Offsets(_)) && row.base == 0);
        // One past the last offset: the row rebases to `now − 1 µs`.
        let second = row.book(now, 2, 1, SimTime::from_micros(WRAP));
        assert_eq!(second.as_micros(), WRAP);
        assert_eq!(row.base, WRAP - 1_001);
        assert!(matches!(row.lanes, Lanes::Offsets(_)));
        assert_eq!(row.last(0).as_micros(), WRAP - 1, "in flight: kept");
        assert_eq!(row.book(now, 2, 0, now).as_micros(), WRAP, "still clamps");
    }

    #[test]
    fn a_delay_past_the_offset_range_turns_the_row_absolute() {
        let mut row = FifoRow::default();
        let now = SimTime::from_micros(5);
        let far = SimTime::from_micros(5 + WRAP + 1);
        assert_eq!(row.book(now, 3, 2, far), far);
        assert!(matches!(row.lanes, Lanes::Absolute(_)));
        assert_eq!(row.len(), 3);
        assert_eq!(row.book(now, 3, 2, now), far + SimDuration::from_micros(1));
        assert_eq!(row.book(now, 3, 1, now), now);
    }
}
