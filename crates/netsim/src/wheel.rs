//! The flat event queue: a hierarchical timer wheel with a sorted
//! ready-run, replacing the old `BinaryHeap<Scheduled>`.
//!
//! # Why not a heap
//!
//! A binary heap pays `O(log n)` pointer-chasing comparisons on every
//! push *and* pop, and its sift paths touch scattered cache lines. The
//! simulator's schedule is overwhelmingly near-term (link delays of
//! microseconds to milliseconds, socket timeouts of a second), which is
//! exactly the access pattern timer wheels exploit: an insert is a
//! bucket push at an array offset computed with a shift, and a pop is a
//! `Vec::pop` from the currently armed bucket.
//!
//! # Structure
//!
//! Virtual time is quantised into *ticks* of `2^17` ns (~131 µs). Two
//! wheel levels of 256 slots each cover the near future:
//!
//! - level 0: one slot per tick — covers an aligned block of 256 ticks
//!   (~33.5 ms),
//! - level 1: one slot per 256 ticks — covers an aligned block of 256
//!   level-0 blocks (~8.6 s, enough for every socket timeout the stack
//!   arms),
//! - overflow: a small binary heap for anything beyond the level-1
//!   horizon (rare: scenario-scale timers only).
//!
//! Each level keeps an occupancy bitmap (`[u64; 4]`), so finding the
//! next non-empty slot is a couple of trailing-zero counts, not a scan.
//! When level 0 is exhausted the next occupied level-1 slot is
//! *cascaded*: its entries are redistributed into level 0 under a new
//! aligned base (and level 1 itself refills from the overflow heap the
//! same way).
//!
//! # The tie-break contract
//!
//! The simulator's determinism rests on dispatch in exact `(at, seq)`
//! order — `seq` is the global schedule counter, so ties at one
//! timestamp dispatch in insertion order. A wheel slot alone does not
//! give that (entries land in push order, and a tick spans many
//! distinct `at` values), so the wheel never dispatches straight from a
//! slot. Instead [`EventWheel::pop`] *arms* the minimum occupied tick:
//! the slot's entries are moved into the `ready` run and sorted by
//! `(at, seq)` descending, and pops come off the tail. A push targeting
//! the armed tick (an agent scheduling work at or near `now` from
//! inside a handler) is merge-inserted into the run at its sorted
//! position, preserving the contract; pushes for later ticks go to the
//! wheels. The equivalence proptest (`wheel_equivalence.rs`) drives
//! this structure and the old heap with identical random schedules —
//! including same-timestamp ties and in-handler re-scheduling — and
//! asserts identical dispatch order.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the tick width in nanoseconds (~131 µs per tick).
const TICK_SHIFT: u32 = 17;
/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Words in a level's occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;

/// One scheduled entry: absolute time, global sequence, payload.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: Nanos,
    seq: u64,
    item: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Nanos, u64) {
        (self.at, self.seq)
    }
}

// Overflow entries order earliest-first through an inverted Ord (the
// std heap is a max-heap) — the same trick the old `Scheduled` used.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

#[inline]
fn tick_of(at: Nanos) -> u64 {
    at.0 >> TICK_SHIFT
}

/// A fixed 256-slot wheel level: buckets plus an occupancy bitmap.
/// Slot vectors are never deallocated — a drained slot keeps its
/// capacity for the next lap, which is what keeps the steady-state hot
/// loop allocation-free.
struct Level<E> {
    slots: Box<[Vec<Entry<E>>]>,
    occ: [u64; OCC_WORDS],
}

impl<E> Level<E> {
    fn new() -> Level<E> {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
        }
    }

    #[inline]
    fn push(&mut self, offset: usize, entry: Entry<E>) {
        debug_assert!(offset < SLOTS);
        self.slots[offset].push(entry);
        self.occ[offset / 64] |= 1u64 << (offset % 64);
    }

    /// Offset of the first occupied slot, if any.
    #[inline]
    fn first_occupied(&self) -> Option<usize> {
        for (w, &bits) in self.occ.iter().enumerate() {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    #[inline]
    fn clear_bit(&mut self, offset: usize) {
        self.occ[offset / 64] &= !(1u64 << (offset % 64));
    }

    /// Empty every occupied slot, keeping each slot's capacity.
    fn clear(&mut self) {
        for (w, bits) in self.occ.iter_mut().enumerate() {
            while *bits != 0 {
                self.slots[w * 64 + bits.trailing_zeros() as usize].clear();
                *bits &= *bits - 1;
            }
        }
    }
}

/// The event queue: pops entries in exact `(at, seq)` order (earliest
/// time first; insertion order within a timestamp).
pub struct EventWheel<E> {
    /// The armed tick's entries, sorted by `(at, seq)` **descending** —
    /// the global minimum is at the tail, so dispatch is `Vec::pop`.
    ready: Vec<Entry<E>>,
    /// Entries that arrived *before* the armed tick: `run_until` arms the
    /// next pending tick to peek its timestamp, stops short of it, and
    /// the driver then schedules new work at the current (earlier) time.
    /// Those land here, sorted like `ready`; every entry in `front`
    /// precedes every entry in `ready` and in the wheels, and pops drain
    /// it first.
    front: Vec<Entry<E>>,
    /// Absolute tick the ready run was armed for (valid while `armed`).
    ready_tick: u64,
    armed: bool,
    /// Level 0 covers ticks `[l0_base, l0_base + 256)`; `l0_base` is
    /// 256-tick aligned.
    l0: Level<E>,
    l0_base: u64,
    /// Level 1 covers tick blocks `[l1_base, l1_base + 256)` (in units
    /// of 256 ticks); `l1_base` is 256-block aligned.
    l1: Level<E>,
    l1_base: u64,
    /// Beyond the level-1 horizon (~8.6 s out).
    overflow: BinaryHeap<Entry<E>>,
    len: usize,
}

impl<E> Default for EventWheel<E> {
    fn default() -> Self {
        EventWheel::new()
    }
}

impl<E> EventWheel<E> {
    /// An empty wheel positioned at time zero.
    pub fn new() -> EventWheel<E> {
        EventWheel {
            ready: Vec::new(),
            front: Vec::new(),
            ready_tick: 0,
            armed: false,
            l0: Level::new(),
            l0_base: 0,
            l1: Level::new(),
            l1_base: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Drop every pending entry and re-position the wheel at time zero,
    /// as [`Self::new`] leaves it, but keep every buffer's capacity: a
    /// reused simulator restarts its clock without reallocating the
    /// wheel. Costs O(occupied slots), not O(slots).
    pub fn clear(&mut self) {
        self.ready.clear();
        self.front.clear();
        self.ready_tick = 0;
        self.armed = false;
        self.l0.clear();
        self.l0_base = 0;
        self.l1.clear();
        self.l1_base = 0;
        self.overflow.clear();
        self.len = 0;
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-size the ready run (the only buffer that grows with burst
    /// size in the steady state — wheel slots grow lazily and keep
    /// their capacity forever after).
    pub fn reserve(&mut self, entries: usize) {
        let have = self.ready.capacity();
        if entries > have {
            self.ready.reserve(entries - have);
        }
    }

    /// Insert an entry. `at` must be `>=` the timestamp of the last
    /// popped entry (the simulator never schedules into the past).
    pub fn push(&mut self, at: Nanos, seq: u64, item: E) {
        let tick = tick_of(at);
        let entry = Entry { at, seq, item };
        self.len += 1;

        if self.len == 1 && !self.armed {
            // Empty structure: re-anchor both levels at this entry's
            // aligned blocks so it lands in level 0.
            self.l0_base = tick & !(SLOTS as u64 - 1);
            self.l1_base = (tick >> SLOT_BITS) & !(SLOTS as u64 - 1);
        }

        if self.armed && tick == self.ready_tick {
            // Same tick as the run being dispatched: merge-insert at the
            // sorted position. In-handler schedules at `now` carry the
            // largest seq so far, so the common case is the tail (one
            // comparison, no shift).
            let key = entry.key();
            let pos = self.ready.partition_point(|e| (e.at, e.seq) > key);
            self.ready.insert(pos, entry);
            return;
        }

        if (self.armed && tick < self.ready_tick) || tick < self.l0_base {
            // Before the armed tick (or below the level-0 window): the
            // driver peeked ahead with `run_until`, stopped short, and
            // scheduled new near-term work. Rare and short-lived — these
            // drain before the armed run resumes.
            let key = entry.key();
            let pos = self.front.partition_point(|e| (e.at, e.seq) > key);
            self.front.insert(pos, entry);
            return;
        }

        if tick < self.l0_base + SLOTS as u64 {
            self.l0.push((tick - self.l0_base) as usize, entry);
        } else {
            let block = tick >> SLOT_BITS;
            if block < self.l1_base + SLOTS as u64 {
                self.l1.push((block - self.l1_base) as usize, entry);
            } else {
                self.overflow.push(entry);
            }
        }
    }

    /// True when the next entry comes from `front` rather than `ready`.
    /// (`front` ticks strictly precede the armed tick, so a plain
    /// non-empty test would do — the key comparison keeps this robust.)
    #[inline]
    fn front_first(&self) -> bool {
        match (self.front.last(), self.ready.last()) {
            (Some(f), Some(r)) => f.key() < r.key(),
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Timestamp of the next entry, without removing it.
    pub fn next_at(&mut self) -> Option<Nanos> {
        self.arm();
        if self.front_first() {
            return self.front.last().map(|e| e.at);
        }
        self.ready.last().map(|e| e.at)
    }

    /// Borrow the next entry `(at, seq, item)` without removing it.
    pub fn peek(&mut self) -> Option<(Nanos, u64, &E)> {
        self.arm();
        let run = if self.front_first() {
            &self.front
        } else {
            &self.ready
        };
        run.last().map(|e| (e.at, e.seq, &e.item))
    }

    /// Remove and return the next entry in `(at, seq)` order.
    pub fn pop(&mut self) -> Option<(Nanos, u64, E)> {
        self.arm();
        let e = if self.front_first() {
            self.front.pop()?
        } else {
            self.ready.pop()?
        };
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }

    /// Ensure the ready run holds the minimum occupied tick's entries.
    fn arm(&mut self) {
        if !self.ready.is_empty() {
            return;
        }
        self.armed = false;
        loop {
            if let Some(offset) = self.l0.first_occupied() {
                let tick = self.l0_base + offset as u64;
                // Append (not swap): `ready` keeps its high-water capacity
                // permanently, and the slot keeps its own — so bursty
                // armed ticks stop re-growing small inherited buffers.
                let slot = &mut self.l0.slots[offset];
                self.ready.append(slot);
                self.l0.clear_bit(offset);
                // Descending sort: the run pops minimum-first from the
                // tail. Slots hold a handful of entries, and pushes
                // arrive largely in seq order — sort_unstable on a
                // near-sorted short run is effectively free.
                self.ready
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                self.ready_tick = tick;
                self.armed = true;
                return;
            }
            if let Some(offset) = self.l1.first_occupied() {
                // Cascade one level-1 slot: its 256-tick block becomes
                // the new level-0 window.
                let block = self.l1_base + offset as u64;
                self.l0_base = block << SLOT_BITS;
                let mut entries = std::mem::take(&mut self.l1.slots[offset]);
                self.l1.clear_bit(offset);
                for e in entries.drain(..) {
                    let t = tick_of(e.at);
                    debug_assert_eq!(t >> SLOT_BITS, block);
                    self.l0.push((t - self.l0_base) as usize, e);
                }
                // hand the emptied (but still allocated) vector back
                self.l1.slots[offset] = entries;
                continue;
            }
            if let Some(head) = self.overflow.peek() {
                // Re-window level 1 at the overflow minimum's aligned
                // block and drain everything inside the new horizon.
                let block = tick_of(head.at) >> SLOT_BITS;
                self.l1_base = block & !(SLOTS as u64 - 1);
                let horizon = self.l1_base + SLOTS as u64;
                while let Some(head) = self.overflow.peek() {
                    let b = tick_of(head.at) >> SLOT_BITS;
                    if b >= horizon {
                        break;
                    }
                    let e = self.overflow.pop().expect("peeked");
                    self.l1.push((b - self.l1_base) as usize, e);
                }
                continue;
            }
            debug_assert!(self.len == self.front.len(), "len/content mismatch");
            return;
        }
    }

    /// Invariant check for tests: every storage area is either empty or
    /// consistent with `len`.
    #[cfg(test)]
    fn debug_count(&self) -> usize {
        self.ready.len()
            + self.front.len()
            + self.l0.slots.iter().map(Vec::len).sum::<usize>()
            + self.l1.slots.iter().map(Vec::len).sum::<usize>()
            + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut EventWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, item)) = w.pop() {
            out.push((at.0, seq, item));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = EventWheel::new();
        w.push(Nanos(500), 0, 10);
        w.push(Nanos(100), 1, 11);
        w.push(Nanos(100), 2, 12);
        w.push(Nanos(300), 3, 13);
        assert_eq!(w.len(), 4);
        assert_eq!(
            drain(&mut w),
            vec![(100, 1, 11), (100, 2, 12), (300, 3, 13), (500, 0, 10)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn clear_restarts_at_time_zero_with_nothing_pending() {
        let mut w = EventWheel::new();
        // entries in every storage area: level 0, level 1, overflow, and
        // an armed ready run
        for (i, at) in [5u64, 40_000_000, 9_000_000_000, 60_000_000_000]
            .into_iter()
            .enumerate()
        {
            w.push(Nanos(at), i as u64, i as u32);
        }
        assert_eq!(w.pop(), Some((Nanos(5), 0, 0)));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.debug_count(), 0);
        assert_eq!(w.next_at(), None);
        // a cleared wheel accepts times before anything it held
        w.push(Nanos(7), 0, 70);
        w.push(Nanos(3), 1, 30);
        assert_eq!(drain(&mut w), vec![(3, 1, 30), (7, 0, 70)]);
    }

    #[test]
    fn same_tick_different_at_sorts_by_at() {
        // both inside one 131 µs tick, pushed out of time order
        let mut w = EventWheel::new();
        w.push(Nanos(90_000), 0, 1);
        w.push(Nanos(10_000), 1, 2);
        assert_eq!(drain(&mut w), vec![(10_000, 1, 2), (90_000, 0, 1)]);
    }

    #[test]
    fn push_into_armed_tick_merges_at_sorted_position() {
        let mut w = EventWheel::new();
        w.push(Nanos(50_000), 0, 1);
        w.push(Nanos(90_000), 1, 2);
        assert_eq!(w.pop(), Some((Nanos(50_000), 0, 1)));
        // the run for this tick is armed; push between the popped entry
        // and the pending one, and after it
        w.push(Nanos(70_000), 2, 3);
        w.push(Nanos(130_000), 3, 4); // same tick (131 µs wide)
        assert_eq!(
            drain(&mut w),
            vec![(70_000, 2, 3), (90_000, 1, 2), (130_000, 3, 4)]
        );
    }

    #[test]
    fn crosses_level_boundaries_and_overflow() {
        let mut w = EventWheel::new();
        let tick = 1u64 << TICK_SHIFT;
        // one entry per region: armed tick, l0, l1, overflow (>8.6 s)
        w.push(Nanos(10), 0, 0);
        w.push(Nanos(5 * tick), 1, 1);
        w.push(Nanos(1000 * tick), 2, 2);
        w.push(Nanos(Nanos::from_secs(30).0), 3, 3);
        assert_eq!(w.debug_count(), 4);
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, s, _)| s).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_rearms_after_drain() {
        let mut w = EventWheel::new();
        w.push(Nanos::from_secs(2), 0, 7);
        assert_eq!(w.pop(), Some((Nanos::from_secs(2), 0, 7)));
        assert_eq!(w.pop(), None);
        // re-anchor far ahead of the previous windows
        w.push(Nanos::from_secs(120), 1, 8);
        assert_eq!(w.next_at(), Some(Nanos::from_secs(120)));
        assert_eq!(w.pop(), Some((Nanos::from_secs(120), 1, 8)));
    }

    #[test]
    fn push_before_the_armed_tick_dispatches_first() {
        // run_until's pattern: peek (arms a future tick), stop short,
        // then schedule earlier work from outside the loop
        let mut w = EventWheel::new();
        w.push(Nanos::from_millis(400), 0, 1);
        assert_eq!(w.next_at(), Some(Nanos::from_millis(400))); // armed
        w.push(Nanos::from_millis(2), 1, 2);
        w.push(Nanos::from_millis(1), 2, 3);
        w.push(Nanos::from_millis(2), 3, 4); // tie with seq 1
        assert_eq!(
            drain(&mut w)
                .into_iter()
                .map(|(_, s, _)| s)
                .collect::<Vec<_>>(),
            vec![2, 1, 3, 0]
        );
    }

    #[test]
    fn dense_ties_keep_insertion_order() {
        let mut w = EventWheel::new();
        for i in 0..100u64 {
            w.push(Nanos(1_000_000), i, i as u32);
        }
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, s, _)| s).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn slot_capacity_is_recycled_across_laps() {
        let mut w = EventWheel::new();
        // two laps over the same slot offsets; second lap must not grow
        for lap in 0..2u64 {
            let base = lap * (SLOTS as u64) * (1 << TICK_SHIFT);
            for i in 0..SLOTS as u64 {
                w.push(Nanos(base + i * (1 << TICK_SHIFT)), lap * 1000 + i, 0u32);
            }
            while w.pop().is_some() {}
        }
        assert!(w.is_empty());
    }
}
