//! The event scheduler: a hierarchical timer wheel with an overflow heap.
//!
//! The previous simulator kept every pending event in one
//! `BinaryHeap<Reverse<Event>>`. That has two costs at fig14 scale: a
//! cancelled timer could only be tombstoned (it stayed in the heap until
//! its deadline drained it), and every operation on a 100k-event backlog
//! paid `O(log n)` against the whole population. This module replaces it
//! with the classic two-tier design:
//!
//! * an **arena** (slab) owns every pending event exactly once; heap and
//!   wheel entries are 16-byte `(idx, seq)` references. The event's `seq`
//!   doubles as its generation: cancellation frees the arena slot
//!   immediately (O(1), payload dropped on the spot) and any stale
//!   reference left in a wheel slot or heap is skipped when it surfaces —
//!   no tombstone ever survives to a pop;
//! * a **near heap** ordered by `(time, seq)` holding events at or before
//!   the wheel cursor — this is the only structure pops touch, so its
//!   population stays small (events of the current ~1 ms slot);
//! * wheel **level 0**: 256 slots of 2^10 µs (≈1 ms) — the next ≈262 ms;
//! * wheel **level 1**: 256 slots of 2^18 µs (≈262 ms) — the next ≈67 s,
//!   cascaded one slot at a time into level 0 as the cursor crosses slot
//!   boundaries;
//! * an **overflow heap** for events beyond the level-1 horizon, drained
//!   into the wheel at each cascade.
//!
//! Slot indices are computed from absolute time (`(t >> bits) & 0xFF`), so
//! the cursor can jump over empty stretches without re-anchoring. Pop
//! order is exactly `(time, seq)` with `seq` assigned at insertion —
//! byte-for-byte the order the old single heap produced — because a slot
//! is only loaded into the near heap once everything earlier has been,
//! and the near heap breaks time ties by `seq`.

use crate::node::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the level-0 slot width in µs (2^10 = 1.024 ms).
const L0_GRAN_BITS: u64 = 10;
/// log2 of the slot count per level.
const SLOT_BITS: u64 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// log2 of the level-1 slot width in µs (2^18 ≈ 262 ms).
const L1_GRAN_BITS: u64 = L0_GRAN_BITS + SLOT_BITS;

/// Reference to a scheduled event; the `seq` acts as a generation check,
/// so a stale ref (fired or cancelled event, possibly a reused slot) can
/// never resolve to the wrong event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRef {
    idx: u32,
    seq: u64,
}

#[derive(Debug)]
struct ArenaSlot<T> {
    seq: u64,
    time: SimTime,
    value: Option<T>,
}

/// Deterministic two-tier event scheduler (see module docs).
pub struct Scheduler<T> {
    arena: Vec<ArenaSlot<T>>,
    free: Vec<u32>,
    /// Events at or before the cursor, ordered by `(time, seq, idx)`
    /// (`seq` is unique, so `idx` never participates in the order).
    near: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    l0: [Vec<(u32, u64)>; SLOTS],
    l1: [Vec<(u32, u64)>; SLOTS],
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Cursor: the level-0 tick (`time >> L0_GRAN_BITS`) whose slot has
    /// already been loaded into the near heap.
    tick: u64,
    /// Entry counts per structure (stale refs included) so the cursor can
    /// skip empty regions wholesale.
    l0_count: usize,
    l1_count: usize,
    /// Live (inserted, not yet popped or cancelled) events.
    len: usize,
    next_seq: u64,
}

impl<T> Default for Scheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Scheduler<T> {
    /// An empty scheduler with its cursor at time zero.
    pub fn new() -> Self {
        Scheduler {
            arena: Vec::new(),
            free: Vec::new(),
            near: BinaryHeap::new(),
            l0: std::array::from_fn(|_| Vec::new()),
            l1: std::array::from_fn(|_| Vec::new()),
            overflow: BinaryHeap::new(),
            tick: 0,
            l0_count: 0,
            l1_count: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Number of live pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated arena slots, live and free — the scheduler's resident
    /// footprint (the arena never shrinks; slots are reused).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Bytes per arena slot, for approximate-memory accounting.
    pub fn arena_slot_bytes(&self) -> usize {
        std::mem::size_of::<ArenaSlot<T>>()
    }

    /// Schedules `value` at `time`; returns a cancellation handle.
    pub fn insert(&mut self, time: SimTime, value: T) -> EventRef {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.arena[idx as usize] = ArenaSlot {
                    seq,
                    time,
                    value: Some(value),
                };
                idx
            }
            None => {
                let idx = self.arena.len() as u32;
                self.arena.push(ArenaSlot {
                    seq,
                    time,
                    value: Some(value),
                });
                idx
            }
        };
        self.len += 1;
        self.place(time, seq, idx);
        EventRef { idx, seq }
    }

    /// Cancels a pending event, dropping its payload immediately. Returns
    /// `false` if the event already fired or was already cancelled. The
    /// 16-byte reference left behind in a wheel slot or heap is skipped
    /// (via the `seq` generation check) whenever it surfaces.
    pub fn cancel(&mut self, r: EventRef) -> bool {
        let slot = &mut self.arena[r.idx as usize];
        if slot.seq == r.seq && slot.value.is_some() {
            slot.value = None;
            self.free.push(r.idx);
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Removes and returns the earliest event as `(time, seq, value)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        loop {
            if let Some(Reverse((t, seq, idx))) = self.near.pop() {
                let slot = &mut self.arena[idx as usize];
                if slot.seq == seq {
                    if let Some(v) = slot.value.take() {
                        self.free.push(idx);
                        self.len -= 1;
                        return Some((t, seq, v));
                    }
                }
                continue; // stale ref (cancelled); drop it
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Time of the earliest pending event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            if let Some(&Reverse((t, seq, idx))) = self.near.peek() {
                let slot = &self.arena[idx as usize];
                if slot.seq == seq && slot.value.is_some() {
                    return Some(t);
                }
                self.near.pop();
                continue;
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    fn is_live(&self, idx: u32, seq: u64) -> bool {
        let slot = &self.arena[idx as usize];
        slot.seq == seq && slot.value.is_some()
    }

    /// Files an event reference into the structure matching its distance
    /// from the cursor.
    fn place(&mut self, time: SimTime, seq: u64, idx: u32) {
        let t_tick = time >> L0_GRAN_BITS;
        if t_tick <= self.tick {
            // Current or already-loaded slot: straight to the near heap.
            self.near.push(Reverse((time, seq, idx)));
        } else if t_tick - self.tick < SLOTS as u64 {
            self.l0[(t_tick & SLOT_MASK) as usize].push((idx, seq));
            self.l0_count += 1;
        } else if (time >> L1_GRAN_BITS) - (self.tick >> SLOT_BITS) < SLOTS as u64 {
            self.l1[((time >> L1_GRAN_BITS) & SLOT_MASK) as usize].push((idx, seq));
            self.l1_count += 1;
        } else {
            self.overflow.push(Reverse((time, seq, idx)));
        }
    }

    /// Moves the cursor forward until at least one event lands in the near
    /// heap. Only called while `len > 0` and the near heap is empty, so a
    /// live event is guaranteed to exist in the wheel or overflow.
    fn advance(&mut self) {
        loop {
            if self.l0_count == 0 {
                if self.l1_count == 0 {
                    // Nothing before the overflow horizon: jump the cursor
                    // to just before the earliest overflow event. (Skip
                    // stale overflow refs first so the jump lands on a
                    // live one.)
                    while let Some(&Reverse((_, seq, idx))) = self.overflow.peek() {
                        if self.is_live(idx, seq) {
                            break;
                        }
                        self.overflow.pop();
                    }
                    let Some(&Reverse((t, _, _))) = self.overflow.peek() else {
                        return; // inconsistent only if len == 0
                    };
                    self.tick = self.tick.max((t >> L0_GRAN_BITS).saturating_sub(1));
                    self.drain_overflow();
                    continue;
                }
                // Level 0 empty: skip straight to the next cascade
                // boundary (the slots in between hold nothing).
                self.tick |= SLOT_MASK;
            }
            self.tick += 1;
            if self.tick & SLOT_MASK == 0 {
                self.cascade_l1();
                self.drain_overflow();
            }
            let slot = &mut self.l0[(self.tick & SLOT_MASK) as usize];
            if !slot.is_empty() {
                self.l0_count -= slot.len();
                let drained = std::mem::take(slot);
                for (idx, seq) in drained {
                    if self.is_live(idx, seq) {
                        let t = self.arena[idx as usize].time;
                        self.near.push(Reverse((t, seq, idx)));
                    }
                }
            }
            if !self.near.is_empty() {
                return;
            }
        }
    }

    /// Spreads the level-1 slot at the cursor into level 0 / near.
    fn cascade_l1(&mut self) {
        let slot = &mut self.l1[((self.tick >> SLOT_BITS) & SLOT_MASK) as usize];
        if slot.is_empty() {
            return;
        }
        self.l1_count -= slot.len();
        let drained = std::mem::take(slot);
        for (idx, seq) in drained {
            if self.is_live(idx, seq) {
                let t = self.arena[idx as usize].time;
                self.place(t, seq, idx);
            }
        }
    }

    /// Pulls overflow events that now fall within the level-1 horizon.
    fn drain_overflow(&mut self) {
        let horizon = ((self.tick >> SLOT_BITS) + SLOTS as u64) << L1_GRAN_BITS;
        while let Some(&Reverse((t, seq, idx))) = self.overflow.peek() {
            if !self.is_live(idx, seq) {
                self.overflow.pop();
                continue;
            }
            if t >= horizon {
                break;
            }
            self.overflow.pop();
            self.place(t, seq, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SECONDS;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.insert(500, 1);
        s.insert(100, 2);
        s.insert(500, 3);
        s.insert(100_000_000, 4); // ~100 s: overflow tier
        s.insert(2_000_000, 5); // 2 s: level-1 tier
        let mut got = Vec::new();
        while let Some((t, _, v)) = s.pop() {
            got.push((t, v));
        }
        assert_eq!(
            got,
            vec![
                (100, 2),
                (500, 1),
                (500, 3),
                (2_000_000, 5),
                (100_000_000, 4)
            ]
        );
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn cancel_is_immediate_and_idempotent() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let a = s.insert(1_000, 1);
        let b = s.insert(2_000, 2);
        assert_eq!(s.len(), 2);
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double cancel is a no-op");
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop().map(|(_, _, v)| v), Some(2));
        assert!(!s.cancel(b), "cancel after fire is a no-op");
        assert_eq!(s.pop().map(|(_, _, v)| v), None);
    }

    #[test]
    fn cancelled_slot_reuse_does_not_confuse_refs() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let a = s.insert(5_000, 1);
        assert!(s.cancel(a));
        // The freed arena slot is reused by a new event...
        let b = s.insert(7_000, 2);
        // ...and the stale ref must not cancel it.
        assert!(!s.cancel(a));
        assert_eq!(s.pop().map(|(t, _, v)| (t, v)), Some((7_000, 2)));
        assert!(!s.cancel(b));
    }

    #[test]
    fn interleaved_inserts_pop_in_global_order() {
        // Insert while popping, across every tier, including events that
        // land at the current cursor position.
        let mut s: Scheduler<u64> = Scheduler::new();
        for i in 0..50u64 {
            s.insert(i * 37_000, i);
        }
        let (t0, _, v0) = s.pop().expect("first");
        assert_eq!((t0, v0), (0, 0));
        // Schedule more events "now" and far ahead while mid-drain.
        s.insert(t0 + 1, 100);
        s.insert(90 * SECONDS, 101);
        let mut last = t0;
        let mut seen = 1;
        while let Some((t, _, _)) = s.pop() {
            assert!(t >= last, "time went backwards: {t} < {last}");
            last = t;
            seen += 1;
        }
        assert_eq!(seen, 52);
    }

    #[test]
    fn long_empty_stretch_is_jumped_not_walked() {
        let mut s: Scheduler<u32> = Scheduler::new();
        // One event 4 simulated hours out: the cursor must jump there
        // without walking ~14 M level-0 slots.
        s.insert(4 * 3600 * SECONDS, 9);
        let (t, _, v) = s.pop().expect("event");
        assert_eq!((t, v), (4 * 3600 * SECONDS, 9));
    }

    #[test]
    fn overflow_cancellation_leaves_no_live_entry() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let far = s.insert(200 * SECONDS, 1);
        s.insert(100, 2);
        assert!(s.cancel(far));
        assert_eq!(s.pop().map(|(_, _, v)| v), Some(2));
        assert_eq!(s.pop().map(|(_, _, v)| v), None);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.insert(3 * SECONDS, 1);
        s.insert(SECONDS, 2);
        assert_eq!(s.peek_time(), Some(SECONDS));
        let (t, _, v) = s.pop().expect("event");
        assert_eq!((t, v), (SECONDS, 2));
        assert_eq!(s.peek_time(), Some(3 * SECONDS));
    }
}
