//! Deterministic hierarchical timer wheel.
//!
//! A Varghese/Lauck-style timing wheel: [`LEVELS`] levels of [`SLOTS`]
//! slots each, with a tick of one microsecond (the sim's native
//! granularity, see [`crate::time`]). Level
//! `l` covers `64^(l+1)` µs, so eight levels span `64^8` µs ≈ 8.9 simulated
//! years; anything beyond the covered horizon waits in a small overflow
//! heap and is migrated in when the cursor reaches it.
//!
//! # Placement rule
//!
//! An entry at absolute tick `t` with the cursor at `now` is stored at the
//! lowest level `l` whose *parent* slot is shared with the cursor:
//! `t >> 6(l+1) == now >> 6(l+1)` — equivalently, `l` is the index of the
//! highest differing bit of `t ^ now`, divided by 6. This phrasing (rather
//! than the textbook `delta = t - now` bucketing) makes the wrap-around
//! off-by-one impossible by construction: a slot at level `l >= 1` is only
//! ever occupied when its index is strictly ahead of the cursor's index at
//! that level, so cascading never has to distinguish "this lap" from
//! "next lap".
//!
//! # Determinism
//!
//! All entries in one level-0 slot share the same exact microsecond.
//! Firing a slot sorts its entries by `seq` (globally unique, monotonically
//! assigned at schedule time), which restores the exact `(time, seq)` FIFO
//! pop order of a binary heap — ties at equal timestamps fire in insertion
//! order. Entries are plain 24-byte `Copy` data.
//!
//! # Allocation behavior
//!
//! Slots are intrusive singly-linked lists threaded through one shared
//! node slab with a free list: inserting links a recycled node in O(1),
//! cascading relinks nodes between slots without moving or allocating
//! anything, and firing copies one slot's entries into a single reused
//! buffer. Once the slab has grown to the peak pending-event count,
//! steady-state churn performs **no heap allocation** — including when the
//! cursor reaches high-level slots it has never touched before (the case
//! where per-slot growable buckets would still allocate); see
//! `tests/alloc_free.rs`.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the number of slots per level.
pub const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of hierarchical levels; levels cover `6 * LEVELS` low bits of
/// the microsecond clock, everything above goes to the overflow heap.
pub const LEVELS: usize = 8;

/// A queued entry: plain data, 24 bytes, cheap to copy between slots.
/// What it refers to lives in the caller's storage under `id`.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// Absolute fire time.
    pub time: SimTime,
    /// Global schedule sequence number; ties at equal `time` fire in `seq`
    /// order.
    pub seq: u64,
    /// Caller-defined key, e.g. an index into the caller's payload slab.
    pub id: u64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
    // first. Used by the overflow/late heaps here and by the reference
    // heap in benches and unit tests.
    fn cmp(&self, other: &Self) -> Ordering {
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Sentinel for "no node" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// One slab node: an entry plus the next link of whatever slot list (or
/// the free list) it is currently on.
#[derive(Debug, Clone)]
struct Node {
    entry: Entry,
    next: u32,
}

/// Hierarchical timer wheel with exact `(time, seq)` pop order.
///
/// `Clone` duplicates the whole queue — cursor, bitmaps, slab lists and
/// late/overflow heaps — so a forked experiment replays the exact same pop
/// order as its parent.
#[derive(Debug, Clone)]
pub struct TimerWheel {
    /// Cursor: the wheel's notion of "current tick". Only ever advances,
    /// and only to the base of a slot that is about to fire (or to the
    /// overflow minimum during migration).
    now: u64,
    /// Per-level occupancy bitmaps; bit `i` set iff slot `i` of level `l`
    /// has a non-empty list. Cursor advancement is a masked
    /// `trailing_zeros`, not a slot-by-slot scan.
    occ: [u64; LEVELS],
    /// Head node of each slot's intrusive list (`LEVELS * SLOTS` lists).
    head: [u32; LEVELS * SLOTS],
    /// Shared node slab; grows only while the pending-event count sets a
    /// new high-water mark.
    nodes: Vec<Node>,
    /// Head of the slab's free list.
    free: u32,
    /// Entries of the level-0 slot currently being drained, sorted by
    /// `seq`, consumed from `firing_pos`. One buffer, reused forever.
    firing: Vec<Entry>,
    firing_pos: usize,
    /// The shared microsecond of every entry in `firing`.
    firing_time: u64,
    /// Entries stored in slot lists (excludes `firing`, `late`,
    /// `overflow`).
    stored: usize,
    /// Entries inserted behind the cursor, i.e. earlier than a time the
    /// caller already popped or polled up to with `pop_at_most`. Cold; a
    /// tiny heap keeps the corner exactly ordered.
    late: BinaryHeap<Entry>,
    /// Entries beyond the wheel's horizon (no shared parent with the
    /// cursor at any level, e.g. `SimTime::MAX` sentinels). Strictly later
    /// than every wheel entry; migrated in when the wheel empties.
    overflow: BinaryHeap<Entry>,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

/// Level an entry at tick `t` belongs to when the cursor is at `now`
/// (`t >= now`), or `None` if it is beyond the covered horizon.
#[inline]
fn level_of(now: u64, t: u64) -> Option<usize> {
    let diff = now ^ t;
    if diff == 0 {
        return Some(0);
    }
    let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
    (level < LEVELS).then_some(level)
}

impl TimerWheel {
    /// An empty wheel with its cursor at tick zero.
    pub fn new() -> Self {
        TimerWheel {
            now: 0,
            occ: [0; LEVELS],
            head: [NIL; LEVELS * SLOTS],
            nodes: Vec::new(),
            free: NIL,
            firing: Vec::new(),
            firing_pos: 0,
            firing_time: 0,
            stored: 0,
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Number of entries waiting.
    pub fn len(&self) -> usize {
        self.stored + (self.firing.len() - self.firing_pos) + self.late.len() + self.overflow.len()
    }

    /// Whether no entries are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an entry. Entries may carry any time, including times
    /// behind the cursor (see `late`) or beyond the horizon (`overflow`).
    pub fn insert(&mut self, e: Entry) {
        let t = e.time.as_micros();
        if t < self.now {
            self.late.push(e);
        } else {
            match level_of(self.now, t) {
                None => self.overflow.push(e),
                Some(l) => self.link(l, e),
            }
        }
    }

    /// Links `e` at the head of its slot list on level `l`.
    #[inline]
    fn link(&mut self, l: usize, e: Entry) {
        let idx = ((e.time.as_micros() >> (SLOT_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
        let slot = l * SLOTS + idx;
        let next = self.head[slot];
        let node = if self.free != NIL {
            let i = self.free;
            let n = &mut self.nodes[i as usize];
            self.free = n.next;
            n.entry = e;
            n.next = next;
            i
        } else {
            let i = u32::try_from(self.nodes.len()).expect("more than u32::MAX pending events");
            self.nodes.push(Node { entry: e, next });
            i
        };
        self.head[slot] = node;
        self.occ[l] |= 1 << idx;
        self.stored += 1;
    }

    /// Removes and returns the earliest `(time, seq)` entry.
    pub fn pop(&mut self) -> Option<Entry> {
        self.pop_bounded(u64::MAX)
    }

    /// Removes and returns the earliest entry whose time is `<= deadline`,
    /// if any. Never advances the cursor past `deadline`, so entries
    /// inserted later at times between the deadline and the (untouched)
    /// rest of the wheel still land ahead of the cursor.
    pub fn pop_at_most(&mut self, deadline: SimTime) -> Option<Entry> {
        self.pop_bounded(deadline.as_micros())
    }

    fn pop_bounded(&mut self, deadline: u64) -> Option<Entry> {
        // Late entries are strictly earlier than everything in the wheel
        // (their times are below the cursor), so they drain first.
        if let Some(e) = self.late.peek() {
            return (e.time.as_micros() <= deadline).then(|| self.late.pop().unwrap());
        }
        loop {
            if self.firing_pos < self.firing.len() {
                if self.firing_time > deadline {
                    return None;
                }
                let e = self.firing[self.firing_pos];
                self.firing_pos += 1;
                return Some(e);
            }
            if !self.refill(deadline) {
                return None;
            }
        }
    }

    /// Advances the cursor to the next non-empty level-0 slot with base
    /// time `<= deadline`, draining its list into the firing buffer.
    /// Returns `false` (leaving all state consistent) if the next entry
    /// lies beyond `deadline` or the wheel is empty.
    fn refill(&mut self, deadline: u64) -> bool {
        loop {
            if self.stored == 0 {
                if !self.migrate_overflow(deadline) {
                    return false;
                }
                continue;
            }

            // Level 0: fire the next occupied slot at or ahead of the cursor.
            let c0 = (self.now & (SLOTS as u64 - 1)) as u32;
            let m0 = self.occ[0] & (!0u64 << c0);
            if m0 != 0 {
                let idx = m0.trailing_zeros() as u64;
                let time = (self.now & !(SLOTS as u64 - 1)) + idx;
                if time > deadline {
                    return false;
                }
                self.occ[0] &= !(1 << idx);
                self.firing.clear();
                let mut cur = self.head[idx as usize];
                self.head[idx as usize] = NIL;
                while cur != NIL {
                    let n = &mut self.nodes[cur as usize];
                    self.firing.push(n.entry);
                    let nxt = n.next;
                    n.next = self.free;
                    self.free = cur;
                    cur = nxt;
                }
                // All entries in a level-0 slot share one exact
                // microsecond, so sorting by the globally-unique seq
                // restores full (time, seq) order. In-place: no allocation.
                self.firing.sort_unstable_by_key(|e| e.seq);
                debug_assert!(self.firing.iter().all(|e| e.time.as_micros() == time));
                self.firing_pos = 0;
                self.firing_time = time;
                self.stored -= self.firing.len();
                self.now = time;
                return true;
            }

            // Cascade: the lowest level with an occupied slot strictly
            // ahead of its cursor holds the earliest region (lower levels
            // subdivide the current slot of higher ones). Advance the
            // cursor to that slot's base and relink its nodes, which all
            // land at levels below `l` relative to the new cursor.
            let mut cascaded = false;
            for l in 1..LEVELS {
                let shift = SLOT_BITS * l as u32;
                let cl = ((self.now >> shift) & (SLOTS as u64 - 1)) as u32;
                // Slot `cl` itself can never be occupied at level >= 1:
                // an entry sharing the cursor's level-`l` index would have
                // been placed at a lower level.
                let mask = if cl >= 63 { 0 } else { !0u64 << (cl + 1) };
                let ml = self.occ[l] & mask;
                if ml == 0 {
                    continue;
                }
                let idx = ml.trailing_zeros() as u64;
                let span = 1u64 << shift;
                let window_base = self.now & !((span << SLOT_BITS) - 1);
                let new_now = window_base + idx * span;
                if new_now > deadline {
                    return false;
                }
                let slot = l * SLOTS + idx as usize;
                self.occ[l] &= !(1 << idx);
                self.now = new_now;
                let mut cur = self.head[slot];
                self.head[slot] = NIL;
                while cur != NIL {
                    let nxt = self.nodes[cur as usize].next;
                    let t = self.nodes[cur as usize].entry.time.as_micros();
                    debug_assert!(t >= self.now);
                    let l2 =
                        level_of(self.now, t).expect("cascaded entry must fit below its old level");
                    debug_assert!(l2 < l);
                    let idx2 = ((t >> (SLOT_BITS * l2 as u32)) & (SLOTS as u64 - 1)) as usize;
                    let slot2 = l2 * SLOTS + idx2;
                    self.nodes[cur as usize].next = self.head[slot2];
                    self.head[slot2] = cur;
                    self.occ[l2] |= 1 << idx2;
                    cur = nxt;
                }
                cascaded = true;
                break;
            }
            if !cascaded {
                unreachable!("wheel invariant broken: stored > 0 but no slot ahead of the cursor");
            }
        }
    }

    /// Jumps the (empty) wheel to the overflow minimum and pulls in every
    /// overflow entry that fits the horizon there. Returns `false` if the
    /// overflow is empty or its minimum lies beyond `deadline`.
    fn migrate_overflow(&mut self, deadline: u64) -> bool {
        debug_assert_eq!(self.stored, 0);
        let Some(min) = self.overflow.peek() else {
            return false;
        };
        let t = min.time.as_micros();
        if t > deadline {
            return false;
        }
        self.now = t;
        while let Some(e) = self.overflow.peek() {
            if level_of(self.now, e.time.as_micros()).is_none() {
                // The overflow heap is time-ordered: once one entry is out
                // of range, the rest are too.
                break;
            }
            let e = self.overflow.pop().unwrap();
            self.insert(e);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: u64, seq: u64) -> Entry {
        Entry { time: SimTime::from_micros(t), seq, id: seq }
    }

    fn drain(w: &mut TimerWheel) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.time.as_micros(), e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        let times = [5u64, 3, 3, 70, 4096, 3, 64, 5, 1 << 20, 0];
        for (seq, &t) in times.iter().enumerate() {
            w.insert(entry(t, seq as u64));
        }
        let mut expect: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(s, &t)| (t, s as u64)).collect();
        expect.sort_by_key(|&(t, s)| (t, s));
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn matches_reference_heap_on_dense_schedule() {
        // Pseudo-random times spanning several levels, many duplicates.
        let mut w = TimerWheel::new();
        let mut heap = BinaryHeap::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for seq in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 300_000; // dense: ~17 entries per distinct µs band
            w.insert(entry(t, seq));
            heap.push(entry(t, seq));
        }
        let mut expect = Vec::new();
        while let Some(e) = heap.pop() {
            expect.push((e.time.as_micros(), e.seq));
        }
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn interleaved_insert_and_pop_matches_reference_heap() {
        let mut w = TimerWheel::new();
        let mut heap = BinaryHeap::new();
        let mut got = Vec::new();
        let mut expect = Vec::new();
        let mut seq = 0u64;
        for round in 0..200u64 {
            for k in 0..5 {
                let e = entry(round * 100 + k * 37, seq);
                w.insert(e);
                heap.push(e);
                seq += 1;
            }
            if let Some(e) = w.pop() {
                got.push((e.time.as_micros(), e.seq));
            }
            if let Some(e) = heap.pop() {
                expect.push((e.time.as_micros(), e.seq));
            }
        }
        while let Some(e) = w.pop() {
            got.push((e.time.as_micros(), e.seq));
        }
        while let Some(e) = heap.pop() {
            expect.push((e.time.as_micros(), e.seq));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn pop_at_most_respects_deadline_and_preserves_rest() {
        let mut w = TimerWheel::new();
        for (seq, t) in [10u64, 20, 30, 40_000, 5_000_000].into_iter().enumerate() {
            w.insert(entry(t, seq as u64));
        }
        let mut early = Vec::new();
        while let Some(e) = w.pop_at_most(SimTime::from_micros(25)) {
            early.push(e.time.as_micros());
        }
        assert_eq!(early, [10, 20]);
        assert_eq!(w.len(), 3);
        // Inserting between the deadline and the rest still works.
        w.insert(entry(26, 99));
        assert_eq!(drain(&mut w), [(26, 99), (30, 2), (40_000, 3), (5_000_000, 4)]);
    }

    #[test]
    fn beyond_horizon_entries_wait_in_overflow_and_migrate() {
        let mut w = TimerWheel::new();
        let far = 1u64 << 50; // beyond 64^8 µs
        w.insert(entry(far + 3, 0));
        w.insert(entry(5, 1));
        w.insert(entry(far, 2));
        w.insert(entry(u64::MAX, 3)); // SimTime::MAX sentinel
        assert_eq!(w.len(), 4);
        assert_eq!(drain(&mut w), [(5, 1), (far, 2), (far + 3, 0), (u64::MAX, 3)]);
    }

    #[test]
    fn late_inserts_behind_the_cursor_still_pop_first() {
        // Drain the wheel past t=100, then insert earlier times: the
        // cursor already sits at 100, so they land on the late heap.
        let mut w = TimerWheel::new();
        w.insert(entry(100, 0));
        assert_eq!(w.pop().map(|e| e.seq), Some(0));
        w.insert(entry(7, 1));
        w.insert(entry(3, 2));
        w.insert(entry(100, 3));
        assert_eq!(drain(&mut w), [(3, 2), (7, 1), (100, 3)]);
    }

    #[test]
    fn len_tracks_all_regions() {
        let mut w = TimerWheel::new();
        w.insert(entry(50, 0));
        w.insert(entry(1 << 55, 1));
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        w.pop();
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
    }

    #[test]
    fn slot_boundary_times_cascade_correctly() {
        // Exercise exact powers of 64 and their neighbors, where a naive
        // delta-based wheel has wrap-around off-by-ones.
        let mut w = TimerWheel::new();
        let mut times = Vec::new();
        for l in 1..6u32 {
            let base = 1u64 << (SLOT_BITS * l);
            times.extend_from_slice(&[base - 1, base, base + 1]);
        }
        for (seq, &t) in times.iter().enumerate() {
            w.insert(entry(t, seq as u64));
        }
        let mut expect: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(s, &t)| (t, s as u64)).collect();
        expect.sort_by_key(|&(t, s)| (t, s));
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn node_slab_is_recycled() {
        // Sustained churn at constant pending count must not grow the slab
        // beyond its high-water mark.
        let mut w = TimerWheel::new();
        for seq in 0..64u64 {
            w.insert(entry(seq * 13, seq));
        }
        let cap = w.nodes.capacity();
        for seq in 64u64..10_064 {
            let e = w.pop().unwrap();
            w.insert(entry(e.time.as_micros() + 997, seq));
        }
        assert_eq!(w.nodes.capacity(), cap);
    }
}
