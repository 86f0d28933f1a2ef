//! Hierarchical timer wheel: the event-queue core at paper scale.
//!
//! A binary heap pays `O(log n)` pointer-chasing sifts per operation, and at
//! paper scale (tens of millions of pending timeout backstops per shard) the
//! sift path stops fitting in cache. The classic alternative (Varghese &
//! Lauck's hashed/hierarchical timing wheels) buckets timers by time instead:
//! scheduling is an array push, and expiry walks an occupancy bitmap.
//!
//! ## Structure
//!
//! Time is the simulator's millisecond tick ([`crate::time::SimTime`]'s raw
//! `u64`). The innermost level (level 0) has [`L0_SLOTS`] = 256 one-tick
//! slots — wide on purpose: the simulator's dominant schedules (packet
//! latencies, retry backoffs, per-tick follow-ups) land within a few hundred
//! ticks of *now* and go straight into level 0, never paying a cascade.
//! Above it sit ten 64-slot levels; level `l ≥ 1` slots are `256·64^(l-1)`
//! ticks wide, so a tick decomposes as one 8-bit group plus ten 6-bit groups
//! (8 + 10·6 = 68 ≥ 64 bits — the wheel covers the full `u64` tick range
//! with no overflow list).
//!
//! An item with expiry `t` lives at the **highest level where `t` differs
//! from the wheel's base time `base`**: level 0 holds items expiring inside
//! the current 256-tick window, level 1 the current 16384-tick window, and
//! so on. When `base` advances into a higher-level slot, that slot's items
//! *cascade* down (each item re-places at a lower level, at most [`LEVELS`]
//! moves over its lifetime).
//!
//! ## Deterministic ordering contract
//!
//! The simulator's determinism rests on popping events in exact global
//! `(time, seq)` order — ties in simulated time break by insertion sequence
//! number (and each address shard owns an independent wheel, so the full
//! tie-break is `(time, shard, seq)` with the shard implicit). The wheel
//! guarantees this bit-for-bit compatibly with a binary heap:
//!
//! * All items in one level-0 slot share the *same* expiry tick (they agree
//!   with `base` on every bit above the bottom 8, and on the slot index
//!   below), and every slot stays seq-sorted by construction, so draining a
//!   slot into the `ready` queue is a reversal, not a sort.
//! * Items scheduled *for the current tick while the current tick drains*
//!   carry strictly larger seqs than anything already in `ready`, so
//!   re-draining the slot after `ready` empties preserves global seq order.
//! * Per-level occupancy bitmaps (4×`u64` for level 0, one `u64` per upper
//!   level) find the next expiry in `O(levels)` — no tick-by-tick scan
//!   across empty gaps, which is what makes a millisecond-grained wheel
//!   viable over a 61-day simulation.
//!
//! The differential property test (`tests/wheel_props.rs`) drives this wheel
//! and a `std` binary heap keyed by `(tick, seq)` with identical
//! schedule/pop interleavings and requires identical pop sequences.

use std::mem::MaybeUninit;

/// Bits consumed by the innermost level: 256 one-tick slots, so schedules up
/// to ~a quarter second of sim time ahead never cascade.
const L0_BITS: u32 = 8;
/// Innermost-level slot count.
pub const L0_SLOTS: usize = 1 << L0_BITS;
/// Bits consumed per upper level: 64 slots.
const BITS: u32 = 6;
/// Slots per upper level.
pub const SLOTS: usize = 1 << BITS;
/// Upper (cascading) levels above level 0.
const UPPER_LEVELS: usize = 10;
/// Total levels: 8 + 10·6 = 68 bits cover every `u64` tick.
pub const LEVELS: usize = UPPER_LEVELS + 1;

/// A hierarchical timer wheel ordered by `(tick, seq)`.
///
/// The caller assigns strictly increasing, unique `seq` values (the event
/// queue's insertion counter) and never inserts a tick earlier than the last
/// popped tick — exactly the discipline [`crate::event::EventQueue`]
/// enforces by clamping schedules to `now`.
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// `L0_SLOTS + UPPER_LEVELS·SLOTS` buckets, level-major (level 0 first):
    /// `(tick, seq, payload)`. A level-0 bucket holds only the *overflow*
    /// beyond the slot's inline first item in `l0_first`.
    slots: Vec<Vec<(u64, u64, E)>>,
    /// Inline first item of each level-0 slot. Occupied iff the slot's
    /// `occ0` bit is set; always the slot's lowest-seq item (pushes are
    /// seq-monotone between drains, and a cascade batch — itself seq-sorted
    /// — only lands in an empty window). The single-item slot, by far the
    /// common case, thus costs one contiguous-array touch instead of a Vec
    /// header chase plus a heap-buffer access.
    l0_first: Box<[MaybeUninit<(u64, u64, E)>]>,
    /// Level-0 occupancy: one bit per slot, 4 words for 256 slots.
    occ0: [u64; L0_SLOTS / 64],
    /// Upper-level occupancy: `occ_hi[l-1]` is level `l`'s bitmap.
    occ_hi: [u64; UPPER_LEVELS],
    /// Reference time all placements are relative to. Advances to the tick
    /// of each drained slot; never exceeds the earliest pending expiry.
    base: u64,
    /// The current tick's items awaiting pop, in *descending* seq order so
    /// the next pop is an O(1) `Vec::pop` off the back (a deque's ring
    /// indexing costs more than it buys here).
    ready: Vec<(u64, E)>,
    /// Expiry tick of everything in `ready`.
    ready_tick: u64,
    /// Pending (un-popped) item count.
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The level at which a tick differing from `base` is stored: 0 when they
/// agree above the bottom [`L0_BITS`] bits, otherwise the upper level owning
/// the highest differing bit.
#[inline]
fn level_for(base: u64, tick: u64) -> usize {
    let diff = base ^ tick;
    if diff < (1 << L0_BITS) {
        0
    } else {
        1 + ((63 - diff.leading_zeros() - L0_BITS) / BITS) as usize
    }
}

/// Bucket index in the level-major `slots` array.
#[inline]
fn slot_index(level: usize, tick: u64) -> usize {
    if level == 0 {
        (tick & (L0_SLOTS as u64 - 1)) as usize
    } else {
        let shift = L0_BITS + BITS * (level as u32 - 1);
        L0_SLOTS + (level - 1) * SLOTS + ((tick >> shift) & (SLOTS as u64 - 1)) as usize
    }
}

/// Lowest set bit position across the level-0 bitmap, scanning from word
/// `from` (occupied level-0 slots are never below `base`'s slot, so callers
/// pass `base`'s word to skip provably-empty words).
#[inline]
fn first_occ0(occ0: &[u64; L0_SLOTS / 64], from: usize) -> Option<usize> {
    for w in from..L0_SLOTS / 64 {
        let bits = occ0[w];
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
    }
    None
}

impl<E> TimerWheel<E> {
    pub fn new() -> Self {
        let n = L0_SLOTS + UPPER_LEVELS * SLOTS;
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, Vec::new);
        TimerWheel {
            slots,
            l0_first: (0..L0_SLOTS).map(|_| MaybeUninit::uninit()).collect(),
            occ0: [0; L0_SLOTS / 64],
            occ_hi: [0; UPPER_LEVELS],
            base: 0,
            ready: Vec::new(),
            ready_tick: 0,
            len: 0,
        }
    }

    /// Insert an item expiring at `tick`. `seq` must be unique and `tick`
    /// must not precede the last popped tick.
    pub fn insert(&mut self, tick: u64, seq: u64, payload: E) {
        debug_assert!(tick >= self.base, "tick {tick} precedes wheel base {}", self.base);
        let level = level_for(self.base, tick);
        let idx = slot_index(level, tick);
        if level == 0 {
            let (w, bit) = (idx >> 6, 1u64 << (idx & 63));
            if self.occ0[w] & bit == 0 {
                // SAFETY: `idx` is masked to `< L0_SLOTS`, the length of
                // `l0_first` (a boxed slice, so the bound isn't visible to
                // the optimizer — this is the insert hot path).
                unsafe { self.l0_first.get_unchecked_mut(idx) }.write((tick, seq, payload));
                self.occ0[w] |= bit;
            } else {
                // SAFETY: `idx < L0_SLOTS <= slots.len()`.
                unsafe { self.slots.get_unchecked_mut(idx) }.push((tick, seq, payload));
            }
        } else {
            // SAFETY: `slot_index` returns `L0_SLOTS + (level-1)·SLOTS + s`
            // with `s < SLOTS` and `level <= UPPER_LEVELS`, i.e. within the
            // `L0_SLOTS + UPPER_LEVELS·SLOTS` buckets allocated in `new`.
            unsafe { self.slots.get_unchecked_mut(idx) }.push((tick, seq, payload));
            self.occ_hi[level - 1] |= 1 << (idx - L0_SLOTS - (level - 1) * SLOTS);
        }
        self.len += 1;
    }

    /// Pop the earliest `(tick, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, E)> {
        // Hot path: the current tick's drained items pop straight off the
        // back of `ready` — one branch, one Vec pop.
        if let Some((seq, payload)) = self.ready.pop() {
            self.len -= 1;
            return Some((self.ready_tick, seq, payload));
        }
        // Fast path: the placement invariant puts the global minimum in the
        // lowest occupied slot of the lowest occupied level, so when level 0
        // is occupied and that slot holds a single item, pop it directly —
        // no trip through `ready`. This is the common case (most simulation
        // ticks carry one event).
        if let Some(slot) = first_occ0(&self.occ0, (self.base as usize & (L0_SLOTS - 1)) >> 6) {
            // SAFETY: `first_occ0` returns `< L0_SLOTS <= slots.len()`.
            if unsafe { self.slots.get_unchecked(slot) }.is_empty() {
                // SAFETY: `slot < L0_SLOTS` = the cell array's length; the
                // slot's occ0 bit is set, so its inline cell is initialized,
                // and the bit is cleared before any other read.
                let (tick, seq, payload) =
                    unsafe { self.l0_first.get_unchecked(slot).assume_init_read() };
                self.occ0[slot >> 6] &= !(1u64 << (slot & 63));
                debug_assert!(tick >= self.base);
                self.base = tick;
                self.len -= 1;
                return Some((tick, seq, payload));
            }
            // Overflowed slot: take the general drain path.
        }
        if !self.ensure_ready() {
            return None;
        }
        let (seq, payload) = self.ready.pop().expect("ensure_ready");
        self.len -= 1;
        Some((self.ready_tick, seq, payload))
    }

    /// The earliest `(tick, seq)` without popping.
    ///
    /// Crucially this does **not** cascade: `base` must never advance past
    /// an event that was merely peeked (the simulator peeks at far-future
    /// phase timers while the current phase still schedules near-term
    /// events, and every insert requires `tick >= base`). Instead the
    /// candidate slot — lowest occupied slot of the lowest occupied level,
    /// which the placement invariant guarantees contains the global minimum
    /// — is scanned for its earliest `(tick, seq)`.
    pub fn peek(&self) -> Option<(u64, u64)> {
        if let Some(&(seq, _)) = self.ready.last() {
            return Some((self.ready_tick, seq));
        }
        if let Some(slot) = first_occ0(&self.occ0, (self.base as usize & (L0_SLOTS - 1)) >> 6) {
            // The inline cell holds the slot's lowest seq, which by the
            // placement invariant is the global minimum.
            // SAFETY: the occ0 bit is set, so the cell is initialized.
            let &(tick, seq, _) = unsafe { self.l0_first[slot].assume_init_ref() };
            return Some((tick, seq));
        }
        let l = (0..UPPER_LEVELS).find(|&l| self.occ_hi[l] != 0)?;
        let s = self.occ_hi[l].trailing_zeros() as usize;
        self.slots[L0_SLOTS + l * SLOTS + s]
            .iter()
            .map(|&(tick, seq, _)| (tick, seq))
            .min()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fill the empty `ready` with the earliest pending tick's items.
    /// Returns `false` iff nothing is pending.
    ///
    /// The search exploits the placement invariant: every occupied slot at
    /// level `l` agrees with `base` above its group and exceeds `base`'s
    /// group at `l` (level 0 may equal it), so the globally earliest item is
    /// always in the lowest occupied level's lowest occupied slot.
    fn ensure_ready(&mut self) -> bool {
        debug_assert!(self.ready.is_empty());
        loop {
            if let Some(slot) = first_occ0(&self.occ0, (self.base as usize & (L0_SLOTS - 1)) >> 6) {
                // All items in a level-0 slot share one tick; drain it in
                // place (disjoint field borrows: `ready` vs `slots`), so the
                // slot keeps its buffer and steady-state churn never touches
                // the allocator. The inline cell is the slot's lowest seq and
                // the overflow Vec is already seq-ascending (pushes are
                // seq-monotone between drains, and a cascade batch — itself
                // sorted — only lands in an empty window), so reversing the
                // overflow and appending the cell last yields `ready`'s
                // descending-seq order with no sort.
                self.occ0[slot >> 6] &= !(1u64 << (slot & 63));
                // SAFETY: `slot < L0_SLOTS` (from `first_occ0`); the occ0
                // bit was set, so the cell is initialized, and the bit is
                // already cleared so it cannot be read again.
                let (tick, seq, payload) =
                    unsafe { self.l0_first.get_unchecked(slot).assume_init_read() };
                debug_assert_eq!(tick, (self.base & !(L0_SLOTS as u64 - 1)) | slot as u64);
                debug_assert!(tick >= self.base);
                debug_assert!(self.slots[slot].iter().all(|&(t, _, _)| t == tick));
                debug_assert!(self.slots[slot].windows(2).all(|w| w[0].1 < w[1].1));
                debug_assert!(self.slots[slot].first().map_or(true, |&(_, s, _)| s > seq));
                self.base = tick;
                self.ready_tick = tick;
                // SAFETY: `slot < L0_SLOTS <= slots.len()`.
                let overflow = unsafe { self.slots.get_unchecked_mut(slot) };
                self.ready
                    .extend(overflow.drain(..).rev().map(|(_, seq, p)| (seq, p)));
                self.ready.push((seq, payload));
                return true;
            }
            let Some(l) = (0..UPPER_LEVELS).find(|&l| self.occ_hi[l] != 0) else {
                return false;
            };
            let level = l + 1;
            let slot = self.occ_hi[l].trailing_zeros() as usize;
            self.occ_hi[l] &= !(1u64 << slot);
            // Enter the slot's window and cascade its items down. A cascade
            // only ever moves items to *lower* levels (the placement
            // invariant), so splitting the slot array at this level lets the
            // source drain in place while its items push into lower-level
            // slots — no buffer swap, no allocation.
            let shift = L0_BITS + BITS * l as u32;
            // Mask selecting the groups *above* this level (the slot's
            // enclosing window); the top level's window is all of time.
            let window = match shift + BITS {
                w if w >= 64 => 0,
                w => !((1u64 << w) - 1),
            };
            let new_base = (self.base & window) | ((slot as u64) << shift);
            debug_assert!(new_base > self.base);
            self.base = new_base;
            let split = L0_SLOTS + l * SLOTS;
            let (lower, upper) = self.slots.split_at_mut(split);
            let occ0 = &mut self.occ0;
            let occ_hi = &mut self.occ_hi;
            let l0_first = &mut self.l0_first;
            for (tick, seq, payload) in upper[slot].drain(..) {
                let lv = level_for(new_base, tick);
                debug_assert!(lv < level);
                let idx = slot_index(lv, tick);
                if lv == 0 {
                    let (w, bit) = (idx >> 6, 1u64 << (idx & 63));
                    if occ0[w] & bit == 0 {
                        // SAFETY: `idx` is masked to `< L0_SLOTS`.
                        unsafe { l0_first.get_unchecked_mut(idx) }.write((tick, seq, payload));
                        occ0[w] |= bit;
                    } else {
                        // SAFETY: `idx < L0_SLOTS <= lower.len()` (the split
                        // is at `L0_SLOTS + l·SLOTS`).
                        unsafe { lower.get_unchecked_mut(idx) }.push((tick, seq, payload));
                    }
                } else {
                    // SAFETY: `lv < level`, so `slot_index` returns
                    // `< L0_SLOTS + l·SLOTS`, the split point.
                    unsafe { lower.get_unchecked_mut(idx) }.push((tick, seq, payload));
                    occ_hi[lv - 1] |= 1 << (idx - L0_SLOTS - (lv - 1) * SLOTS);
                }
            }
        }
    }
}

impl<E> Drop for TimerWheel<E> {
    fn drop(&mut self) {
        // Vec buckets drop themselves; only the occupied inline cells need
        // manual drops (their occ0 bits say which are initialized).
        if std::mem::needs_drop::<E>() {
            for slot in 0..L0_SLOTS {
                if self.occ0[slot >> 6] & (1u64 << (slot & 63)) != 0 {
                    // SAFETY: bit set ⟺ cell initialized, dropped only here.
                    unsafe { self.l0_first[slot].assume_init_drop() };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<&'static str>) -> Vec<(u64, u64, &'static str)> {
        std::iter::from_fn(|| w.pop()).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.insert(30, 0, "c");
        w.insert(10, 1, "a");
        w.insert(10, 2, "a2");
        w.insert(20, 3, "b");
        assert_eq!(
            drain(&mut w),
            vec![(10, 1, "a"), (10, 2, "a2"), (20, 3, "b"), (30, 0, "c")]
        );
    }

    #[test]
    fn far_future_items_cross_levels() {
        let mut w = TimerWheel::new();
        // One item per level boundary: small offsets plus window crossings.
        let ticks = [1u64, 255, 256, 16_383, 16_384, 1 << 20, 1 << 30, 5_356_800_000];
        for (i, &t) in ticks.iter().enumerate() {
            w.insert(t, i as u64, "x");
        }
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop()).map(|(t, _, _)| t).collect();
        let mut sorted = ticks.to_vec();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn same_tick_insert_during_drain_preserves_seq_order() {
        let mut w = TimerWheel::new();
        w.insert(5, 0, "first");
        w.insert(5, 1, "second");
        assert_eq!(w.pop(), Some((5, 0, "first")));
        // Scheduled for the tick currently draining: larger seq, pops after.
        w.insert(5, 2, "third");
        assert_eq!(w.pop(), Some((5, 1, "second")));
        assert_eq!(w.pop(), Some((5, 2, "third")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimerWheel::new();
        w.insert(1 << 20, 7, "far");
        w.insert(3, 9, "near");
        assert_eq!(w.peek(), Some((3, 9)));
        assert_eq!(w.pop(), Some((3, 9, "near")));
        assert_eq!(w.peek(), Some((1 << 20, 7)));
        assert_eq!(w.pop(), Some((1 << 20, 7, "far")));
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn empty_gaps_are_skipped_not_walked() {
        // A 61-day gap (5.3e9 ticks) must resolve via bitmaps, not ticks.
        let mut w = TimerWheel::new();
        w.insert(5_356_800_000, 0, "month-end");
        assert_eq!(w.pop(), Some((5_356_800_000, 0, "month-end")));
    }
}
