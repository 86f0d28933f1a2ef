//! The discrete-event queue at the heart of the simulator.
//!
//! Events are ordered by (time, sequence number): ties in simulated time are
//! broken by insertion order, which keeps the simulation deterministic without
//! requiring every producer to pick unique timestamps.
//!
//! The queue is backed by a hierarchical timer wheel
//! ([`crate::wheel::TimerWheel`]) — `O(1)` schedule, near-`O(1)` pop. The
//! differential property suite (`tests/wheel_props.rs`) checks the wheel's
//! pop order against a `std` binary heap keyed by `(time, seq)`.

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// A deterministic earliest-first event queue, backed by a hierarchical
/// timer wheel.
///
/// The queue owns the two pieces of state the wheel delegates to its caller:
/// the strictly-increasing sequence counter (the deterministic tie-break for
/// same-tick events) and the simulation clock, to which past schedules are
/// clamped so time never runs backwards. The observable pop sequence is the
/// exact global `(time, seq)` order — byte-identical to the binary-heap
/// implementation it replaced, which `tests/wheel_props.rs` proves by
/// differential testing against `std`'s `BinaryHeap`.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Force the clock forward (used when starting an experiment phase at a
    /// given calendar instant). Panics if this would move time backwards.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot move simulated time backwards");
        self.now = t;
    }

    /// Schedule `payload` at absolute time `at`. Events scheduled in the past
    /// are clamped to `now` (they run next, in scheduling order).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.insert(at.0, seq, payload);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (tick, _seq, payload) = self.wheel.pop()?;
        debug_assert!(tick >= self.now.0);
        self.now = SimTime(tick);
        Some((self.now, payload))
    }

    /// Pop the earliest event if its timestamp is `<= deadline`, advancing
    /// the clock.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (tick, _) = self.wheel.peek()?;
        if tick > deadline.0 {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek().map(|(tick, _)| SimTime(tick))
    }

    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule(SimTime(5), label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(100));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), "late");
        q.pop();
        q.schedule(SimTime(10), "early-but-past");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(100)); // clamped, time never runs backwards
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::ZERO + SimDuration::from_days(31));
        assert_eq!(q.now().day_index(), 31);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_to_rejects_backwards() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime(10));
        q.advance_to(SimTime(5));
    }

    #[test]
    fn schedule_after_advance_lands_in_far_window() {
        // advance_to moves the clock without popping; later schedules must
        // still order correctly across wheel levels.
        let mut q = EventQueue::new();
        q.advance_to(SimTime::ZERO + SimDuration::from_days(31));
        let day31 = q.now();
        q.schedule(day31 + SimDuration::from_days(30), "month-end");
        q.schedule(day31 + SimDuration::from_millis(1), "soon");
        q.schedule(day31, "now");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["now", "soon", "month-end"]);
    }
}
