//! Differential property tests: the hierarchical timer wheel against a
//! `std` binary heap.
//!
//! The simulator's determinism contract is that events pop in exact global
//! `(time, shard, seq)` order — each shard owns an independent queue, so
//! within a queue the contract is `(time, seq)`. The heap implements that
//! order by comparison; the wheel by bucketing and cascading. These tests
//! drive both with identical schedule/pop interleavings (including
//! same-tick ties and far-future timers that cross every wheel level) and
//! require bit-identical pop sequences.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ofh_net::TimerWheel;
use proptest::prelude::*;

/// One step of an interleaving. Payload is the seq itself so a mismatch in
/// routing (not just ordering) would also surface.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `last popped tick + delta` (deltas of 0 create ties;
    /// huge deltas cross wheel levels).
    Schedule { delta: u64 },
    /// Pop once from both queues and compare.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => delta_strategy().prop_map(|delta| Op::Schedule { delta }),
        3 => Just(Op::Pop),
    ]
}

/// Deltas biased toward the interesting regimes: same-tick ties, the level-0
/// window, mid levels, and far-future jumps beyond level 5 (64^5 ≈ 1.07e9
/// ticks — past the 61-day simulation horizon).
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => Just(0u64),
        4 => 0u64..64,
        3 => 0u64..4096,
        2 => 0u64..300_000,
        2 => 0u64..6_000_000_000,
        1 => 0u64..u64::MAX / 4,
    ]
}

/// The oracle: a min-heap of `(tick, seq, payload)`, which pops in exactly
/// the `(tick, seq)` order the wheel promises.
#[derive(Default)]
struct Heap(BinaryHeap<Reverse<(u64, u64, u64)>>);

impl Heap {
    fn pop(&mut self) -> Option<(u64, u64, u64)> {
        self.0.pop().map(|Reverse(item)| item)
    }

    fn peek(&self) -> Option<(u64, u64)> {
        self.0.peek().map(|&Reverse((tick, seq, _))| (tick, seq))
    }
}

/// Run one interleaving against both queues, checking every pop and the
/// final drain agree exactly.
fn differential(ops: Vec<Op>) {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut heap = Heap::default();
    let mut next_seq = 0u64;
    let mut clock = 0u64; // last popped tick: schedules clamp here, like EventQueue

    for op in ops {
        match op {
            Op::Schedule { delta } => {
                let tick = clock.saturating_add(delta);
                let seq = next_seq;
                next_seq += 1;
                wheel.insert(tick, seq, seq);
                heap.0.push(Reverse((tick, seq, seq)));
            }
            Op::Pop => {
                prop_assert_eq!(wheel.peek(), heap.peek(), "peek diverged");
                let (w, h) = (wheel.pop(), heap.pop());
                prop_assert_eq!(w, h, "pop diverged");
                if let Some((tick, seq, payload)) = w {
                    prop_assert_eq!(seq, payload);
                    prop_assert!(tick >= clock, "time ran backwards");
                    clock = tick;
                }
            }
        }
        prop_assert_eq!(wheel.len(), heap.0.len(), "len diverged");
    }
    // Drain both to the end: the tail order must agree too.
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        prop_assert_eq!(w, h, "drain diverged");
        if w.is_none() {
            break;
        }
    }
    prop_assert!(wheel.is_empty() && heap.0.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary schedule/pop interleavings pop identically.
    #[test]
    fn wheel_matches_heap_oracle(ops in prop::collection::vec(op_strategy(), 0..400)) {
        differential(ops);
    }

    /// All-ties stress: every event lands on one of two adjacent ticks, so
    /// ordering is decided almost entirely by seq.
    #[test]
    fn same_tick_ties_break_identically(
        deltas in prop::collection::vec(0u64..2, 1..200),
        pops in 1usize..100,
    ) {
        let mut ops: Vec<Op> = deltas.into_iter().map(|delta| Op::Schedule { delta }).collect();
        for _ in 0..pops {
            ops.push(Op::Pop);
        }
        differential(ops);
    }

    /// Far-future stress: timers scattered across all eleven wheel levels,
    /// popped dry, then rescheduled from the advanced clock.
    #[test]
    fn cross_level_timers_pop_identically(
        rounds in prop::collection::vec(
            prop::collection::vec(delta_strategy(), 1..40),
            1..5,
        ),
    ) {
        let mut ops = Vec::new();
        for deltas in rounds {
            let n = deltas.len();
            ops.extend(deltas.into_iter().map(|delta| Op::Schedule { delta }));
            // Drain more than scheduled: exercises empty pops mid-stream.
            ops.extend(std::iter::repeat_with(|| Op::Pop).take(n + 2));
        }
        differential(ops);
    }
}
