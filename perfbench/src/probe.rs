//! Host-speed probe: a fixed kernel that owes nothing to the program,
//! timed between studies so each study's times can be scaled to the
//! reference host speed.
//!
//! The benchmark's host is a VM on a shared machine whose speed drifts by
//! tens of percent over minutes as neighbours come and go; a study's raw
//! time tracks that drift more than any change to the program. The probe
//! runs the same work every time — random read-modify-writes over a
//! 128 MiB table, then a dependent integer-hash chain — so its time moves
//! only with the host. A study's time times [`REFERENCE_S`] over the probe
//! time measured around it is the time the study would have taken on the
//! host when the probe read [`REFERENCE_S`].
//!
//! The probe's table is allocated for each measurement and freed before the
//! study runs, so it never counts in the study's peak resident memory.

use std::time::Instant;

/// Probe time on the reference host (2-vCPU Xeon VM, quiet spell).
pub const REFERENCE_S: f64 = 0.2;

/// Timed repetitions per measurement; their median is the reading.
const REPS: usize = 3;
const TABLE_WORDS: usize = 1 << 24;
const TABLE_STEPS: u64 = 2_000_000;
const HASH_STEPS: u64 = 75_000_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One timed repetition over a prepared table.
fn once(table: &mut [u64], rep: u64) -> f64 {
    let mask = table.len() - 1;
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1D ^ rep;
    let mut acc = 0u64;
    for i in 0..TABLE_STEPS {
        x = xorshift(x);
        let j = x as usize & mask;
        acc = acc.wrapping_add(table[j]);
        table[j] = acc ^ i;
    }
    let mut h = acc;
    for i in 0..HASH_STEPS {
        h = (h ^ i).wrapping_mul(0x100_0000_01B3).rotate_left(17);
    }
    std::hint::black_box(h);
    t0.elapsed().as_secs_f64()
}

/// Median probe time in seconds over [`REPS`] repetitions, on this thread.
pub fn measure() -> f64 {
    let mut table: Vec<u64> = (0..TABLE_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut times: Vec<f64> = (0..REPS as u64).map(|r| once(&mut table, r)).collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}
