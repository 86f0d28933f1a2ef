//! Inputs that cross a trust boundary must never panic: a `--faults
//! FILE.json` schedule and the two snapshot files `openforhire obsdiff`
//! compares. Each property takes real bytes (the shipped brownout schedule,
//! a real quick-preset snapshot), truncates them or flips a few bits, and
//! requires an `Ok` or a clean `Err` from the same code path the CLI runs.
//!
//! The snapshot tests also pin backward compatibility: a snapshot written
//! while the host section still carried `pool_hits`/`pool_misses` loads,
//! and `obsdiff` against a current snapshot of the same run exits 0.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use ofh_core::obs::{diff_snapshots, DiffOptions, MetricsSnapshot};
use ofh_core::{faults_from_arg, Study, StudyConfig};
use proptest::prelude::*;

/// One corruption of a byte string.
#[derive(Debug, Clone)]
enum Mutation {
    /// Keep only the first `n % (len + 1)` bytes.
    Truncate(usize),
    /// Flip bit `bit` of byte `pos % len`, for each pair.
    Flip(Vec<(usize, u8)>),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        1 => any::<usize>().prop_map(Mutation::Truncate),
        3 => prop::collection::vec((any::<usize>(), 0u8..8), 1..4).prop_map(Mutation::Flip),
    ]
}

fn apply(bytes: &[u8], m: &Mutation) -> Vec<u8> {
    match m {
        Mutation::Truncate(n) => bytes[..n % (bytes.len() + 1)].to_vec(),
        Mutation::Flip(flips) => {
            let mut out = bytes.to_vec();
            for &(pos, bit) in flips {
                let i = pos % out.len();
                out[i] ^= 1 << bit;
            }
            out
        }
    }
}

/// A per-test scratch path, so parallel tests never share a file.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ofh-untrusted-{}-{name}", std::process::id()))
}

fn brownout_bytes() -> Vec<u8> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/faults_brownout.json");
    std::fs::read(path).expect("shipped brownout schedule")
}

/// The snapshot a quick seed-7 run writes to `--metrics-out`, as JSON.
fn quick_snapshot_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let report = Study::new(StudyConfig::quick(7)).run();
        serde_json::to_string(&report.metrics).expect("snapshot serializes")
    })
}

/// The same snapshot as written before the payload pool was removed: two
/// extra counters at the front of the host section.
fn with_legacy_pool_keys(json: &str) -> String {
    let legacy = json.replacen(
        "\"host\":{",
        "\"host\":{\"pool_hits\":0,\"pool_misses\":174404,",
        1,
    );
    assert_ne!(legacy, json, "snapshot has a host section");
    legacy
}

#[test]
fn shipped_schedule_parses() {
    let path = scratch("brownout.json");
    std::fs::write(&path, brownout_bytes()).unwrap();
    let schedule = faults_from_arg(path.to_str().unwrap());
    std::fs::remove_file(&path).ok();
    assert_eq!(schedule.expect("unmutated schedule is valid").phases.len(), 3);
}

#[test]
fn legacy_snapshot_loads_and_diffs_clean() {
    let current = quick_snapshot_json();
    let legacy = with_legacy_pool_keys(current);
    let a = MetricsSnapshot::from_json(&legacy).expect("legacy snapshot loads");
    let b = MetricsSnapshot::from_json(current).expect("current snapshot loads");
    let d = diff_snapshots(&a, &b, &DiffOptions::default());
    assert!(d.clean(), "legacy vs current drifted:\n{}", d.render());
}

#[test]
fn obsdiff_cli_accepts_legacy_snapshot() {
    let current = quick_snapshot_json();
    let (old_path, new_path) = (scratch("legacy.json"), scratch("current.json"));
    std::fs::write(&old_path, with_legacy_pool_keys(current)).unwrap();
    std::fs::write(&new_path, current).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_openforhire"))
        .arg("obsdiff")
        .arg(&old_path)
        .arg(&new_path)
        .output()
        .expect("run openforhire obsdiff");
    std::fs::remove_file(&old_path).ok();
    std::fs::remove_file(&new_path).ok();
    assert!(
        out.status.success(),
        "obsdiff exited {:?}: {}{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `--faults FILE.json`: a corrupted schedule file is `Ok` or `Err`.
    #[test]
    fn corrupted_fault_schedule_never_panics(m in mutation()) {
        let path = scratch("faults.json");
        std::fs::write(&path, apply(&brownout_bytes(), &m)).unwrap();
        let _ = faults_from_arg(path.to_str().unwrap());
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Either `obsdiff` input corrupted: the load is `Ok` or `Err`, and a
    /// snapshot that still loads diffs against the original in either
    /// order without panicking.
    #[test]
    fn corrupted_snapshot_never_panics(m in mutation()) {
        let original = quick_snapshot_json();
        let good = MetricsSnapshot::from_json(original).expect("real snapshot loads");
        let bytes = apply(original.as_bytes(), &m);
        // The CLI reads the file as UTF-8 text first; invalid UTF-8 is an
        // `Err` there, before the parser runs.
        if let Ok(text) = String::from_utf8(bytes) {
            if let Ok(bad) = MetricsSnapshot::from_json(&text) {
                let opts = DiffOptions { volatile_pct: Some(0.25) };
                let _ = diff_snapshots(&bad, &good, &opts).render();
                let _ = diff_snapshots(&good, &bad, &opts).render();
            }
        }
    }
}
