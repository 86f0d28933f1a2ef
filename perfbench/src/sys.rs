//! Process resource usage: CPU time over all threads from `getrusage(2)`,
//! and the peak resident set from `/proc/self/status`, which Linux lets a
//! process reset.

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn usage() -> Rusage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        _rest: [0; 13],
    };
    // SAFETY: `r` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    r
}

/// User plus system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> f64 {
    let r = usage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&r.utime) + secs(&r.stime)
}

/// Restart the process's peak resident set from its current size (Linux
/// `clear_refs` 5); where the kernel refuses, the peak keeps counting from
/// process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    hwm_kb.unwrap_or_else(|| usage().maxrss_kb as f64) / 1024.0
}
