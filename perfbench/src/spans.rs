//! In-memory spans around the benchmark's calls into the program.
//!
//! Each span records its name, start and end (nanoseconds since the tracer
//! started), the span that was open when it began, and the run it belongs
//! to. Spans stay in memory until [`write_jsonl`] writes them out; a span's
//! self time is its duration minus the time its direct children cover
//! (children are strictly nested and sequential, so that is their sum).
//!
//! With tracing off, [`span`] only calls its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread (discarding any earlier ones).
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Run `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tr| {
            let id = tr.spans.len();
            tr.spans.push(Span {
                name,
                parent: tr.open.last().copied(),
                start_ns: tr.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            tr.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.spans[id].end_ns = tr.epoch.elapsed().as_nanos() as u64;
                tr.open.pop();
            }
        });
    }
    out
}

/// Total seconds spent in spans named `name` (0 with tracing off).
pub fn seconds(name: &str) -> f64 {
    TRACER.with(|t| {
        t.borrow().as_ref().map_or(0.0, |tr| {
            tr.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
                .sum()
        })
    })
}

/// Total seconds of every span whose name starts with `prefix`.
pub fn seconds_with_prefix(prefix: &str) -> f64 {
    TRACER.with(|t| {
        t.borrow().as_ref().map_or(0.0, |tr| {
            tr.spans
                .iter()
                .filter(|s| s.name.starts_with(prefix))
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
                .sum()
        })
    })
}

/// Write every recorded span as one JSON object per line, each with its
/// derived self time, and return a per-name self-time summary (seconds).
pub fn write_jsonl(path: &std::path::Path, run_id: &str) -> std::io::Result<BTreeMap<String, f64>> {
    TRACER.with(|t| {
        let guard = t.borrow();
        let Some(tr) = guard.as_ref() else {
            return Ok(BTreeMap::new());
        };
        let mut child_ns = vec![0u64; tr.spans.len()];
        for s in &tr.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut self_by_name: BTreeMap<String, f64> = BTreeMap::new();
        for (id, s) in tr.spans.iter().enumerate() {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[id]);
            *self_by_name.entry(s.name.to_string()).or_default() += self_ns as f64 / 1e9;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{run_id}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(self_by_name)
    })
}
