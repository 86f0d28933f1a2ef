//! The closed-loop query client of the traced run: one thread issues the
//! next query only after the previous answer arrived.
//!
//! The mix is the one `crates/bench/benches/query.rs` replays: 40% point
//! lookups (80% of them hits), 15% scan counts, 10% event counts, 10%
//! telescope counts, 15% time-range counts and 10% table/info re-renders,
//! with labels drawn from the store's own dictionaries.

use std::time::Instant;

use ofh_store::{Answer, Query, QueryEngine, StoreReader};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const CLASSES: [&str; 6] = [
    "point",
    "count_scan",
    "count_events",
    "count_telescope",
    "range",
    "table",
];

/// Every `SAMPLE_EVERY`-th query of a pass is cross-checked after the pass.
const SAMPLE_EVERY: usize = 997;

/// A seeded stream of (class index, query) pairs over `reader`'s contents.
pub fn stream(reader: &StoreReader, n: usize, seed: u64) -> Vec<(usize, Query)> {
    let scan = reader.table("scan").expect("store has a scan table");
    let events = reader.table("events").expect("store has an events table");
    let tel = reader
        .table("telescope")
        .expect("store has a telescope table");
    let addr_view = scan.u32("addr").expect("scan table has addr");
    let file = reader.bytes();

    let mut rng = StdRng::seed_from_u64(seed);
    let rows = addr_view.rows();
    let hit_addrs: Vec<u32> = (0..4096)
        .map(|_| addr_view.get(file, rng.gen_range(0..rows)))
        .collect();
    let labels = |table: &ofh_store::segment::TableView, col: &str| -> Vec<String> {
        table.dict(col).expect("dictionary column").labels.clone()
    };
    let scan_sources = labels(scan, "source");
    let scan_protocols = labels(scan, "protocol");
    let scan_misconfigs = labels(scan, "misconfig");
    let scan_countries = labels(scan, "country");
    let ev_honeypots = labels(events, "honeypot");
    let ev_attack_types = labels(events, "attack_type");
    let ev_classes = labels(events, "src_class");
    let tel_protocols = labels(tel, "protocol");
    let tel_countries = labels(tel, "country");

    let time = events.t64("time").expect("events table has time");
    let (t_min, t_max) = match (time.blocks.first(), time.blocks.last()) {
        (Some(a), Some(b)) => (a.min, b.max),
        _ => (0, 1),
    };
    let span = (t_max - t_min).max(1);
    let pick = |rng: &mut StdRng, v: &[String]| -> Option<String> {
        if v.is_empty() || rng.gen_bool(0.5) {
            None
        } else {
            Some(v[rng.gen_range(0..v.len())].clone())
        }
    };

    (0..n)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=39 => {
                let addr = if rng.gen_bool(0.8) {
                    hit_addrs[rng.gen_range(0..hit_addrs.len())]
                } else {
                    0xF000_0000 | rng.gen_range(0..0x0FFF_FFFFu32)
                };
                (0, Query::HostLookup { addr: addr.into() })
            }
            40..=54 => (
                1,
                Query::CountScan {
                    source: pick(&mut rng, &scan_sources),
                    protocol: pick(&mut rng, &scan_protocols),
                    misconfig: pick(&mut rng, &scan_misconfigs),
                    country: pick(&mut rng, &scan_countries),
                },
            ),
            55..=64 => (
                2,
                Query::CountEvents {
                    honeypot: pick(&mut rng, &ev_honeypots),
                    protocol: pick(&mut rng, &scan_protocols),
                    attack_type: pick(&mut rng, &ev_attack_types),
                    class: pick(&mut rng, &ev_classes),
                },
            ),
            65..=74 => (
                3,
                Query::CountTelescope {
                    protocol: pick(&mut rng, &tel_protocols),
                    country: pick(&mut rng, &tel_countries),
                },
            ),
            75..=89 => {
                let start = t_min + rng.gen_range(0..span);
                (
                    4,
                    Query::EventsInRange {
                        start_ms: start,
                        end_ms: start + span / 64 + 1,
                        honeypot: pick(&mut rng, &ev_honeypots),
                    },
                )
            }
            _ => (
                5,
                match rng.gen_range(0..4u32) {
                    0 => Query::Table(4),
                    1 => Query::Table(5),
                    2 => Query::Table(7),
                    _ => Query::Info,
                },
            ),
        })
        .collect()
}

/// What one pass over a query stream measured.
pub struct Pass {
    /// Issue-to-answer nanoseconds, per query, in stream order.
    pub latency_ns: Vec<u64>,
    /// Queries that returned `Err`.
    pub errors: u64,
    /// (stream index, answer) of the sampled queries, for [`cross_check`].
    pub sampled: Vec<(usize, Answer)>,
}

/// Issue every query of `queries` in order against `engine`.
pub fn run_pass(engine: &QueryEngine, queries: &[(usize, Query)]) -> Pass {
    let mut latency_ns = Vec::with_capacity(queries.len());
    let mut sampled = Vec::with_capacity(queries.len() / SAMPLE_EVERY + 1);
    let mut errors = 0;
    for (i, (_, q)) in queries.iter().enumerate() {
        let q0 = Instant::now();
        let answer = engine.query(q);
        latency_ns.push(q0.elapsed().as_nanos() as u64);
        match answer {
            Ok(a) if i % SAMPLE_EVERY == 0 => sampled.push((i, a)),
            Ok(a) => {
                std::hint::black_box(a);
            }
            Err(_) => errors += 1,
        }
    }
    Pass {
        latency_ns,
        errors,
        sampled,
    }
}

/// Re-answer each sampled query on the uncached reader and compare; table
/// answers must also equal the live renders (`live_tables` holds Tables 4,
/// 5 and 7 as the study rendered them). Returns (checked, mismatched).
pub fn cross_check(
    reader: &StoreReader,
    queries: &[(usize, Query)],
    sampled: &[(usize, Answer)],
    live_tables: &[String; 3],
) -> (u64, u64) {
    let mut bad = 0;
    for (i, answer) in sampled {
        let q = &queries[*i].1;
        if reader.execute(q).ok().as_ref() != Some(answer) {
            bad += 1;
            continue;
        }
        let live = match q {
            Query::Table(4) => Some(&live_tables[0]),
            Query::Table(5) => Some(&live_tables[1]),
            Query::Table(7) => Some(&live_tables[2]),
            _ => None,
        };
        if let Some(live) = live {
            if *answer != Answer::Rendered(live.clone()) {
                bad += 1;
            }
        }
    }
    (sampled.len() as u64, bad)
}

/// The value at quantile `p` of an ascending slice (nearest rank).
pub fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}
