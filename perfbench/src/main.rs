//! The openforhire benchmark: one command, two workloads.
//!
//! ```text
//! perfbench --workload <paper-scale|standard-hostile> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-check
//! ```
//!
//! * `paper-scale` — `Study::run` on `StudyConfig::paper_scale`: the sparse
//!   2^32 scan, its serial merge/analysis tail, and a ~55 MB store.
//! * `standard-hostile` — `Study::run` on `StudyConfig::standard` under the
//!   `hostile` fault preset: a dense 2^20 scan where most SYNs really time
//!   out and every fault path runs.
//!
//! Both run with `workers 0`. A run repeats the study while another one
//! still ends within `--seconds`, at least once. Each study is bracketed by
//! a host-speed probe, and its times are reported at the reference host
//! speed (see [`probe`]).
//!
//! `--trace 0` reports the end-to-end metrics with the benchmark's spans and
//! the program's observability off. `--trace 1` runs the traced pipeline
//! once: an untraced and a traced `Study::run` of the same seed (order
//! alternating with the seed), the store build, reopen and a query pass over
//! it, and replays of setup, merge and analysis, each call inside a span. It
//! reports the per-layer metrics and writes the spans to
//! `perfbench/out/spans-<workload>-seed<n>.jsonl`.
//!
//! Every run checks its outputs. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod probe;
mod queries;
mod replay;
mod spans;
mod sys;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ofh_core::obs::ObsConfig;
use ofh_core::{faults_from_arg, Study, StudyConfig, StudyReport};
use ofh_store::{QueryEngine, StoreReader};

use spans::span;

/// Queries an untraced run issues against its store to cross-check answers.
const CHECK_QUERIES: usize = 20_000;
/// Queries of the traced run's pass, timed per query class.
const TRACE_QUERIES: usize = 100_000;

/// SHA-256 of `render_full` and of the store bytes at seed 7, per workload.
const SEED7_DIGESTS: [(&str, &str, &str); 2] = [
    (
        "paper-scale",
        "e3aae4445bfc10f3297a3473c55f74d21cfbba4ee87c2130d8ee48a70ce8d4df",
        "529aa51cfcea50f8de65018d54f5a6535d456658aad1c28e75bc2c30c8389c8b",
    ),
    (
        "standard-hostile",
        "56434214fdbb4abc96cee0df72b1c3aca70df168e6d6196b018514937ee92be1",
        "06211b4cac77d3440c75799d275928dc4dc61b585f6bdc6cf7e93166f12aacad",
    ),
];

/// Pass/fail tally of every output check a run makes.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Metrics in report order: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

struct Workload {
    name: &'static str,
    cfg: StudyConfig,
    /// Divides the query counts (the self-check's tiny runs).
    query_divisor: usize,
    /// Whether seed 7 is checked against [`SEED7_DIGESTS`] (full presets).
    digests: bool,
}

/// The named workload at `seed`; `tiny` swaps in the small presets the
/// self-check uses.
fn workload(name: &str, seed: u64, tiny: bool) -> Option<Workload> {
    let (name, mut cfg) = match name {
        "paper-scale" => (
            "paper-scale",
            if tiny {
                StudyConfig::paper_smoke(seed)
            } else {
                StudyConfig::paper_scale(seed)
            },
        ),
        "standard-hostile" => {
            let mut cfg = if tiny {
                StudyConfig::quick(seed)
            } else {
                StudyConfig::standard(seed)
            };
            cfg.faults = faults_from_arg("hostile").expect("hostile is a fault preset");
            ("standard-hostile", cfg)
        }
        _ => return None,
    };
    cfg.workers = 0;
    cfg.obs = ObsConfig::disabled();
    Some(Workload {
        name,
        cfg,
        query_divisor: if tiny { 20 } else { 1 },
        digests: !tiny,
    })
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn hex_sha256(bytes: &[u8]) -> String {
    ofh_core::intel::sha256(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn live_tables(report: &StudyReport) -> [String; 3] {
    [
        report.table4.render(),
        report.table5.render(),
        report.table7.render(),
    ]
}

/// Checks every seed gets: the retry machinery drained, and the store's
/// Tables 4/5/7 equal the live renders.
fn check_store(
    report: &StudyReport,
    reader: &StoreReader,
    live: &[String; 3],
    checks: &mut Checks,
) {
    checks.check(
        "no leaked retry state",
        report.resilience.leaked_connections == 0,
    );
    let stored = [
        ofh_store::tables::table4(reader).map(|t| t.render()),
        ofh_store::tables::table5(reader).map(|t| t.render()),
        ofh_store::tables::table7(reader).map(|t| t.render()),
    ];
    for (n, (live, stored)) in [4, 5, 7].iter().zip(live.iter().zip(stored)) {
        checks.check(
            &format!("store table {n} equals live"),
            stored.ok().as_ref() == Some(live),
        );
    }
}

/// At seed 7, the report and the store bytes must match the recorded
/// digests.
fn check_digests(w: &Workload, report: &StudyReport, store: &Path, checks: &mut Checks) {
    let render = hex_sha256(report.render_full().as_bytes());
    let bytes = std::fs::read(store)
        .map(|b| hex_sha256(&b))
        .unwrap_or_default();
    println!("digest {} render_full sha256 {render}", w.name);
    println!("digest {} store sha256 {bytes}", w.name);
    let (_, want_render, want_store) = SEED7_DIGESTS
        .iter()
        .find(|(name, _, _)| *name == w.name)
        .expect("every workload has digests");
    checks.check("seed-7 render_full digest", render == *want_render);
    checks.check("seed-7 store digest", bytes == *want_store);
}

/// Run the workload's study once, timed.
fn run_study(cfg: &StudyConfig) -> (StudyReport, f64, f64) {
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let report = span("study.run", || Study::new(cfg.clone()).run());
    (
        report,
        t0.elapsed().as_secs_f64(),
        sys::cpu_seconds() - cpu0,
    )
}

fn stage_seconds(report: &StudyReport, stage: &str) -> f64 {
    let node = report.metrics.host.profile.child(stage);
    node.map_or(0.0, |n| n.wall_ns as f64 / 1e9)
}

/// One query pass over an open store, with what it was served from.
struct Served {
    pass: queries::Pass,
    stream: Vec<(usize, ofh_store::Query)>,
    engine: QueryEngine,
}

/// Build a query stream and an engine over `reader`, run one pass, and
/// check every answer: an `Err` fails, and a sample is cross-checked.
fn serve(
    reader: StoreReader,
    live: &[String; 3],
    n: usize,
    seed: u64,
    checks: &mut Checks,
) -> Served {
    let reader = Arc::new(reader);
    let stream = queries::stream(&reader, n, seed);
    let engine = QueryEngine::new(Arc::clone(&reader));
    let pass = span("store.query_pass", || queries::run_pass(&engine, &stream));
    let (checked, bad) = queries::cross_check(&reader, &stream, &pass.sampled, live);
    checks.attempted += checked + pass.latency_ns.len() as u64;
    checks.failed += bad + pass.errors;
    Served {
        pass,
        stream,
        engine,
    }
}

/// `--trace 0`: run the workload's study while another run still ends
/// within `seconds`, at least once; report medians over the runs.
///
/// Every study is bracketed by host-speed probes, and its times are scaled
/// to the reference host speed by the mean of the two readings (see
/// [`probe`]); the raw medians are printed beside the result. Peak memory
/// is the largest resident set any study reached. The first run's report
/// is also written to the store, reopened and checked.
fn measure(w: &Workload, seed: u64, seconds: f64, checks: &mut Checks) -> Metrics {
    let start = Instant::now();
    let (mut setup, mut wall, mut cpu) = (vec![], vec![], vec![]);
    let (mut raw_setup, mut raw_wall, mut raw_cpu, mut probes) = (vec![], vec![], vec![], vec![]);
    let mut peak_rss = 0.0f64;
    let mut probe_before = probe::measure();
    probes.push(probe_before);
    loop {
        let cycle_start = start.elapsed().as_secs_f64();
        sys::reset_peak_rss();
        let (report, wall_s, cpu_s) = run_study(&w.cfg);
        peak_rss = peak_rss.max(sys::peak_rss_mb());
        let probe_after = probe::measure();
        probes.push(probe_after);
        let scale = probe::REFERENCE_S / ((probe_before + probe_after) / 2.0);
        probe_before = probe_after;
        let setup_s = stage_seconds(&report, "setup");
        raw_setup.push(setup_s);
        raw_wall.push(wall_s);
        raw_cpu.push(cpu_s);
        setup.push(setup_s * scale);
        wall.push(wall_s * scale);
        cpu.push(cpu_s * scale);
        if wall.len() == 1 {
            check_written_store(w, &report, seed, checks);
        }
        drop(report);
        let elapsed = start.elapsed().as_secs_f64();
        eprintln!(
            "cycle {}: study {wall_s:.3} s, host scale {scale:.3}, {elapsed:.1} s elapsed",
            wall.len()
        );
        if elapsed + (elapsed - cycle_start) > seconds {
            break;
        }
    }
    println!("studies {}", wall.len());
    println!("probe_s {} s (median of {})", median(&probes), probes.len());
    println!("raw setup_s {} s", median(&raw_setup));
    println!("raw wall_s {} s", median(&raw_wall));
    println!("raw cpu_s {} s", median(&raw_cpu));
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup), "s");
    m.put("wall_s", median(&wall), "s");
    m.put("cpu_s", median(&cpu), "s");
    m.put("peak_rss_mb", peak_rss, "MB");
    m
}

/// Write the report's store, reopen it, and check it: digests at seed 7,
/// Tables 4/5/7 against the live renders, and a cross-checked query pass.
fn check_written_store(w: &Workload, report: &StudyReport, seed: u64, checks: &mut Checks) {
    let store_path = out_dir().join(format!("{}-seed{seed}.store", w.name));
    checks.check("store written", report.write_store(&store_path).is_ok());
    if seed == 7 && w.digests {
        check_digests(w, report, &store_path, checks);
    }
    match StoreReader::open(&store_path) {
        Ok(reader) => {
            let live = live_tables(report);
            check_store(report, &reader, &live, checks);
            serve(reader, &live, CHECK_QUERIES / w.query_divisor, seed, checks);
        }
        Err(_) => checks.check("store opens", false),
    }
    let _ = std::fs::remove_file(&store_path);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `--trace 1`: the traced pipeline and every per-layer metric.
fn trace(w: &Workload, seed: u64, checks: &mut Checks) -> Metrics {
    let probe_s = probe::measure();
    spans::enable();
    let run_id = format!("{}-seed{seed}-pid{}", w.name, std::process::id());
    let store_path = out_dir().join(format!("{}-seed{seed}-traced.store", w.name));

    // An untraced and a traced run of the same seed; which goes first
    // alternates with the seed so neither always runs on a cold process.
    let mut untraced_wall = 0.0;
    let mut untraced_profile = None;
    let mut traced = None;
    let mut pool = (0, 0);
    let order = if seed.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    };
    for obs_on in order {
        let mut cfg = w.cfg.clone();
        cfg.obs = if obs_on {
            ObsConfig::default()
        } else {
            ObsConfig::disabled()
        };
        let before = ofh_core::net::Payload::pool_stats();
        let (report, wall_s, _) = run_study(&cfg);
        if obs_on {
            let after = ofh_core::net::Payload::pool_stats();
            pool = (after.0 - before.0, after.1 - before.1);
            traced = Some((report, wall_s));
        } else {
            untraced_wall = wall_s;
            untraced_profile = Some(report.metrics.host.profile.clone());
        }
    }
    let (report, traced_wall) = traced.expect("the traced run happened");
    let untraced_profile = untraced_profile.expect("the untraced run happened");
    let stage = |name: &str| {
        untraced_profile
            .child(name)
            .map_or(0.0, |n| n.wall_ns as f64 / 1e9)
    };

    // Store: build, write, reopen, uncached re-renders, one query pass.
    let bytes = span("store.build", || report.build_store());
    let written = span("store.write", || std::fs::write(&store_path, &bytes));
    checks.check("store written", written.is_ok());
    let store_bytes = bytes.len() as f64;
    drop(bytes);
    let mut m = Metrics::default();
    let reader = span("store.open", || StoreReader::open(&store_path));
    let mut store_rows = 0.0;
    let mut query_metrics = Metrics::default();
    match reader {
        Ok(reader) => {
            for t in ["scan", "events", "telescope"] {
                store_rows += reader.table(t).map_or(0, |v| v.rows) as f64;
            }
            span("store.table4", || {
                std::hint::black_box(ofh_store::tables::table4(&reader).is_ok())
            });
            span("store.table5", || {
                std::hint::black_box(ofh_store::tables::table5(&reader).is_ok())
            });
            span("store.table7", || {
                std::hint::black_box(ofh_store::tables::table7(&reader).is_ok())
            });
            let live = live_tables(&report);
            check_store(&report, &reader, &live, checks);
            let n = TRACE_QUERIES / w.query_divisor;
            let Served {
                pass,
                stream,
                engine,
            } = serve(reader, &live, n, seed, checks);
            let mut by_class: Vec<Vec<u64>> = vec![Vec::new(); queries::CLASSES.len()];
            for ((class, _), ns) in stream.iter().zip(&pass.latency_ns) {
                by_class[*class].push(*ns);
            }
            for (class, mut lat) in queries::CLASSES.iter().zip(by_class) {
                lat.sort_unstable();
                let p50 = queries::quantile(&lat, 0.50) as f64 / 1e3;
                let p99 = queries::quantile(&lat, 0.99) as f64 / 1e3;
                query_metrics.put(format!("store.query.{class}.p50_us"), p50, "us");
                query_metrics.put(format!("store.query.{class}.p99_us"), p99, "us");
                query_metrics.put(
                    format!("store.query.{class}.count"),
                    lat.len() as f64,
                    "count",
                );
            }
            let (hits, misses) = engine.cache_stats();
            query_metrics.put(
                "store.lru_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            );
            let pruned: u64 = engine
                .snapshot()
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("store.query.rows_pruned"))
                .map(|(_, v)| v)
                .sum();
            query_metrics.put(
                "store.rows_pruned_per_query",
                ratio(pruned as f64, stream.len() as f64),
                "count",
            );
        }
        Err(_) => checks.check("store opens", false),
    }
    let _ = std::fs::remove_file(&store_path);

    // Replays of setup, merge and analysis.
    let setup = replay::setup(&report.config);
    let dataset = replay::merge(&report, checks);
    replay::analysis(&report, &setup, &dataset, checks);
    drop(dataset);
    let candidates = replay::layers(&report);

    let spans_path = out_dir().join(format!("spans-{}-seed{seed}.jsonl", w.name));
    match spans::write_jsonl(&spans_path, &run_id) {
        Ok(self_time) => {
            println!("wrote {}", spans_path.display());
            let mut top: Vec<_> = self_time.into_iter().collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (name, s) in top.iter().take(12) {
                println!("span self time {name:<32} {s:.4} s");
            }
        }
        Err(e) => checks.check(&format!("spans written ({e})"), false),
    }

    // ---- core ----
    let profile = &report.metrics.host.profile;
    let node = |name: &str| profile.child(name);
    let secs = |ns: u64| ns as f64 / 1e9;
    let simulate = node("simulate").cloned().unwrap_or_default();
    m.put("core.simulate_s", secs(simulate.wall_ns), "s");
    m.put(
        "core.merge_s",
        node("merge").map_or(0.0, |n| secs(n.wall_ns)),
        "s",
    );
    m.put(
        "core.analysis_s",
        node("analysis").map_or(0.0, |n| secs(n.wall_ns)),
        "s",
    );
    m.put("core.simulate_cpu_s", secs(simulate.cpu_ns), "s");
    m.put(
        "core.simulate_parallelism",
        ratio(simulate.cpu_ns as f64, simulate.wall_ns as f64),
        "ratio",
    );
    for phase in ["wire", "scan", "fingerprint", "month", "extract"] {
        let total: u64 = simulate
            .children
            .iter()
            .filter_map(|shard| shard.child(phase))
            .map(|p| p.cpu_ns)
            .sum();
        m.put(format!("core.phase.{phase}_cpu_s"), secs(total), "s");
    }
    let shard_cpu: Vec<f64> = simulate.children.iter().map(|s| s.cpu_ns as f64).collect();
    let mean = shard_cpu.iter().sum::<f64>() / shard_cpu.len().max(1) as f64;
    let max = shard_cpu.iter().copied().fold(0.0, f64::max);
    m.put("core.shard_imbalance", ratio(max, mean), "ratio");
    m.put("core.steals", report.metrics.host.steals as f64, "count");

    // ---- devices / attack / intel ----
    m.put(
        "devices.population_build_s",
        spans::seconds("devices.population_build"),
        "s",
    );
    m.put("devices.records", report.population_size as f64, "count");
    m.put(
        "attack.plan_build_s",
        spans::seconds("attack.plan_build"),
        "s",
    );
    m.put("attack.actors", setup.plan.actors.len() as f64, "count");
    m.put("intel.oracles_s", spans::seconds("intel.oracles"), "s");

    // ---- net ----
    let c = &report.counters;
    m.put("net.events", c.events_processed as f64, "count");
    m.put("net.syns", c.syns_sent as f64, "count");
    m.put("net.refused", c.conns_refused as f64, "count");
    m.put("net.established", c.conns_established as f64, "count");
    m.put("net.timeouts", c.conn_timeouts as f64, "count");
    m.put("net.udp_sent", c.udp_datagrams_sent as f64, "count");
    m.put(
        "net.events_per_syn",
        ratio(c.events_processed as f64, c.syns_sent as f64),
        "ratio",
    );
    m.put(
        "net.cpu_ns_per_event",
        ratio(simulate.cpu_ns as f64, c.events_processed as f64),
        "ns",
    );
    m.put("net.pool_hits", pool.0 as f64, "count");
    m.put("net.pool_misses", pool.1 as f64, "count");
    m.put(
        "net.fault.handshake_drops",
        c.tcp_handshake_drops as f64,
        "count",
    );
    m.put("net.fault.rate_limited", c.tcp_rate_limited as f64, "count");
    m.put("net.fault.resets", c.tcp_resets_injected as f64, "count");
    m.put(
        "net.fault.churn_suppressed",
        c.churn_suppressed as f64,
        "count",
    );
    m.put("net.udp_dropped", c.udp_datagrams_dropped as f64, "count");

    // ---- wire / scan / fingerprint ----
    let r = &report.resilience;
    m.put("wire.tcp_bytes", c.tcp_payload_bytes as f64, "B");
    m.put(
        "scan.records.zmap",
        report.zmap_results.len() as f64,
        "count",
    );
    m.put(
        "scan.records.sonar",
        report.sonar_results.len() as f64,
        "count",
    );
    m.put(
        "scan.records.shodan",
        report.shodan_results.len() as f64,
        "count",
    );
    m.put("scan.retry.issued", r.scan_retries_issued as f64, "count");
    m.put(
        "scan.retry.recovered",
        r.scan_retries_recovered as f64,
        "count",
    );
    m.put(
        "scan.retry.recovery_ratio",
        ratio(
            r.scan_retries_recovered as f64,
            r.scan_retries_issued as f64,
        ),
        "ratio",
    );
    m.put(
        "fingerprint.passive_s",
        spans::seconds("fingerprint.passive"),
        "s",
    );
    m.put("fingerprint.candidates", candidates as f64, "count");
    m.put(
        "fingerprint.filtered",
        report.fingerprint.total() as f64,
        "count",
    );
    m.put(
        "fingerprint.retry.issued",
        r.fingerprint_retries_issued as f64,
        "count",
    );

    // ---- honeypots / telescope ----
    m.put("honeypots.events", report.dataset.len() as f64, "count");
    m.put(
        "honeypots.conns_shed",
        r.honeypot_conns_shed as f64,
        "count",
    );
    m.put(
        "telescope.flowtuples",
        report.telescope.total_records() as f64,
        "count",
    );
    m.put(
        "telescope.summary_s",
        spans::seconds("telescope.summary"),
        "s",
    );

    // ---- analysis (replayed) ----
    for name in [
        "table4",
        "table5",
        "table7",
        "table8",
        "table10",
        "table12",
        "table13",
        "fig2",
        "fig3",
        "fig5",
        "fig6",
        "fig8",
        "fig9",
        "breakdown",
        "infected",
    ] {
        let span_name = format!("analysis.{name}");
        m.put(format!("{span_name}_s"), spans::seconds(&span_name), "s");
    }
    let analysis_spans =
        spans::seconds_with_prefix("analysis.") - spans::seconds("analysis.replay");
    m.put(
        "analysis.replay_coverage",
        ratio(analysis_spans, stage("analysis")),
        "ratio",
    );

    // ---- merge (replayed) ----
    let mut merge_spans = 0.0;
    for name in [
        "scan_absorb",
        "telescope_absorb",
        "fingerprint_absorb",
        "dataset",
    ] {
        let s = spans::seconds(&format!("merge.{name}"));
        merge_spans += s;
        m.put(format!("merge.{name}_s"), s, "s");
    }
    m.put(
        "merge.replay_coverage",
        ratio(merge_spans, stage("merge")),
        "ratio",
    );

    // ---- store ----
    m.put("store.build_s", spans::seconds("store.build"), "s");
    m.put("store.bytes", store_bytes, "B");
    m.put("store.bytes_per_row", ratio(store_bytes, store_rows), "B");
    m.put("store.open_ms", spans::seconds("store.open") * 1e3, "ms");
    for t in [4, 5, 7] {
        m.put(
            format!("store.table{t}_ms"),
            spans::seconds(&format!("store.table{t}")) * 1e3,
            "ms",
        );
    }
    m.0.extend(query_metrics.0);

    // ---- host ----
    m.put("host.probe_s", probe_s, "s");

    // ---- obs ----
    m.put(
        "obs.overhead_pct",
        ratio(traced_wall - untraced_wall, untraced_wall) * 100.0,
        "%",
    );
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 7, 10.0, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds must be a number")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Run one workload; returns its checks and metrics.
fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> (Checks, Metrics) {
    let mut checks = Checks::default();
    let metrics = if traced {
        trace(w, seed, &mut checks)
    } else {
        measure(w, seed, seconds, &mut checks)
    };
    (checks, metrics)
}

fn result_json(checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

/// Run every workload on the tiny presets in both modes and check the
/// harness itself: checks pass, every metric of `BENCHMARK.json` is
/// reported exactly once per mode, and every value is finite.
fn self_check() -> bool {
    let spec = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let declared = |section: &str| -> Vec<String> {
        let Some(start) = spec.find(&format!("\"{section}\"")) else {
            return Vec::new();
        };
        let body = &spec[start..];
        let body = &body[..body.find(']').unwrap_or(body.len())];
        body.split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect()
    };
    let mut ok = true;
    for name in ["paper-scale", "standard-hostile"] {
        for traced in [false, true] {
            let w = workload(name, 7, true).expect("known workload");
            let t0 = Instant::now();
            let (checks, metrics) = run(&w, 7, 0.0, traced);
            let mut emitted: Vec<String> = metrics.0.iter().map(|m| m.0.clone()).collect();
            let mut want = declared(if traced { "per_layer" } else { "end_to_end" });
            emitted.sort();
            want.sort();
            let finite = metrics.0.iter().all(|m| m.1.is_finite());
            let pass = checks.failed == 0 && checks.attempted > 0 && emitted == want && finite;
            println!(
                "self-check {name:<16} trace={} {} ({} checks, {} metrics, {:.1} s)",
                traced as u8,
                if pass { "ok" } else { "FAILED" },
                checks.attempted,
                metrics.0.len(),
                t0.elapsed().as_secs_f64()
            );
            if emitted != want {
                let missing: Vec<_> = want.iter().filter(|n| !emitted.contains(n)).collect();
                let extra: Vec<_> = emitted.iter().filter(|n| !want.contains(n)).collect();
                println!("  missing {missing:?} extra {extra:?}");
            }
            ok &= pass;
        }
    }
    ok
}

fn main() -> std::process::ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--self-check") {
        return if self_check() { 0.into() } else { 1.into() };
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2.into();
        }
    };
    let Some(w) = workload(&args.workload, args.seed, false) else {
        eprintln!(
            "error: unknown workload {} (paper-scale|standard-hostile)",
            args.workload
        );
        return 2.into();
    };
    eprintln!(
        "perfbench {} seed {} trace {} ({} workers)",
        w.name,
        args.seed,
        args.trace as u8,
        w.cfg.worker_threads()
    );
    let (checks, metrics) = run(&w, args.seed, args.seconds, args.trace);
    for (name, value, unit) in &metrics.0 {
        println!("{name} {value} {unit}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    println!("{}", result_json(&checks, &metrics));
    0.into()
}
