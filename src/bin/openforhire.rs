//! `openforhire` — the command-line front end of the reproduction suite.
//!
//! ```text
//! openforhire study  [--preset quick|standard|full] [--seed N] [--workers N] [--summary]
//! openforhire table  <4|5|6|7|8|10|12|13> [--preset ...] [--seed N]
//! openforhire figure <2|3|4|5|6|7|8|9>    [--preset ...] [--seed N]
//! openforhire export <scan|events|flowtuples> [--preset ...] [--seed N]
//! openforhire query  --store FILE <info|table N|host ADDR|count ...|range ...>
//! openforhire obsdiff <a.json> <b.json> [--volatile-pct P]
//! ```
//!
//! Any study-running command additionally accepts `--metrics-out FILE`
//! (versioned `metrics.json` snapshot), `--trace-out FILE` (sim-time span
//! trace as JSON lines), `--store-out FILE` (columnar study store; see
//! DESIGN.md §14), and the live-telemetry / flight-recorder flags
//! `--heartbeat`, `--live-out FILE` and `--flight-dir DIR` (DESIGN.md §15).
//! `query` runs against a previously written store without re-running the
//! study and can export the engine's own snapshot via `--metrics-out`.
//! `obsdiff` compares two snapshots as a regression gate: deterministic
//! sections byte-exact, volatile sections threshold-checked, exit code 1 on
//! drift.
//!
//! Everything is deterministic: the same preset and seed always print the
//! same bytes — including the metrics snapshot (outside its `host` section)
//! and the trace. Live telemetry and flight dumps are wall-clock artifacts,
//! quarantined from that contract.

use std::process::ExitCode;

use ofh_core::{Study, StudyConfig, StudyReport};

fn usage() -> &'static str {
    "openforhire — reproduction suite for 'Open for hire' (IMC '21)\n\
     \n\
     USAGE:\n\
       openforhire study                     run everything, print all tables & figures\n\
       openforhire study --summary           one-paragraph headline only\n\
       openforhire table <4|5|6|7|8|10|12|13>  print one table\n\
       openforhire figure <2|3|4|5|6|7|8|9>    print one figure's data\n\
       openforhire export <scan|events|flowtuples>  dump a dataset as JSON lines\n\
       openforhire query --store FILE <QUERY>       query a written store (no re-run)\n\
       openforhire obsdiff <a.json> <b.json>        compare two metrics snapshots\n\
     \n\
     QUERIES (for `openforhire query`):\n\
       info                                    store layout & provenance\n\
       table <4|5|7>                           re-render a study table from the store\n\
       host <ADDR>                             all scan records of one IPv4 address\n\
       count scan  [--source S] [--protocol P] [--misconfig M] [--country CC]\n\
       count events [--honeypot H] [--protocol P] [--attack-type T] [--class C]\n\
       count telescope [--protocol P] [--country CC]\n\
       range <START_MS> <END_MS> [--honeypot H]  count events in a sim-time window\n\
     \n\
       Filter values are exact dictionary labels (unknown labels count 0):\n\
       sources \"ZMap Scan\"|\"Project Sonar\"|\"Shodan\", protocols capitalized\n\
       (\"Telnet\"), --class malicious|scanning_service|unknown, --misconfig\n\
       variant names (e.g. TelnetNoAuth).\n\
     \n\
     OPTIONS:\n\
       --preset quick|standard|full|paper-scale|paper-smoke\n\
                                      scale preset (default: quick). paper-scale\n\
                                      simulates the full 2^32 IPv4 space with >1M\n\
                                      occupied hosts (release build recommended);\n\
                                      paper-smoke is its CI-sized twin.\n\
       --seed N                       master seed (default: 7)\n\
       --faults none|lossy|hostile|FILE.json\n\
                                      fault schedule: a named preset or a JSON\n\
                                      schedule file (see examples/faults_brownout.json;\n\
                                      default: none). Same schedule + seed + preset\n\
                                      prints identical bytes at any worker count.\n\
       --shards N                     shard count: a power of two in 1..=4096\n\
                                      (default: the preset's — 16, or 64 at paper\n\
                                      scale). A *semantic* knob: each count is a\n\
                                      different, equally valid deterministic trace.\n\
       --workers N                    shard worker threads; 0 = auto: min(host\n\
                                      cores, shards) — more workers than either\n\
                                      can only add contention (default: 1 — any\n\
                                      value prints identical bytes at a fixed\n\
                                      shard count)\n\
       --metrics-out FILE             write the metrics snapshot (JSON, versioned\n\
                                      schema). Also accepted by `query`, where it\n\
                                      writes the query engine's own snapshot.\n\
       --trace-out FILE               write the sim-time span trace (JSON lines)\n\
       --store-out FILE               write the columnar study store (deterministic:\n\
                                      byte-identical at any worker count)\n\
       --heartbeat                    print periodic [live] progress lines (events/s,\n\
                                      sim-time fraction, ETA) to stderr while the\n\
                                      study runs. Wall-clock output; never affects\n\
                                      the deterministic artifacts.\n\
       --heartbeat-ms N               heartbeat/live sampling interval (default: 500)\n\
       --live-out FILE                stream live telemetry samples as JSON lines\n\
                                      (volatile artifact — do not byte-compare)\n\
       --flight-dir DIR               arm the flight recorder: on a panic or a\n\
                                      fault-window transition, dump each shard's\n\
                                      recent activity ring to DIR/flight-*.jsonl\n\
     \n\
     OBSDIFF (regression sentinel):\n\
       openforhire obsdiff a.json b.json [--volatile-pct P]\n\
                                      exit 0 iff the deterministic sections match\n\
                                      byte-for-byte; with --volatile-pct P (e.g.\n\
                                      0.25), volatile host-section quantities may\n\
                                      differ by at most that fraction\n"
}

struct Args {
    command: String,
    target: Option<String>,
    preset: String,
    seed: u64,
    shards: Option<u32>,
    workers: usize,
    faults: String,
    summary: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    store_out: Option<String>,
    heartbeat: bool,
    heartbeat_ms: Option<u64>,
    live_out: Option<String>,
    flight_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    let mut out = Args {
        command,
        target: None,
        preset: "quick".into(),
        seed: 7,
        shards: None,
        workers: 1,
        faults: "none".into(),
        summary: false,
        metrics_out: None,
        trace_out: None,
        store_out: None,
        heartbeat: false,
        heartbeat_ms: None,
        live_out: None,
        flight_dir: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--preset" => {
                out.preset = args.next().ok_or("--preset needs a value")?;
            }
            "--seed" => {
                out.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?;
            }
            "--shards" => {
                out.shards = Some(
                    args.next()
                        .ok_or("--shards needs a value")?
                        .parse()
                        .map_err(|_| "--shards must be an integer")?,
                );
            }
            "--workers" => {
                out.workers = args
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|_| "--workers must be an integer")?;
            }
            "--faults" => {
                out.faults = args.next().ok_or("--faults needs a value")?;
            }
            "--metrics-out" => {
                out.metrics_out = Some(args.next().ok_or("--metrics-out needs a path")?);
            }
            "--trace-out" => {
                out.trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            "--store-out" => {
                out.store_out = Some(args.next().ok_or("--store-out needs a path")?);
            }
            "--heartbeat" => out.heartbeat = true,
            "--heartbeat-ms" => {
                out.heartbeat_ms = Some(
                    args.next()
                        .ok_or("--heartbeat-ms needs a value")?
                        .parse()
                        .map_err(|_| "--heartbeat-ms must be an integer")?,
                );
            }
            "--live-out" => {
                out.live_out = Some(args.next().ok_or("--live-out needs a path")?);
            }
            "--flight-dir" => {
                out.flight_dir = Some(args.next().ok_or("--flight-dir needs a directory")?);
            }
            "--summary" => out.summary = true,
            other if !other.starts_with('-') && out.target.is_none() => {
                out.target = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn config_for(preset: &str, seed: u64) -> Result<StudyConfig, String> {
    match preset {
        "quick" => Ok(StudyConfig::quick(seed)),
        "standard" => Ok(StudyConfig::standard(seed)),
        "full" => Ok(StudyConfig::full(seed)),
        "paper-scale" => Ok(StudyConfig::paper_scale(seed)),
        "paper-smoke" => Ok(StudyConfig::paper_smoke(seed)),
        other => Err(format!(
            "unknown preset {other:?} (quick|standard|full|paper-scale|paper-smoke)"
        )),
    }
}

fn print_table(report: &StudyReport, which: &str) -> Result<(), String> {
    let text = match which {
        "4" => report.table4.render(),
        "5" => report.table5.render(),
        "6" => report.render_table6(),
        "7" => report.table7.render(),
        "8" => report.render_table8(),
        "10" => report.table10.render(),
        "12" => report.table12.render(),
        "13" => report.table13.render(),
        other => return Err(format!("no table {other} (4|5|6|7|8|10|12|13)")),
    };
    println!("{text}");
    Ok(())
}

fn print_figure(report: &StudyReport, which: &str) -> Result<(), String> {
    let text = match which {
        "2" => report.fig2.render(),
        "3" => report.fig3.render(),
        "4" => report.breakdown.render_fig4(),
        "5" => report.fig5.render(),
        "6" => report.fig6.render(),
        "7" => report.breakdown.render_fig7(),
        "8" => report.fig8.render(),
        "9" => report.fig9.render(),
        other => return Err(format!("no figure {other} (2..=9)")),
    };
    println!("{text}");
    Ok(())
}

fn export(report: &StudyReport, which: &str) -> Result<(), String> {
    match which {
        "scan" => print!("{}", report.zmap_results.to_jsonl()),
        "events" => {
            for event in &report.dataset.events {
                println!(
                    "{}",
                    serde_json::to_string(event).map_err(|e| e.to_string())?
                );
            }
        }
        "flowtuples" => {
            for record in report.telescope.records() {
                println!(
                    "{}",
                    serde_json::to_string(record).map_err(|e| e.to_string())?
                );
            }
        }
        other => return Err(format!("no dataset {other} (scan|events|flowtuples)")),
    }
    Ok(())
}

/// Parse and run `openforhire query --store FILE <QUERY>` against a store
/// file written by a previous `--store-out` run. No study is executed.
fn run_query(argv: &[String]) -> Result<(), String> {
    use ofh_store::{Query, QueryEngine, StoreReader};

    let mut store_path: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut words: Vec<String> = Vec::new();
    let mut filters: Vec<(String, String)> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => {
                store_path = Some(it.next().ok_or("--store needs a path")?.clone());
            }
            "--metrics-out" => {
                metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?.clone());
            }
            flag if flag.starts_with("--") => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                filters.push((flag[2..].to_string(), value.clone()));
            }
            word => words.push(word.to_string()),
        }
    }
    let store_path = store_path.ok_or("query needs --store FILE")?;
    // Pull an optional label filter out of the `--flag value` pairs,
    // rejecting anything the chosen query doesn't understand.
    let mut take = |name: &str| -> Option<String> {
        filters
            .iter()
            .position(|(k, _)| k == name)
            .map(|i| filters.remove(i).1)
    };

    let query = match words.first().map(String::as_str) {
        Some("info") => Query::Info,
        Some("table") => {
            let n: u8 = words
                .get(1)
                .ok_or("table: which one? (4|5|7)")?
                .parse()
                .map_err(|_| "table number must be 4, 5 or 7")?;
            Query::Table(n)
        }
        Some("host") => {
            let addr = words
                .get(1)
                .ok_or("host: which address?")?
                .parse()
                .map_err(|_| "host takes an IPv4 address")?;
            Query::HostLookup { addr }
        }
        Some("count") => match words.get(1).map(String::as_str) {
            Some("scan") => Query::CountScan {
                source: take("source"),
                protocol: take("protocol"),
                misconfig: take("misconfig"),
                country: take("country"),
            },
            Some("events") => Query::CountEvents {
                honeypot: take("honeypot"),
                protocol: take("protocol"),
                attack_type: take("attack-type"),
                class: take("class"),
            },
            Some("telescope") => Query::CountTelescope {
                protocol: take("protocol"),
                country: take("country"),
            },
            _ => return Err("count: scan, events or telescope?".into()),
        },
        Some("range") => {
            let parse_ms = |i: usize, what: &str| -> Result<u64, String> {
                words
                    .get(i)
                    .ok_or(format!("range needs {what}"))?
                    .parse()
                    .map_err(|_| format!("range {what} must be integer milliseconds"))
            };
            Query::EventsInRange {
                start_ms: parse_ms(1, "START_MS")?,
                end_ms: parse_ms(2, "END_MS")?,
                honeypot: take("honeypot"),
            }
        }
        _ => return Err(format!("query: what? \n\n{}", usage())),
    };
    if let Some((flag, _)) = filters.first() {
        return Err(format!("--{flag} does not apply to this query"));
    }

    let reader = StoreReader::open(std::path::Path::new(&store_path))
        .map_err(|e| format!("opening {store_path}: {e}"))?;
    let engine = QueryEngine::new(std::sync::Arc::new(reader));
    let answer = engine
        .query(&query)
        .map_err(|e| format!("query failed: {e}"))?;
    println!("{}", answer.render());
    if let Some(path) = &metrics_out {
        let json = serde_json::to_string_pretty(&engine.snapshot()).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote query-engine metrics snapshot to {path}");
    }
    Ok(())
}

/// `openforhire obsdiff <a.json> <b.json> [--volatile-pct P]` — the
/// regression sentinel. Deterministic snapshot sections must match
/// byte-for-byte; volatile (host) quantities are threshold-checked when a
/// tolerance is given. Exits nonzero on drift.
fn run_obsdiff(argv: &[String]) -> Result<(), String> {
    use ofh_obs::{diff_snapshots, DiffOptions, MetricsSnapshot};

    let mut volatile_pct: Option<f64> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--volatile-pct" => {
                volatile_pct = Some(
                    it.next()
                        .ok_or("--volatile-pct needs a value")?
                        .parse()
                        .map_err(|_| "--volatile-pct must be a number (fraction, e.g. 0.25)")?,
                );
            }
            word if !word.starts_with('-') => paths.push(word.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        return Err("obsdiff takes exactly two snapshot paths".into());
    };
    let load = |p: &str| -> Result<MetricsSnapshot, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        MetricsSnapshot::from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let diff = diff_snapshots(&load(a_path)?, &load(b_path)?, &DiffOptions { volatile_pct });
    print!("{}", diff.render());
    if diff.clean() {
        Ok(())
    } else {
        Err(format!("snapshot drift between {a_path} and {b_path}"))
    }
}

fn run() -> Result<(), String> {
    // `query` and `obsdiff` have their own grammars, so they never go
    // through the study-argument parser.
    {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.first().map(String::as_str) == Some("query") {
            return run_query(&argv[1..]);
        }
        if argv.first().map(String::as_str) == Some("obsdiff") {
            return run_obsdiff(&argv[1..]);
        }
    }
    let args = parse_args().map_err(|e| format!("{e}\n\n{}", usage()))?;
    if args.command == "help" || args.command == "--help" {
        println!("{}", usage());
        return Ok(());
    }
    let mut cfg = config_for(&args.preset, args.seed)?;
    if let Some(shards) = args.shards {
        cfg.shards = shards;
    }
    cfg.workers = args.workers;
    // Live telemetry and the flight recorder are execution knobs: they never
    // change the deterministic artifacts, only what gets observed.
    cfg.obs.heartbeat = args.heartbeat;
    if let Some(ms) = args.heartbeat_ms {
        cfg.obs.heartbeat_ms = ms.max(1);
    }
    cfg.obs.live_out = args.live_out.clone();
    cfg.obs.flight_dir = args.flight_dir.clone();
    // Resolve and validate the fault schedule up front: a bad schedule is a
    // clean startup error, never a mid-run panic.
    cfg.faults = ofh_core::faults_from_arg(&args.faults)?;
    // Validate here so a bad --shards value is a clean startup error too.
    cfg.validate()?;
    eprintln!(
        "running {} preset (seed {}) — deterministic, ~{}",
        args.preset,
        args.seed,
        match args.preset.as_str() {
            "quick" | "paper-smoke" => "1s",
            "standard" => "10s",
            "paper-scale" => "minutes (use --workers 0)",
            _ => "80s",
        }
    );
    let report = Study::new(cfg).run();
    if let Some(path) = &args.metrics_out {
        let json =
            serde_json::to_string_pretty(&report.metrics).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(
            path,
            report
                .trace
                .to_jsonl(&report.metrics.preset, report.metrics.shards),
        )
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {} trace spans to {path} ({} emitted, {} dropped by ring bound)",
            report.trace.len(),
            report.trace.total_emitted,
            report.trace.total_dropped
        );
    }
    if let Some(path) = &args.store_out {
        let bytes = report
            .write_store(std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote columnar store to {path} ({bytes} bytes)");
    }
    match args.command.as_str() {
        "study" => {
            if args.summary {
                println!("{}", report.render_summary());
            } else {
                println!("{}", report.render_full());
            }
            Ok(())
        }
        "table" => print_table(&report, args.target.as_deref().ok_or("table: which one?")?),
        "figure" => print_figure(&report, args.target.as_deref().ok_or("figure: which one?")?),
        "export" => export(&report, args.target.as_deref().ok_or("export: which dataset?")?),
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
