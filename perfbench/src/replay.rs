//! Replays of the study's setup, merge and analysis stages from real
//! inputs, outside `Study::run`, so each computation gets its own span.
//!
//! * Setup rebuilds the population, the wild-honeypot placement, the attack
//!   plan and the oracles through their public builders, in the order
//!   `Study::run` builds them.
//! * Merge splits the merged artifacts back into per-shard parts by
//!   `ShardSpec::owns` at the study's shard count and folds them again with
//!   the same absorbs, so each absorb sees the inputs the program's merge saw.
//! * Analysis recomputes every table and figure from the merged artifacts.
//!
//! Every replayed result is compared with the program's own; each
//! comparison is one check.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ofh_core::analysis::figures::{AttackTypeBreakdown, Fig2, Fig3, Fig5, Fig6, Fig8, Fig9};
use ofh_core::analysis::infected::InfectedHosts;
use ofh_core::analysis::table10::Table10;
use ofh_core::analysis::table12::Table12;
use ofh_core::analysis::table13::Table13;
use ofh_core::analysis::table4::Table4;
use ofh_core::analysis::table5::Table5;
use ofh_core::analysis::table7::Table7;
use ofh_core::analysis::AttackDataset;
use ofh_core::attack::plan::{AttackPlan, HoneypotSet, PlanConfig};
use ofh_core::devices::{PopulationBuilder, PopulationSpec};
use ofh_core::fingerprint::{engine, FingerprintReport, SignatureDb};
use ofh_core::honeypots::{AttackEvent, WildHoneypot};
use ofh_core::net::sim::FlowTap;
use ofh_core::net::{FlowKind, FlowObservation, Payload, ShardSpec, Transport};
use ofh_core::oracles::Oracles;
use ofh_core::scan::{ScanResilience, ScanResults};
use ofh_core::telescope::{Telescope, TelescopeSummary};
use ofh_core::{ResilienceReport, StudyConfig, StudyReport};

use crate::spans::span;
use crate::Checks;

/// Deployed honeypots in the order `Study::run` collects their logs.
const HONEYPOTS: [&str; 6] = [
    "HosTaGe", "U-Pot", "Conpot", "ThingPot", "Cowrie", "Dionaea",
];

/// The setup stage's products the analysis reads, rebuilt.
pub struct Setup {
    pub plan: AttackPlan,
    pub oracles: Oracles,
}

pub fn setup(cfg: &StudyConfig) -> Setup {
    let universe = cfg.universe;
    let mut population = span("devices.population_build", || {
        PopulationBuilder::new(PopulationSpec {
            universe,
            scale: cfg.scan_scale,
            seed: cfg.seed,
        })
        .build()
    });
    // Wild honeypots take addresses from the population's allocator before
    // the plan is drawn, exactly as in `Study::run`.
    span("devices.wild_placement", || {
        let mut rng = ofh_core::net::rng::rng_for(cfg.seed, "study");
        for family in WildHoneypot::ALL {
            let n = ((family.paper_count() + cfg.scan_scale / 2) / cfg.scan_scale).max(1);
            for _ in 0..n {
                population
                    .allocator
                    .alloc_weighted(&mut rng)
                    .expect("space for wild honeypots");
            }
        }
    });
    let plan_cfg = PlanConfig {
        seed: cfg.seed,
        hp_scale: cfg.hp_scale,
        infected_scale: (cfg.scan_scale / cfg.infected_oversample).max(1),
        universe,
        month_start: cfg.month_start(),
        month_days: cfg.month_days,
        honeypots: HoneypotSet::in_lab(&universe),
    };
    let plan = span("attack.plan_build", || {
        AttackPlan::build(&plan_cfg, &population)
    });
    let oracles = span("intel.oracles", || {
        Oracles::populate(cfg.seed, &plan, &population)
    });
    Setup { plan, oracles }
}

/// One shard's share of the merged artifacts.
struct ShardPart {
    zmap: ScanResults,
    sonar: ScanResults,
    shodan: ScanResults,
    fingerprint: FingerprintReport,
    logs: Vec<Vec<AttackEvent>>,
    telescope: Telescope,
}

/// Rebuild a telescope observation from its FlowTuple; the tap derives the
/// same country and ASN from the study's geo database.
fn observation(ft: &ofh_core::telescope::FlowTuple) -> FlowObservation {
    let transport = if ft.protocol == Transport::Udp.protocol_number() {
        Transport::Udp
    } else {
        Transport::Tcp
    };
    let kind = match transport {
        Transport::Udp => FlowKind::UdpDatagram,
        Transport::Tcp if ft.tcp_flags & FlowObservation::SYN != 0 => FlowKind::TcpSyn,
        Transport::Tcp => FlowKind::TcpData,
    };
    FlowObservation {
        time: ft.time,
        src: ft.src_ip,
        dst: ft.dst_ip,
        src_port: ft.src_port,
        dst_port: ft.dst_port,
        transport,
        kind,
        ttl: ft.ttl,
        tcp_flags: ft.tcp_flags,
        tcp_window: ft.tcp_syn_window,
        ip_len: ft.ip_len,
        payload: Payload::empty(),
        spoofed: ft.is_spoofed,
    }
}

fn split(report: &StudyReport) -> Vec<ShardPart> {
    let shards = report.config.shards;
    let specs: Vec<ShardSpec> = ShardSpec::all(shards).collect();
    let mut parts: Vec<ShardPart> = specs
        .iter()
        .map(|_| ShardPart {
            zmap: ScanResults::new("ZMap Scan"),
            sonar: ScanResults::new("Project Sonar"),
            shodan: ScanResults::new("Shodan"),
            fingerprint: FingerprintReport::default(),
            logs: vec![Vec::new(); HONEYPOTS.len()],
            telescope: Telescope::new(report.geo.clone()),
        })
        .collect();
    let owner = |addr: Ipv4Addr| ofh_core::net::shard_of(addr, shards) as usize;
    for (merged, pick) in [
        (&report.zmap_results, 0usize),
        (&report.sonar_results, 1),
        (&report.shodan_results, 2),
    ] {
        for (key, rec) in &merged.records {
            let part = &mut parts[owner(key.0)];
            let target = match pick {
                0 => &mut part.zmap,
                1 => &mut part.sonar,
                _ => &mut part.shodan,
            };
            target.records.insert(*key, rec.clone());
        }
    }
    for d in &report.fingerprint.detections {
        parts[owner(d.addr)].fingerprint.detections.push(d.clone());
    }
    for r in &report.fingerprint.rejected {
        parts[owner(r.0)].fingerprint.rejected.push(*r);
    }
    parts[0].fingerprint.retries_issued = report.fingerprint.retries_issued;
    parts[0].fingerprint.retries_recovered = report.fingerprint.retries_recovered;
    for e in &report.dataset.events {
        let hp = HONEYPOTS
            .iter()
            .position(|h| *h == e.honeypot)
            .expect("event from a deployed honeypot");
        parts[owner(e.src)].logs[hp].push(e.clone());
    }
    // A shard's scanners probe only dark addresses it owns; everything else
    // reaching the telescope comes from an attacker the shard owns.
    let scanner_base = u32::from(report.config.universe.scanner_addr());
    for ft in report.telescope.records() {
        let own_infra = u32::from(ft.src_ip).wrapping_sub(scanner_base) < 4;
        let key = if own_infra { ft.dst_ip } else { ft.src_ip };
        parts[owner(key)].telescope.observe(&observation(ft));
    }
    parts
}

/// Replay the merge stage; returns the merged attack dataset.
pub fn merge(report: &StudyReport, checks: &mut Checks) -> AttackDataset {
    let parts = span("merge.split", || split(report));
    let mut zmap = ScanResults::new("ZMap Scan");
    let mut sonar = ScanResults::new("Project Sonar");
    let mut shodan = ScanResults::new("Shodan");
    let mut fingerprint = FingerprintReport::default();
    let mut telescope = Telescope::new(ofh_core::intel::GeoDb::new());
    let mut logs: Vec<Vec<AttackEvent>> = vec![Vec::new(); HONEYPOTS.len()];
    let mut scan_parts = Vec::with_capacity(parts.len());
    let mut fp_parts = Vec::with_capacity(parts.len());
    let mut tel_parts = Vec::with_capacity(parts.len());
    let mut log_parts = Vec::with_capacity(parts.len());
    for p in parts {
        scan_parts.push((p.zmap, p.sonar, p.shodan));
        fp_parts.push(p.fingerprint);
        tel_parts.push(p.telescope);
        log_parts.push(p.logs);
    }
    let dataset = span("merge.replay", || {
        span("merge.scan_absorb", || {
            for (z, so, sh) in scan_parts {
                zmap.absorb(z);
                sonar.absorb(so);
                shodan.absorb(sh);
            }
        });
        span("merge.fingerprint_absorb", || {
            for f in fp_parts {
                fingerprint.absorb(f);
            }
            fingerprint.normalize();
        });
        span("merge.telescope_absorb", || {
            for t in tel_parts {
                telescope.absorb(t);
            }
        });
        span("merge.dataset", || {
            for shard_logs in log_parts {
                for (merged, shard_log) in logs.iter_mut().zip(shard_logs) {
                    merged.extend(shard_log);
                }
            }
            AttackDataset::merge(logs)
        })
    });
    checks.check(
        "merge replay: zmap",
        zmap.records == report.zmap_results.records,
    );
    checks.check(
        "merge replay: sonar",
        sonar.records == report.sonar_results.records,
    );
    checks.check(
        "merge replay: shodan",
        shodan.records == report.shodan_results.records,
    );
    checks.check(
        "merge replay: fingerprint",
        fingerprint.detections == report.fingerprint.detections
            && fingerprint.rejected == report.fingerprint.rejected,
    );
    checks.check(
        "merge replay: telescope",
        telescope.total_records() == report.telescope.total_records()
            && telescope.records().eq(report.telescope.records()),
    );
    checks.check(
        "merge replay: dataset",
        dataset.events == report.dataset.events,
    );
    dataset
}

fn same<T: serde::Serialize>(a: &T, b: &T) -> bool {
    match (serde_json::to_string(a), serde_json::to_string(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

/// Replay the analysis stage on the replayed dataset and compare every
/// result with the report's.
pub fn analysis(report: &StudyReport, setup: &Setup, dataset: &AttackDataset, checks: &mut Checks) {
    let cfg = &report.config;
    let oracles = &setup.oracles;
    let plan = &setup.plan;
    let (zmap, sonar, shodan) = (
        &report.zmap_results,
        &report.sonar_results,
        &report.shodan_results,
    );
    let telescope = &report.telescope;
    span("analysis.replay", || {
        let filter = span("analysis.filter_set", || report.fingerprint.filter_set());
        let table4 = span("analysis.table4", || Table4::compute(zmap, sonar, shodan));
        checks.check("analysis replay: table4", same(&table4, &report.table4));
        let table5 = span("analysis.table5", || Table5::compute(zmap, &filter));
        checks.check("analysis replay: table5", same(&table5, &report.table5));
        let misconfigured = span("analysis.misconfigured", || {
            Table5::misconfigured_addrs(zmap, &filter)
        });
        let table7 = span("analysis.table7", || {
            Table7::compute(dataset, &oracles.rdns)
        });
        checks.check("analysis replay: table7", same(&table7, &report.table7));
        let month_start_day = cfg.month_start().day_index();
        let month_end_day = month_start_day + cfg.month_days;
        let known_scanners: BTreeSet<Ipv4Addr> = span("analysis.known_scanners", || {
            plan.service_sources()
                .keys()
                .copied()
                .filter(|a| AttackDataset::is_scanning_service(&oracles.rdns, *a))
                .collect()
        });
        let table8 = span("analysis.table8", || {
            let outage = cfg
                .faults
                .outage_minutes_between(month_start_day * 86_400_000, month_end_day * 86_400_000);
            TelescopeSummary::compute_gap_aware(
                telescope,
                month_start_day,
                month_end_day,
                &known_scanners,
                outage,
            )
        });
        checks.check("analysis replay: table8", same(&table8, &report.table8));
        let table10 = span("analysis.table10", || {
            Table10::compute(&misconfigured, &report.geo)
        });
        checks.check("analysis replay: table10", same(&table10, &report.table10));
        let table12 = span("analysis.table12", || Table12::compute(dataset, 11));
        checks.check("analysis replay: table12", same(&table12, &report.table12));
        let table13 = span("analysis.table13", || {
            Table13::compute(dataset, &oracles.malware)
        });
        checks.check("analysis replay: table13", same(&table13, &report.table13));
        let fig2 = span("analysis.fig2", || Fig2::compute(zmap));
        checks.check("analysis replay: fig2", same(&fig2, &report.fig2));
        let fig3 = span("analysis.fig3", || Fig3::compute(dataset, &oracles.rdns));
        checks.check("analysis replay: fig3", same(&fig3, &report.fig3));
        let breakdown = span("analysis.breakdown", || {
            AttackTypeBreakdown::compute(dataset)
        });
        checks.check(
            "analysis replay: breakdown",
            same(&breakdown, &report.breakdown),
        );
        let fig5 = span("analysis.fig5", || {
            Fig5::compute(dataset, &oracles.rdns, &oracles.greynoise)
        });
        checks.check("analysis replay: fig5", same(&fig5, &report.fig5));
        let fig6 = span("analysis.fig6", || {
            Fig6::compute(dataset, telescope, &oracles.rdns, &oracles.virustotal)
        });
        checks.check("analysis replay: fig6", same(&fig6, &report.fig6));
        let fig8 = span("analysis.fig8", || {
            Fig8::compute(dataset, cfg.month_start(), cfg.month_days, &plan.listings)
        });
        checks.check("analysis replay: fig8", same(&fig8, &report.fig8));
        let fig9 = span("analysis.fig9", || Fig9::compute(dataset, &oracles.rdns));
        checks.check("analysis replay: fig9", same(&fig9, &report.fig9));
        let infected = span("analysis.infected", || {
            InfectedHosts::compute(
                &misconfigured,
                dataset,
                telescope,
                &oracles.virustotal,
                &oracles.censys,
                &oracles.rdns,
            )
        });
        checks.check(
            "analysis replay: infected",
            same(&infected, &report.infected),
        );
        let resilience = span("analysis.resilience", || {
            let r = &report.resilience;
            let scan = ScanResilience {
                first_attempt_losses: r.scan_first_attempt_losses,
                retries_issued: r.scan_retries_issued,
                retries_recovered: r.scan_retries_recovered,
            };
            ResilienceReport::assemble(
                &scan,
                &report.fingerprint,
                r.honeypot_conns_shed,
                cfg.faults.outage_minutes(),
                &report.counters,
                r.leaked_connections,
            )
        });
        checks.check(
            "analysis replay: resilience",
            same(&resilience, &report.resilience),
        );
    });
}

/// The telescope layer's own aggregation over the whole capture, and the
/// fingerprint layer's passive stage over the merged ZMap results.
/// Returns the passive candidate count.
pub fn layers(report: &StudyReport) -> usize {
    span("telescope.summary", || {
        let end_day = report.config.study_end().day_index() + 1;
        std::hint::black_box(TelescopeSummary::compute(
            &report.telescope,
            0,
            end_day,
            &BTreeSet::new(),
        ));
    });
    span("fingerprint.passive", || {
        engine::passive_candidates(&SignatureDb::new(), &report.zmap_results).len()
    })
}
