//! The orchestrator.
//!
//! A study runs in four stages:
//!
//! 1. **Global setup** — population synthesis, attack plan, oracles, geo
//!    database. Seed-only, computed once, shared read-only by every shard.
//! 2. **Sharded execution** — the address space is split into
//!    [`StudyConfig::shards`] deterministic shards ([`ofh_net::shard`]);
//!    each shard is an independent [`SimNet`] simulating only the devices,
//!    wild honeypots and attackers its shard owns (plus a replica of the
//!    deployed honeypots and the telescope tap, which the whole Internet
//!    talks to). Shards run on [`StudyConfig::workers`] threads.
//! 3. **Deterministic merge** — per-shard artifacts are folded in shard
//!    order with order-independent reducers (disjoint map unions, canonical
//!    sorts), so the merged artifacts depend only on (seed, shards) —
//!    never on the worker count or thread scheduling.
//! 4. **Analysis** — every table and figure is computed once from the
//!    merged artifacts, exactly as before sharding existed.
//!
//! Shard-locality is what makes the split sound: honeypot/device agents
//! keep per-connection state only, attack tasks target only the lab
//! honeypots and the dark space (both replicated per shard), so no packet
//! ever needs to cross a shard boundary.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ofh_analysis::events::AttackDataset;
use ofh_analysis::figures::{AttackTypeBreakdown, Fig2, Fig3, Fig5, Fig6, Fig8, Fig9};
use ofh_analysis::infected::InfectedHosts;
use ofh_analysis::table10::Table10;
use ofh_analysis::table12::Table12;
use ofh_analysis::table13::Table13;
use ofh_analysis::table4::Table4;
use ofh_analysis::table5::Table5;
use ofh_analysis::table7::Table7;
use ofh_attack::plan::{AttackPlan, HoneypotSet, PlanConfig};
use ofh_attack::{AttackerAgent, InfectedDevice};
use ofh_devices::arena::HostArena;
use ofh_devices::population::{Population, PopulationBuilder, PopulationSpec};
use ofh_fingerprint::{engine, FingerprintProber, FingerprintReport, SignatureDb};
use ofh_honeypots::{
    AttackEvent, ConpotHoneypot, CowrieHoneypot, DionaeaHoneypot, HosTaGeHoneypot,
    ThingPotHoneypot, UPotHoneypot, WildHoneypot, WildHoneypotAgent,
};
use ofh_intel::{Country, GeoDb};
use ofh_net::rng::rng_for;
use ofh_net::sim::Counters;
use ofh_net::{Agent, AgentId, HostSpawner, ShardSpec, SimNet, SimNetConfig, SimTime};
use ofh_obs::{MetricRegistry, MetricsSnapshot, ProfileNode, ShardObs, Stopwatch, TraceLog};
use ofh_scan::{datasets, scan_start, ScanResults, Scanner, ScannerConfig, TargetSpace};
use ofh_telescope::{Telescope, TelescopeSummary};
use rand::Rng;

use crate::config::{PopulationMode, StudyConfig};
use crate::oracles::Oracles;
use crate::report::StudyReport;

/// A configured study, ready to run.
pub struct Study {
    cfg: StudyConfig,
}

/// Read-only inputs shared by every shard worker.
struct ShardInputs<'a> {
    cfg: &'a StudyConfig,
    population: &'a Population,
    wild: &'a [(Ipv4Addr, WildHoneypot)],
    plan: &'a AttackPlan,
    honeypots: HoneypotSet,
    infected_tasks: &'a BTreeMap<usize, Vec<ofh_attack::Task>>,
    geo: &'a GeoDb,
    /// Per-shard sparse scan-target indexes for paper-scale universes
    /// (`None` keeps the dense range walk). Indexed by shard: each shard's
    /// sweeps walk only the offsets that shard owns, so total permutation
    /// work stays O(index) at any shard count instead of O(index × shards).
    /// The `Arc` inside each entry makes per-sweep clones free.
    scan_targets: Option<Vec<TargetSpace>>,
    /// Live-telemetry progress cells (one per shard), present only when the
    /// run asked for a heartbeat or a `--live-out` stream. Volatile: the
    /// reporter thread samples these racily; nothing deterministic reads
    /// them.
    live: Option<std::sync::Arc<ofh_obs::LiveProgress>>,
}

/// The streaming host population of one shard: non-infected devices live in
/// a struct-of-arrays [`HostArena`], wild honeypots in a sorted parallel
/// list. Occupancy is a binary search; agents materialize on first touch
/// (see [`ofh_net::HostSpawner`] for the contract this satisfies). Infected
/// devices are *excluded* — their `on_boot` schedules bot tasks, so they
/// must exist from simulation start and stay eagerly attached.
struct ShardSpawner {
    arena: HostArena,
    wild: Vec<(u32, WildHoneypot)>,
}

impl ShardSpawner {
    fn build(inputs: &ShardInputs<'_>, spec: ShardSpec) -> ShardSpawner {
        let arena = HostArena::from_records(
            inputs
                .population
                .records
                .iter()
                .enumerate()
                .filter(|(i, r)| spec.owns(r.addr) && !inputs.infected_tasks.contains_key(i))
                .map(|(_, r)| r),
            |_| true,
        );
        let mut wild: Vec<(u32, WildHoneypot)> = inputs
            .wild
            .iter()
            .filter(|&&(addr, _)| spec.owns(addr))
            .map(|&(addr, family)| (u32::from(addr), family))
            .collect();
        wild.sort_unstable_by_key(|&(addr, _)| addr);
        ShardSpawner { arena, wild }
    }

    fn wild_family(&self, addr: Ipv4Addr) -> Option<WildHoneypot> {
        self.wild
            .binary_search_by_key(&u32::from(addr), |&(a, _)| a)
            .ok()
            .map(|i| self.wild[i].1)
    }
}

impl HostSpawner for ShardSpawner {
    fn occupied(&self, addr: Ipv4Addr) -> bool {
        self.arena.contains(addr) || self.wild_family(addr).is_some()
    }

    fn spawn(&mut self, addr: Ipv4Addr) -> Option<Box<dyn Agent>> {
        if let Some(slot) = self.arena.lookup(addr) {
            return Some(self.arena.build_agent(slot));
        }
        self.wild_family(addr)
            .map(|family| Box::new(WildHoneypotAgent::new(family)) as Box<dyn Agent>)
    }
}

/// Build the sparse scan-target indexes for a paper-scale universe: every
/// occupied address (devices, wild honeypots, the lab, attackers, the
/// scanning hosts) plus a deterministic stride sample of the telescope's
/// dark space, as offsets from the universe base. ~10^6 entries stand in
/// for 2^32 addresses; sweeps permute over index positions instead.
///
/// The global index is partitioned by shard ownership up front (one hash
/// per offset, once), so each shard's scanner replicas permute an
/// O(index / shards) domain of exclusively-owned targets. The in-sweep
/// `ShardSpec::owns` filter still runs — it is what keeps the dense-range
/// presets correct — it just never rejects an indexed target anymore.
fn build_scan_index(
    cfg: &StudyConfig,
    population: &Population,
    wild: &[(Ipv4Addr, WildHoneypot)],
    plan: &AttackPlan,
    honeypots: &HoneypotSet,
) -> Vec<TargetSpace> {
    let universe = cfg.universe;
    let base = u32::from(universe.cidr().first());
    let rel = |addr: Ipv4Addr| u32::from(addr).wrapping_sub(base);

    let mut offsets: Vec<u32> = Vec::with_capacity(population.records.len() + wild.len() + 8_192);
    offsets.extend(population.records.iter().map(|r| rel(r.addr)));
    offsets.extend(wild.iter().map(|&(addr, _)| rel(addr)));
    for addr in [
        honeypots.hostage,
        honeypots.upot,
        honeypots.conpot,
        honeypots.thingpot,
        honeypots.cowrie,
        honeypots.dionaea,
    ] {
        offsets.push(rel(addr));
    }
    offsets.extend(plan.actors.iter().map(|a| rel(a.addr)));
    // The four scanning/probing hosts scan each other too, as on the real
    // Internet.
    let scanner = rel(universe.scanner_addr());
    offsets.extend((0..4).map(|i| scanner + i));
    // Dark space, sampled at a stride that yields 4,096 telescope-visible
    // probes per sweep regardless of universe size (bits >= 28 here, so the
    // shift is in 8..=12).
    let dark = universe.dark_space();
    let dark_first = u64::from(rel(dark.first()));
    let stride = 1u64 << (universe.bits - 20);
    let mut o = 0u64;
    while o < dark.len() {
        offsets.push((dark_first + o) as u32);
        o += stride;
    }
    offsets.sort_unstable();
    offsets.dedup();
    let mut per_shard: Vec<Vec<u32>> =
        vec![Vec::with_capacity(offsets.len() / cfg.shards as usize + 1); cfg.shards as usize];
    for off in offsets {
        let addr = Ipv4Addr::from(base.wrapping_add(off));
        per_shard[ofh_net::shard_of(addr, cfg.shards) as usize].push(off);
    }
    // Each per-shard list inherits the global sort, satisfying the
    // sorted/unique index contract.
    per_shard.into_iter().map(TargetSpace::index).collect()
}

/// Everything one shard's simulation produces.
struct ShardOutput {
    zmap: ScanResults,
    sonar: ScanResults,
    shodan: ScanResults,
    fingerprint: FingerprintReport,
    /// Per-honeypot event logs, fixed order (HosTaGe, U-PoT, Conpot,
    /// ThingPot, Cowrie, Dionaea).
    logs: Vec<Vec<AttackEvent>>,
    telescope: Telescope,
    counters: Counters,
    /// Retry/loss accounting summed over every scanner replica the shard ran.
    resilience: ofh_scan::ScanResilience,
    /// Connections the shard's deployed-honeypot replicas shed at their gates.
    conns_shed: u64,
    /// Retry-machinery state still held after the shard drained (scanner
    /// grab/retry maps + prober probe states). Must be 0, faults or not.
    leaked: u64,
    /// The shard's recorded metrics and trace ring (`None` when
    /// observability is disabled).
    obs: Option<ShardObs>,
    /// Per-phase wall clock of this shard (single-threaded: wall == cpu).
    profile: ProfileNode,
}

impl Study {
    /// Create a study. Panics on invalid configuration (configs are code,
    /// not user input).
    pub fn new(cfg: StudyConfig) -> Study {
        cfg.validate().expect("invalid study configuration");
        Study { cfg }
    }

    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// Execute the full methodology and compute every report.
    pub fn run(&self) -> StudyReport {
        self.run_with(|_| {})
    }

    /// Like [`Self::run`], reporting phase transitions to `progress` (the
    /// long presets take a minute; callers may want a heartbeat).
    pub fn run_with(&self, mut progress: impl FnMut(&str)) -> StudyReport {
        let cfg = &self.cfg;
        let universe = cfg.universe;
        let mut rng = rng_for(cfg.seed, "study");
        let study_sw = Stopwatch::start();
        let setup_sw = Stopwatch::start();

        // ---- 1. Populations (global) ----------------------------------
        progress("synthesizing population");
        let mut population = PopulationBuilder::new(PopulationSpec {
            universe,
            scale: cfg.scan_scale,
            seed: cfg.seed,
        })
        .build();

        // Wild honeypots, geo-distributed like devices (Table 6 counts).
        let mut wild: Vec<(Ipv4Addr, WildHoneypot)> = Vec::new();
        for family in WildHoneypot::ALL {
            let n = ((family.paper_count() + cfg.scan_scale / 2) / cfg.scan_scale).max(1);
            for _ in 0..n {
                let (addr, _) = population
                    .allocator
                    .alloc_weighted(&mut rng)
                    .expect("space for wild honeypots");
                wild.push((addr, family));
            }
        }

        // ---- 2. Attack plan and oracles (global) -----------------------
        progress("building attack plan and oracles");
        let honeypots = HoneypotSet::in_lab(&universe);
        let plan_cfg = PlanConfig {
            seed: cfg.seed,
            hp_scale: cfg.hp_scale,
            infected_scale: (cfg.scan_scale / cfg.infected_oversample).max(1),
            universe,
            month_start: cfg.month_start(),
            month_days: cfg.month_days,
            honeypots,
        };
        let plan = AttackPlan::build(&plan_cfg, &population);
        let oracles = Oracles::populate(cfg.seed, &plan, &population);

        // Extend the geo database over the attacker space so telescope
        // records carry source countries for those actors too.
        let mut geo = population.geo.clone();
        let attacker_space = universe.attacker_space();
        let chunk = 1u64 << (32 - geo.prefix_len());
        let mut a = u32::from(attacker_space.first()) as u64;
        while a <= u32::from(attacker_space.last()) as u64 {
            let country = ofh_devices::population::sample_country(&mut rng);
            geo.allocate_block(Ipv4Addr::from(a as u32), country, 64_000 + rng.gen_range(0..400u32));
            a += chunk;
        }

        // Bot schedules per infected device record index.
        let mut infected_tasks: BTreeMap<usize, Vec<ofh_attack::Task>> = BTreeMap::new();
        for inf in plan.infected.iter().chain(&plan.censys_extra) {
            infected_tasks
                .entry(inf.record_idx)
                .or_default()
                .extend(inf.tasks.iter().cloned());
        }

        // ---- 3. Sharded execution --------------------------------------
        let setup_node = setup_sw.leaf("setup");
        let workers = cfg.worker_threads();
        progress("simulating shards");
        let simulate_sw = Stopwatch::start();
        // Paper-scale universes switch the sweeps to the sparse target
        // index: a dense walk of 2^32 addresses per sweep replica is
        // intractable, and the occupied set plus a dark-space sample is all
        // a probe can ever hit.
        let scan_targets = (universe.bits >= 28)
            .then(|| build_scan_index(cfg, &population, &wild, &plan, &honeypots));
        // Live telemetry and the flight recorder are armed here, not in the
        // shards: the reporter is one process-wide thread sampling every
        // shard's progress cell, and the panic hook is process-wide state.
        if cfg.obs.enabled && cfg.obs.flight_dir.is_some() {
            ofh_obs::install_panic_hook();
        }
        let live = cfg.obs.live_requested().then(|| {
            std::sync::Arc::new(ofh_obs::LiveProgress::new(
                cfg.shards,
                cfg.study_end().as_millis(),
            ))
        });
        let reporter = live.as_ref().map(|lp| {
            ofh_obs::Reporter::spawn(
                lp.clone(),
                ofh_obs::ReporterOptions {
                    heartbeat: cfg.obs.heartbeat,
                    interval_ms: cfg.obs.heartbeat_ms,
                    live_out: cfg.obs.live_out.as_ref().map(std::path::PathBuf::from),
                    preset: cfg.preset.clone(),
                    shards: cfg.shards,
                },
            )
        });
        let inputs = ShardInputs {
            cfg,
            population: &population,
            wild: &wild,
            plan: &plan,
            honeypots,
            infected_tasks: &infected_tasks,
            geo: &geo,
            scan_targets,
            live,
        };
        let mut steals_total: u64 = 0;
        let mut outputs: Vec<(u32, ShardOutput)> = if workers == 1 {
            ShardSpec::all(cfg.shards)
                .map(|spec| (spec.index, run_shard(&inputs, spec)))
                .collect()
        } else {
            // Work-stealing scheduler: each worker drains a contiguous
            // block of shards and steals the back half of the fullest
            // sibling when it runs dry (see `crate::scheduler`). Which
            // worker runs which shard is scheduling-dependent, but each
            // shard's simulation is a pure function of (inputs, spec) and
            // results are re-ordered by shard index below, so the merge
            // never sees the difference.
            let scheduler = crate::scheduler::ShardScheduler::new(cfg.shards, workers);
            let outputs = std::thread::scope(|scope| {
                let scheduler = &scheduler;
                let inputs = &inputs;
                let shards = cfg.shards;
                let handles: Vec<_> = (0..workers)
                    .map(|worker| {
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            while let Some(index) = scheduler.next(worker) {
                                let spec = ShardSpec { index, count: shards };
                                done.push((index, run_shard(inputs, spec)));
                                // Keep the reporter's steal count current.
                                if let Some(lp) = &inputs.live {
                                    lp.steals.store(
                                        scheduler.steals(),
                                        std::sync::atomic::Ordering::Relaxed,
                                    );
                                }
                            }
                            done
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            });
            steals_total = scheduler.steals();
            outputs
        };
        if let Some(r) = reporter {
            r.stop();
        }
        outputs.sort_by_key(|(index, _)| *index);
        let mut simulate_node = ProfileNode::new("simulate");
        simulate_node.wall_ns = simulate_sw.elapsed().as_nanos() as u64;

        // ---- 4. Deterministic merge ------------------------------------
        progress("merging shard results");
        let merge_sw = Stopwatch::start();
        let mut zmap_parts = Vec::with_capacity(outputs.len());
        let mut sonar_parts = Vec::with_capacity(outputs.len());
        let mut shodan_parts = Vec::with_capacity(outputs.len());
        let mut fingerprint_report = FingerprintReport::default();
        let mut logs: Vec<Vec<AttackEvent>> = vec![Vec::new(); 6];
        let mut telescope_parts = Vec::with_capacity(outputs.len());
        let mut counters = Counters::default();
        // Metric registries and trace rings merge order-independently
        // (counters sum, gauges max, histograms add bucket-wise; the trace
        // re-sorts on (start, shard, seq)), so the merged observability
        // artifacts — like the report — depend only on (seed, shards).
        let mut registry = MetricRegistry::new();
        let mut trace = TraceLog::default();
        let mut per_shard_events: Vec<u64> = Vec::with_capacity(cfg.shards as usize);
        let mut scan_resilience = ofh_scan::ScanResilience::default();
        let mut conns_shed: u64 = 0;
        let mut leaked: u64 = 0;
        for (index, out) in outputs {
            scan_resilience.absorb(&out.resilience);
            conns_shed += out.conns_shed;
            leaked += out.leaked;
            zmap_parts.push(out.zmap);
            sonar_parts.push(out.sonar);
            shodan_parts.push(out.shodan);
            fingerprint_report.absorb(out.fingerprint);
            for (merged, shard_log) in logs.iter_mut().zip(out.logs) {
                merged.extend(shard_log);
            }
            telescope_parts.push(out.telescope);
            counters.absorb(&out.counters);
            per_shard_events.push(out.counters.events_processed);
            if let Some(shard_obs) = out.obs {
                registry.absorb(&shard_obs.metrics);
                trace.absorb(index, shard_obs.trace);
            }
            simulate_node.push_child(out.profile);
        }
        let zmap_results = ScanResults::merge_all("ZMap Scan", zmap_parts);
        let sonar_results = ScanResults::merge_all("Project Sonar", sonar_parts);
        let shodan_results = ScanResults::merge_all("Shodan", shodan_parts);
        let telescope = Telescope::merge_all(GeoDb::new(), telescope_parts);
        fingerprint_report.normalize();
        trace.finish();
        // Fold the fabric counters in, so the snapshot carries the network
        // totals (including fault-injection drops/corruptions) without the
        // hot path paying for a second count of each event.
        registry.count("net.events_processed", "", counters.events_processed);
        registry.count("net.syns_sent", "", counters.syns_sent);
        registry.count("net.conns_established", "", counters.conns_established);
        registry.count("net.conns_refused", "", counters.conns_refused);
        registry.count("net.conn_timeouts", "", counters.conn_timeouts);
        registry.count("net.tcp_bytes_total", "", counters.tcp_payload_bytes);
        registry.count("net.udp.sent", "", counters.udp_datagrams_sent);
        registry.count("net.udp.dropped", "", counters.udp_datagrams_dropped);
        registry.count("net.udp.corrupted", "", counters.udp_datagrams_corrupted);
        registry.count("net.udp.duplicated", "", counters.udp_datagrams_duplicated);
        registry.count("net.fault.handshake_drops", "", counters.tcp_handshake_drops);
        registry.count("net.fault.rate_limited", "", counters.tcp_rate_limited);
        registry.count("net.fault.resets_injected", "", counters.tcp_resets_injected);
        registry.count("net.fault.churn_suppressed", "", counters.churn_suppressed);
        registry.count("scan.retry.first_attempt_losses", "", scan_resilience.first_attempt_losses);
        registry.count("scan.retry.issued", "", scan_resilience.retries_issued);
        registry.count("scan.retry.recovered", "", scan_resilience.retries_recovered);
        registry.count("fingerprint.retry.issued", "", fingerprint_report.retries_issued);
        registry.count("fingerprint.retry.recovered", "", fingerprint_report.retries_recovered);
        registry.count("honeypot.conns_shed", "", conns_shed);
        // The dataset merge re-sorts all events by (time, src, src_port);
        // every source address lives in exactly one shard, so the sorted
        // stream is independent of the shard split.
        let dataset = AttackDataset::merge(logs);
        let merge_node = merge_sw.leaf("merge");

        // ---- 5. Analysis ------------------------------------------------
        progress("computing tables and figures");
        let analysis_sw = Stopwatch::start();
        let honeypot_filter = fingerprint_report.filter_set();
        let table4 = Table4::compute(&zmap_results, &sonar_results, &shodan_results);
        // Classify the ZMap dataset once: Table 5 and the §5.3 set both
        // read this census.
        let census = zmap_results.misconfig_census(&honeypot_filter);
        let table5 = Table5::from_census(&census);
        let misconfigured: std::collections::BTreeSet<Ipv4Addr> = census.all.into_iter().collect();
        let table7 = Table7::compute(&dataset, &oracles.rdns);
        let month_start_day = cfg.month_start().day_index();
        let known_scanners: std::collections::BTreeSet<Ipv4Addr> = plan
            .service_sources()
            .keys()
            .copied()
            .filter(|a| ofh_analysis::AttackDataset::is_scanning_service(&oracles.rdns, *a))
            .collect();
        // Gap-tolerant Table 8: daily averages discount scheduled blackout
        // time overlapping the honeypot month instead of silently averaging
        // over dead air.
        let month_outage_minutes = cfg.faults.outage_minutes_between(
            month_start_day * 86_400_000,
            (month_start_day + cfg.month_days) * 86_400_000,
        );
        let table8 = TelescopeSummary::compute_gap_aware(
            &telescope,
            month_start_day,
            month_start_day + cfg.month_days,
            &known_scanners,
            month_outage_minutes,
        );
        let table10 = Table10::compute(&misconfigured, &geo);
        let table12 = Table12::compute(&dataset, 11);
        let table13 = Table13::compute(&dataset, &oracles.malware);
        let fig2 = Fig2::compute(&zmap_results);
        let fig3 = Fig3::compute(&dataset, &oracles.rdns);
        let breakdown = AttackTypeBreakdown::compute(&dataset);
        let fig5 = Fig5::compute(&dataset, &oracles.rdns, &oracles.greynoise);
        let fig6 = Fig6::compute(&dataset, &telescope, &oracles.rdns, &oracles.virustotal);
        let fig8 = Fig8::compute(&dataset, cfg.month_start(), cfg.month_days, &plan.listings);
        let fig9 = Fig9::compute(&dataset, &oracles.rdns);
        let infected = InfectedHosts::compute(
            &misconfigured,
            &dataset,
            &telescope,
            &oracles.virustotal,
            &oracles.censys,
            &oracles.rdns,
        );
        let resilience = crate::report::ResilienceReport::assemble(
            &scan_resilience,
            &fingerprint_report,
            conns_shed,
            cfg.faults.outage_minutes(),
            &counters,
            leaked,
        );
        let analysis_node = analysis_sw.leaf("analysis");

        // ---- 6. The snapshot: profile tree + merged metrics -------------
        // stage → shard → phase, with the wall/cpu split: a parallel
        // "simulate" stage's cpu (the per-shard clocks summed) may exceed
        // its wall (the coordinator's elapsed time) by up to `workers`×.
        let mut profile = ProfileNode::new("study");
        profile.wall_ns = study_sw.elapsed().as_nanos() as u64;
        profile.push_child(setup_node);
        profile.push_child(simulate_node);
        profile.push_child(merge_node);
        profile.push_child(analysis_node);
        let mut metrics = MetricsSnapshot::from_registry(
            cfg.seed,
            cfg.shards,
            &cfg.preset,
            &registry,
            per_shard_events,
        );
        let (pool_hits, pool_misses) = ofh_net::Payload::pool_stats();
        metrics.host.workers = workers as u64;
        metrics.host.pool_hits = pool_hits;
        metrics.host.pool_misses = pool_misses;
        metrics.host.steals = steals_total;
        metrics.host.profile = profile;

        StudyReport {
            config: cfg.clone(),
            table4,
            table5,
            fingerprint: fingerprint_report,
            table7,
            table8,
            table10,
            table12,
            table13,
            fig2,
            fig3,
            breakdown,
            fig5,
            fig6,
            fig8,
            fig9,
            infected,
            resilience,
            dataset,
            telescope,
            geo,
            rdns: oracles.rdns,
            zmap_results,
            sonar_results,
            shodan_results,
            population_size: population.records.len(),
            wild_honeypot_count: wild.len(),
            counters,
            metrics,
            trace,
        }
    }
}

/// Simulate one shard: the March scan, fingerprinting, and the April
/// honeypot month — restricted to the addresses this shard owns.
fn run_shard(inputs: &ShardInputs<'_>, spec: ShardSpec) -> ShardOutput {
    let cfg = inputs.cfg;
    let universe = cfg.universe;

    // Install this shard's recording target for the duration of its
    // simulation. A shard runs to completion on one thread (the dispenser
    // never migrates one mid-run), so everything the instrumented crates
    // record below lands in this shard's private registry and ring.
    let obs_guard = cfg
        .obs
        .enabled
        .then(|| ofh_obs::install(ShardObs::for_shard(spec.index, &cfg.obs)));
    // Point this thread's live-telemetry cell at this shard for the
    // duration of its simulation (cells and shards are 1:1; threads take a
    // cell when they pick a shard up and drop it when done).
    if let Some(lp) = &inputs.live {
        ofh_obs::live::set_cell(Some(lp.cells[spec.index as usize].clone()));
    }
    let shard_sw = Stopwatch::start();
    let mut profile = ProfileNode::new(format!("shard-{:02}", spec.index));
    let phase_sw = Stopwatch::start();

    // ---- Wire up this shard's slice of the simulated Internet ----------
    let mut net = SimNet::new(SimNetConfig {
        seed: spec.seed(cfg.seed, "shard-net"),
        faults: cfg.faults.clone(),
        ..SimNetConfig::default()
    });
    let telescope_tap = net.add_tap(
        universe.dark_space(),
        Box::new(Telescope::new(inputs.geo.clone())),
    );

    // Devices the shard owns — infected ones get their bot schedules.
    match cfg.population {
        PopulationMode::Eager => {
            for (i, record) in inputs.population.records.iter().enumerate() {
                if !spec.owns(record.addr) {
                    continue;
                }
                let agent = record.build_agent();
                match inputs.infected_tasks.get(&i) {
                    Some(tasks) => {
                        net.attach(record.addr, Box::new(InfectedDevice::new(agent, tasks.clone())));
                    }
                    None => {
                        net.attach(record.addr, agent);
                    }
                }
            }
            for &(addr, family) in inputs.wild {
                if spec.owns(addr) {
                    net.attach(addr, Box::new(WildHoneypotAgent::new(family)));
                }
            }
        }
        PopulationMode::Implicit => {
            // Only infected devices exist from the start (their boot
            // schedules the bot tasks); everything else streams out of the
            // shard's arena on first touch.
            for (i, record) in inputs.population.records.iter().enumerate() {
                if !spec.owns(record.addr) {
                    continue;
                }
                if let Some(tasks) = inputs.infected_tasks.get(&i) {
                    net.attach(
                        record.addr,
                        Box::new(InfectedDevice::new(record.build_agent(), tasks.clone())),
                    );
                }
            }
            net.set_spawner(Box::new(ShardSpawner::build(inputs, spec)));
        }
    }

    // Deployed honeypots are replicated into every shard: each replica
    // receives exactly the traffic of this shard's actors, and the merge
    // concatenates the replica logs back into one deployment.
    let honeypots = inputs.honeypots;
    let hostage_id = net.attach(honeypots.hostage, Box::new(HosTaGeHoneypot::new()));
    let upot_id = net.attach(honeypots.upot, Box::new(UPotHoneypot::new()));
    let conpot_id = net.attach(honeypots.conpot, Box::new(ConpotHoneypot::new()));
    let thingpot_id = net.attach(honeypots.thingpot, Box::new(ThingPotHoneypot::new()));
    let cowrie_id = net.attach(honeypots.cowrie, Box::new(CowrieHoneypot::new()));
    let dionaea_id = net.attach(honeypots.dionaea, Box::new(DionaeaHoneypot::new()));

    // Attackers the shard owns.
    for actor in &inputs.plan.actors {
        if spec.owns(actor.addr) {
            net.attach(actor.addr, Box::new(AttackerAgent::new(actor.tasks.clone())));
        }
    }

    // Scanners (ours + the dataset providers): every shard runs a replica
    // that walks the full permutation but probes only its owned addresses.
    let scanner_base = u32::from(universe.scanner_addr());
    let zmap_cfgs: Vec<ScannerConfig> = ofh_wire::Protocol::SCANNED
        .iter()
        .map(|&p| {
            let mut c = ScannerConfig::full(
                p,
                universe.cidr().first(),
                universe.size(),
                scan_start(p),
                spec.seed(cfg.seed ^ 0x5A4D_4150, "scan"),
            );
            c.shard = spec;
            if let Some(ts) = &inputs.scan_targets {
                c.targets = ts[spec.index as usize].clone();
            }
            c
        })
        .collect();
    let scan_end = zmap_cfgs
        .iter()
        .map(Scanner::estimated_end)
        .max()
        .expect("six sweeps");
    let zmap_id = net.attach(
        Ipv4Addr::from(scanner_base),
        Box::new(Scanner::new("ZMap Scan", zmap_cfgs)),
    );
    let (sonar_id, shodan_id) = if cfg.run_dataset_providers {
        let shard_cfgs = |mut cfgs: Vec<ScannerConfig>| {
            for c in &mut cfgs {
                c.shard = spec;
                if let Some(ts) = &inputs.scan_targets {
                    c.targets = ts[spec.index as usize].clone();
                }
            }
            cfgs
        };
        let sonar = Scanner::new(
            "Project Sonar",
            shard_cfgs(datasets::sonar_configs(
                universe.cidr().first(),
                universe.size(),
                SimTime::ZERO,
                spec.seed(cfg.seed, "sonar"),
            )),
        );
        let shodan = Scanner::new(
            "Shodan",
            shard_cfgs(datasets::shodan_configs(
                universe.cidr().first(),
                universe.size(),
                SimTime::ZERO,
                spec.seed(cfg.seed, "shodan"),
            )),
        );
        (
            Some(net.attach(Ipv4Addr::from(scanner_base + 1), Box::new(sonar))),
            Some(net.attach(Ipv4Addr::from(scanner_base + 2), Box::new(shodan))),
        )
    } else {
        (None, None)
    };

    // ---- Scan phase (March) --------------------------------------------
    profile.push_child(phase_sw.leaf("wire"));
    let phase_sw = Stopwatch::start();
    // Under a fault schedule, grabs interrupted near the sweep tail retry
    // with backoff (up to ~4.25 s each, two chained): give the tail room to
    // drain. Fault-free runs keep the original boundary so their traces are
    // byte-for-byte unchanged.
    let scan_end = if cfg.faults.is_none() {
        scan_end
    } else {
        scan_end + ofh_net::SimDuration::from_secs(30)
    };
    net.run_until(scan_end);
    profile.push_child(phase_sw.leaf("scan"));
    let phase_sw = Stopwatch::start();
    let zmap = net
        .agent_downcast_mut::<Scanner>(zmap_id)
        .expect("zmap scanner")
        .results
        .clone();

    // ---- Fingerprint phase ---------------------------------------------
    let signature_db = SignatureDb::new();
    let candidates = engine::passive_candidates(&signature_db, &zmap);
    let candidate_count = candidates.len();
    let prober_id = net.attach(
        Ipv4Addr::from(scanner_base + 3),
        Box::new(FingerprintProber::new(candidates)),
    );
    net.run_until(net.now() + FingerprintProber::estimated_duration(candidate_count));
    profile.push_child(phase_sw.leaf("fingerprint"));

    // ---- Honeypot month (April) ----------------------------------------
    let phase_sw = Stopwatch::start();
    net.run_until(cfg.study_end());
    // Fold the network's locally-accumulated observability (final partial
    // hour, payload-size histograms, connection high-water mark) into this
    // shard's recording target while it is still installed.
    net.flush_obs();
    profile.push_child(phase_sw.leaf("month"));

    // ---- Extraction -----------------------------------------------------
    let phase_sw = Stopwatch::start();
    let mut resilience = ofh_scan::ScanResilience::default();
    let mut leaked: u64 = 0;
    let prober = net
        .agent_downcast_mut::<FingerprintProber>(prober_id)
        .expect("prober");
    leaked += prober.leaked_state();
    let fingerprint = prober.report.clone();
    // Fold in the zmap scanner's retry accounting (its results were cloned
    // at the scan boundary above, after the retry tail drained).
    {
        let s = net.agent_downcast_mut::<Scanner>(zmap_id).expect("zmap scanner");
        resilience.absorb(&s.resilience);
        leaked += s.leaked_state();
    }
    let sonar = sonar_id
        .map(|id| extract_results(&mut net, id, &mut resilience, &mut leaked))
        .unwrap_or_else(|| ScanResults::new("Project Sonar"));
    let shodan = shodan_id
        .map(|id| extract_results(&mut net, id, &mut resilience, &mut leaked))
        .unwrap_or_else(|| ScanResults::new("Shodan"));

    let mut conns_shed: u64 = 0;
    let mut logs = Vec::with_capacity(6);
    {
        let h = net.agent_downcast_mut::<HosTaGeHoneypot>(hostage_id).expect("hostage");
        conns_shed += h.shed_connections();
        logs.push(std::mem::take(&mut h.log).events);
    }
    {
        let h = net.agent_downcast_mut::<UPotHoneypot>(upot_id).expect("upot");
        conns_shed += h.shed_connections();
        logs.push(std::mem::take(&mut h.log).events);
    }
    {
        let h = net.agent_downcast_mut::<ConpotHoneypot>(conpot_id).expect("conpot");
        conns_shed += h.shed_connections();
        logs.push(std::mem::take(&mut h.log).events);
    }
    {
        let h = net.agent_downcast_mut::<ThingPotHoneypot>(thingpot_id).expect("thingpot");
        conns_shed += h.shed_connections();
        logs.push(std::mem::take(&mut h.log).events);
    }
    {
        let h = net.agent_downcast_mut::<CowrieHoneypot>(cowrie_id).expect("cowrie");
        conns_shed += h.shed_connections();
        logs.push(std::mem::take(&mut h.log).events);
    }
    {
        let h = net.agent_downcast_mut::<DionaeaHoneypot>(dionaea_id).expect("dionaea");
        conns_shed += h.shed_connections();
        logs.push(std::mem::take(&mut h.log).events);
    }
    // Exclude our own measurement infrastructure (the scanning host and
    // the fingerprint prober) from the attack dataset — the paper's
    // pipeline likewise discounts its own probes.
    let own_infra: std::collections::BTreeSet<Ipv4Addr> = (0..4u32)
        .map(|i| Ipv4Addr::from(scanner_base + i))
        .collect();
    for log in &mut logs {
        log.retain(|e| !own_infra.contains(&e.src));
    }
    let telescope = std::mem::replace(
        net.tap_downcast_mut::<Telescope>(telescope_tap)
            .expect("telescope tap"),
        Telescope::new(GeoDb::new()),
    );

    profile.push_child(phase_sw.leaf("extract"));
    profile.wall_ns = shard_sw.elapsed().as_nanos() as u64;

    if let Some(lp) = &inputs.live {
        lp.mark_done(spec.index);
        ofh_obs::live::set_cell(None);
    }

    ShardOutput {
        zmap,
        sonar,
        shodan,
        fingerprint,
        logs,
        telescope,
        counters: net.counters(),
        resilience,
        conns_shed,
        leaked,
        obs: obs_guard.map(|g| g.finish()),
        profile,
    }
}

fn extract_results(
    net: &mut SimNet,
    id: AgentId,
    resilience: &mut ofh_scan::ScanResilience,
    leaked: &mut u64,
) -> ScanResults {
    let s = net.agent_downcast_mut::<Scanner>(id).expect("scanner agent");
    resilience.absorb(&s.resilience);
    *leaked += s.leaked_state();
    s.results.clone()
}

/// Ground-truth-free helper used by tests: build just the population.
pub fn population_for(cfg: &StudyConfig) -> Population {
    PopulationBuilder::new(PopulationSpec {
        universe: cfg.universe,
        scale: cfg.scan_scale,
        seed: cfg.seed,
    })
    .build()
}

/// Export used by report rendering.
pub fn country_name(c: Country) -> &'static str {
    c.name()
}
