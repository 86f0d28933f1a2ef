//! Property tests for the analysis layer: totality and partition invariants
//! over arbitrary event streams, and the one-pass tables and figures
//! against their set-per-cell reference formulations.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ofh_analysis::events::{register_service_rdns, AttackDataset, SourceClass};
use ofh_analysis::figures::{AttackTypeBreakdown, Fig2};
use ofh_analysis::table4::{Table4, Table4Row};
use ofh_analysis::table5::{Table5, Table5Row};
use ofh_analysis::table7::Table7;
use ofh_devices::{DeviceType, Misconfig};
use ofh_honeypots::{AttackEvent, EventKind};
use ofh_intel::ReverseDns;
use ofh_net::SimTime;
use ofh_scan::{ztag, HostRecord, ScanResults};
use ofh_wire::Protocol;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Connection),
        (1usize..2000).prop_map(|len| EventKind::Datagram { len }),
        Just(EventKind::Discovery),
        ("[a-z]{1,8}", "[a-z0-9!]{0,8}", any::<bool>()).prop_map(|(u, p, s)| {
            EventKind::LoginAttempt {
                username: u,
                password: p,
                success: s,
            }
        }),
        "[a-z ./:-]{1,24}".prop_map(|line| EventKind::Command { line }),
        prop::collection::vec(any::<u8>(), 0..32).prop_map(|payload| EventKind::PayloadDrop {
            payload,
            url: None,
        }),
        "[a-z/]{1,12}".prop_map(|t| EventKind::DataWrite { target: t }),
        "[a-z/]{1,12}".prop_map(|t| EventKind::DataRead { target: t }),
        "/[a-z/]{0,12}".prop_map(|p| EventKind::HttpRequest { path: p }),
        "[A-Za-z0-9 -]{1,16}".prop_map(|n| EventKind::ExploitSignature { name: n }),
    ]
}

fn arb_event() -> impl Strategy<Value = AttackEvent> {
    (
        0u64..2_000_000_000,
        prop::sample::select(vec!["HosTaGe", "U-Pot", "Conpot", "ThingPot", "Cowrie", "Dionaea"]),
        prop::sample::select(Protocol::ALL.to_vec()),
        any::<u32>(),
        any::<u16>(),
        arb_kind(),
    )
        .prop_map(|(t, honeypot, protocol, src, src_port, kind)| AttackEvent {
            time: SimTime(t),
            honeypot,
            protocol,
            src: Ipv4Addr::from(src),
            src_port,
            kind,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every event gets exactly one attack type, and the per-protocol
    /// breakdown partitions the dataset (cells sum to the event count).
    #[test]
    fn attack_typing_is_a_partition(events in prop::collection::vec(arb_event(), 0..300)) {
        let n = events.len() as u64;
        let ds = AttackDataset::merge(vec![events]);
        let breakdown = AttackTypeBreakdown::compute(&ds);
        let total: u64 = breakdown.cells.iter().map(|(_, _, _, c)| c).sum();
        prop_assert_eq!(total, n);
        // Per-protocol shares sum to 1 wherever a protocol has events.
        for p in Protocol::ALL {
            let per = breakdown.per_protocol(p);
            let sum: u64 = per.values().sum();
            if sum > 0 {
                let share_sum: f64 = per
                    .keys()
                    .map(|&ty| breakdown.share(p, ty))
                    .sum();
                prop_assert!((share_sum - 1.0).abs() < 1e-9);
            }
        }
    }

    /// Table 7's source classification partitions each honeypot's unique
    /// sources: scanning + malicious + unknown = distinct sources seen.
    #[test]
    fn table7_sources_partition(events in prop::collection::vec(arb_event(), 0..300)) {
        let ds = AttackDataset::merge(vec![events]);
        let rdns = ReverseDns::new();
        let t7 = Table7::compute(&ds, &rdns);
        for hp in ["HosTaGe", "U-Pot", "Conpot", "ThingPot", "Cowrie", "Dionaea"] {
            let distinct: std::collections::BTreeSet<Ipv4Addr> =
                ds.honeypot_events(hp).map(|e| e.src).collect();
            let s = t7.sources_of(hp);
            prop_assert_eq!(s.scanning + s.malicious + s.unknown, distinct.len(), "{}", hp);
        }
        // Row events also sum to the dataset size.
        let total: u64 = t7.rows.iter().map(|r| r.events).sum();
        prop_assert_eq!(total, ds.len() as u64);
    }

    /// Source classes are stable (same input, same class) and never
    /// scanning-service without an rDNS registration.
    #[test]
    fn classification_without_rdns_never_scanning(
        events in prop::collection::vec(arb_event(), 1..120),
    ) {
        let ds = AttackDataset::merge(vec![events]);
        let rdns = ReverseDns::new();
        for e in &ds.events {
            let c = ds.classify_source(&rdns, e.honeypot, e.src);
            prop_assert_ne!(c, SourceClass::ScanningService);
            prop_assert_eq!(c, ds.classify_source(&rdns, e.honeypot, e.src));
        }
    }
}

// ------------------------------------------- one-pass source classification

/// Source pool for classification scenarios: few enough addresses that
/// sources recur (more than 6 events) across honeypots and protocols.
const POOL: u32 = 16;
const POOL_BASE: u32 = 0x0a00_0000;
/// Swarm members come from a disjoint range, one or two events each.
const SWARM_BASE: u32 = 0x0b00_0000;
const HONEYPOTS: [&str; 6] = [
    "HosTaGe", "U-Pot", "Conpot", "ThingPot", "Cowrie", "Dionaea",
];

fn at(
    t: u64,
    honeypot: &'static str,
    protocol: Protocol,
    src: u32,
    kind: EventKind,
) -> AttackEvent {
    AttackEvent {
        time: SimTime(t),
        honeypot,
        protocol,
        src: Ipv4Addr::from(src),
        src_port: (t % 60_000) as u16,
        kind,
    }
}

/// Background traffic from the pool, spread over ten minutes.
fn arb_pool_event() -> impl Strategy<Value = AttackEvent> {
    (
        0u64..600_000,
        prop::sample::select(HONEYPOTS.to_vec()),
        prop::sample::select(Protocol::ALL.to_vec()),
        0..POOL,
        arb_kind(),
    )
        .prop_map(|(t, hp, proto, i, kind)| at(t, hp, proto, POOL_BASE + i, kind))
}

/// A single-source flood: at least `DOS_EVENTS_PER_MINUTE` benign-kind
/// events from one pool source to one honeypot protocol in one minute.
fn arb_flood() -> impl Strategy<Value = Vec<AttackEvent>> {
    use ofh_analysis::events::DOS_EVENTS_PER_MINUTE;
    (
        prop::sample::select(HONEYPOTS.to_vec()),
        prop::sample::select(Protocol::ALL.to_vec()),
        0..POOL,
        10u64..20,
        DOS_EVENTS_PER_MINUTE..DOS_EVENTS_PER_MINUTE + 8,
    )
        .prop_map(|(hp, proto, i, minute, n)| {
            (0..n as u64)
                .map(|k| {
                    let t = minute * 60_000 + k * 997;
                    at(t, hp, proto, POOL_BASE + i, EventKind::Datagram { len: 64 })
                })
                .collect()
        })
}

/// A distributed flood: at least `DDOS_AGGREGATE_PER_MINUTE` events to one
/// honeypot protocol in one minute, each source sending at most two.
fn arb_swarm() -> impl Strategy<Value = Vec<AttackEvent>> {
    use ofh_analysis::events::DDOS_AGGREGATE_PER_MINUTE;
    (
        prop::sample::select(HONEYPOTS.to_vec()),
        prop::sample::select(Protocol::ALL.to_vec()),
        20u64..30,
        DDOS_AGGREGATE_PER_MINUTE..DDOS_AGGREGATE_PER_MINUTE + 20,
        any::<u16>(),
    )
        .prop_map(|(hp, proto, minute, n, salt)| {
            (0..n as u64)
                .map(|k| {
                    let src = SWARM_BASE + u32::from(salt) * 64 + (k / 2) as u32;
                    at(
                        minute * 60_000 + k * 500,
                        hp,
                        proto,
                        src,
                        EventKind::Connection,
                    )
                })
                .collect()
        })
}

/// A slow repeater: more than 6 connections from one source, each in its
/// own minute (recurrence alone makes it malicious).
fn arb_repeater() -> impl Strategy<Value = Vec<AttackEvent>> {
    (
        prop::sample::select(HONEYPOTS.to_vec()),
        prop::sample::select(Protocol::ALL.to_vec()),
        0..POOL,
        7u64..12,
    )
        .prop_map(|(hp, proto, i, n)| {
            (0..n)
                .map(|k| {
                    at(
                        40 * 60_000 + k * 180_000,
                        hp,
                        proto,
                        POOL_BASE + i,
                        EventKind::Connection,
                    )
                })
                .collect()
        })
}

/// A dataset exercising every branch of the §4.3.1 rule, plus the pool
/// sources registered in rDNS as scanning services (at least one).
fn arb_classification_scenario() -> impl Strategy<Value = (Vec<AttackEvent>, Vec<u32>)> {
    (
        prop::collection::vec(arb_pool_event(), 0..200),
        prop::collection::vec(arb_flood(), 1..3),
        prop::collection::vec(arb_swarm(), 1..3),
        prop::collection::vec(arb_repeater(), 1..3),
        prop::collection::vec(0..POOL, 1..5),
    )
        .prop_map(|(background, floods, swarms, repeaters, scanners)| {
            let scanners: BTreeSet<u32> = scanners.into_iter().collect();
            let mut events = background;
            events.extend(floods.into_iter().flatten());
            events.extend(swarms.into_iter().flatten());
            events.extend(repeaters.into_iter().flatten());
            // Scanners are seen too, so the rDNS branch decides real pairs.
            for (k, &i) in scanners.iter().enumerate() {
                let hp = HONEYPOTS[k % HONEYPOTS.len()];
                events.push(at(
                    50 * 60_000 + k as u64,
                    hp,
                    Protocol::Telnet,
                    POOL_BASE + i,
                    EventKind::Connection,
                ));
            }
            (
                events,
                scanners.into_iter().map(|i| POOL_BASE + i).collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The one-pass `classify_sources` agrees with the per-pair reference
    /// `classify_source` on every (honeypot, src) pair, and classifies
    /// exactly the pairs the dataset contains.
    #[test]
    fn classify_sources_matches_per_pair_reference(scenario in arb_classification_scenario()) {
        let (events, scanners) = scenario;
        let mut rdns = ReverseDns::new();
        for &s in &scanners {
            register_service_rdns(&mut rdns, Ipv4Addr::from(s), "Shodan");
        }
        let ds = AttackDataset::merge(vec![events]);
        prop_assert!(ds.dos_source_count() > 0, "scenario lacks a single-source flood");
        let classes = ds.classify_sources(&rdns);
        let pairs: BTreeSet<(&'static str, Ipv4Addr)> =
            ds.events.iter().map(|e| (e.honeypot, e.src)).collect();
        prop_assert_eq!(classes.keys().copied().collect::<BTreeSet<_>>(), pairs);
        for (&(hp, src), &class) in &classes {
            prop_assert_eq!(class, ds.classify_source(&rdns, hp, src), "{} {}", hp, src);
        }
        let seen = |c: SourceClass| classes.values().any(|&x| x == c);
        prop_assert!(seen(SourceClass::ScanningService) && seen(SourceClass::Malicious));
    }
}

// ----------------------------------- Tables 4/5 and Fig. 2 against oracles

/// Address pool for scan datasets: small, so one host answers on several
/// ports and protocols.
const SCAN_POOL: u32 = 24;

/// Response fragments: every classifier indicator, every device-profile
/// identifier (in varied case), and noise.
fn arb_fragment() -> impl Strategy<Value = String> {
    let mut fragments: Vec<String> = [
        "root@x:~$ ",
        "admin@cam:~$ ",
        "$ ",
        "login:",
        "MQTT Connection Code:0",
        "MQTT Connection Code:5",
        "Version: 2.7.1",
        "Version: 3.9",
        "ANONYMOUS",
        "<mechanism>ANONYMOUS</mechanism>",
        "<mechanism>PLAIN</mechanism>",
        "<required/>",
        "220-Admin",
        "220 ",
        "x1C",
        "rt: core",
        "</res>",
        "\n/light\n",
        "ST: upnp:rootdevice",
        "HTTP/1.1 200 OK",
        "",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for p in ofh_devices::profiles::PROFILES {
        fragments.push(p.identifier.to_string());
        fragments.push(p.identifier.to_ascii_uppercase());
    }
    prop::sample::select(fragments)
}

fn arb_scan_results(source: &'static str) -> impl Strategy<Value = ScanResults> {
    prop::collection::vec(
        (
            0..SCAN_POOL,
            prop::sample::select(Protocol::SCANNED.to_vec()),
            any::<bool>(),
            arb_fragment(),
            arb_fragment(),
        ),
        0..120,
    )
    .prop_map(move |rows| {
        let mut rs = ScanResults::new(source);
        for (i, protocol, alt_port, a, b) in rows {
            let port = if alt_port {
                protocol.port() + 10_000
            } else {
                protocol.port()
            };
            rs.insert(HostRecord {
                addr: Ipv4Addr::from(0x1000_0000 + i),
                port,
                protocol,
                response: format!("{a}{b}"),
                raw: Vec::new(),
            });
        }
        rs
    })
}

/// Table 4's cell as first formulated: a set of addresses per protocol.
fn oracle_exposed(rs: &ScanResults, protocol: Protocol) -> u64 {
    rs.records
        .values()
        .filter(|r| r.protocol == protocol)
        .map(|r| r.addr)
        .collect::<BTreeSet<_>>()
        .len() as u64
}

/// The honeypot filter as first formulated: clone, then drop the records.
fn oracle_remove_addrs(rs: &ScanResults, filter: &BTreeSet<Ipv4Addr>) -> (ScanResults, usize) {
    let mut filtered = rs.clone();
    let before = filtered.records.len();
    filtered
        .records
        .retain(|(addr, _), _| !filter.contains(addr));
    let dropped = before - filtered.records.len();
    (filtered, dropped)
}

fn oracle_misconfigured(rs: &ScanResults, class: Misconfig) -> BTreeSet<Ipv4Addr> {
    rs.records
        .values()
        .filter(|r| r.misconfig() == Some(class))
        .map(|r| r.addr)
        .collect()
}

fn oracle_all_misconfigured(rs: &ScanResults) -> BTreeSet<Ipv4Addr> {
    rs.records
        .values()
        .filter(|r| r.misconfig().is_some())
        .map(|r| r.addr)
        .collect()
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tables 4 and 5, the §5.3 misconfigured set and Fig. 2 equal their
    /// set-per-cell, clone-and-filter formulations.
    #[test]
    fn scan_tables_match_set_oracles(
        zmap in arb_scan_results("ZMap Scan"),
        sonar in arb_scan_results("Project Sonar"),
        shodan in arb_scan_results("Shodan"),
        filter in prop::collection::vec(0..SCAN_POOL, 1..6),
    ) {
        let filter: BTreeSet<Ipv4Addr> =
            filter.into_iter().map(|i| Ipv4Addr::from(0x1000_0000 + i)).collect();

        let mut rows: Vec<Table4Row> = Protocol::SCANNED
            .iter()
            .map(|&p| Table4Row {
                protocol: p,
                zmap: oracle_exposed(&zmap, p),
                sonar: ofh_scan::datasets::sonar_coverage(p).map(|_| oracle_exposed(&sonar, p)),
                shodan: oracle_exposed(&shodan, p),
            })
            .collect();
        rows.sort_by_key(|r| r.zmap);
        prop_assert_eq!(json(&Table4::compute(&zmap, &sonar, &shodan)), json(&Table4 { rows }));

        let (filtered, dropped) = oracle_remove_addrs(&zmap, &filter);
        let mut rows: Vec<Table5Row> = Misconfig::ALL
            .iter()
            .map(|&class| Table5Row {
                class,
                devices: oracle_misconfigured(&filtered, class).len() as u64,
            })
            .collect();
        rows.sort_by_key(|r| r.devices);
        let all = oracle_all_misconfigured(&filtered);
        let expect5 = Table5 { rows, total: all.len() as u64, honeypots_filtered: dropped };
        prop_assert_eq!(json(&Table5::compute(&zmap, &filter)), json(&expect5));
        prop_assert_eq!(Table5::misconfigured_addrs(&zmap, &filter), all);

        let mut cells: BTreeMap<(Protocol, DeviceType), BTreeSet<Ipv4Addr>> = BTreeMap::new();
        let mut unidentified: BTreeMap<Protocol, u64> = BTreeMap::new();
        for r in zmap.records.values() {
            match ztag::tag_device_type(r.protocol, &r.response) {
                Some(ty) => {
                    cells.entry((r.protocol, ty)).or_default().insert(r.addr);
                }
                None => *unidentified.entry(r.protocol).or_insert(0) += 1,
            }
        }
        let expect2 = Fig2 {
            cells: cells.into_iter().map(|((p, t), s)| (p, t, s.len() as u64)).collect(),
            unidentified,
        };
        prop_assert_eq!(json(&Fig2::compute(&zmap)), json(&expect2));
    }
}
