//! The merged honeypot dataset: source classification and attack typing.
//!
//! The paper's pipeline (§4.3): reverse-look-up every source; sources
//! registered to known scanning services are "scanning-service traffic";
//! sources exhibiting malicious behaviour (brute force, droppers, poisoning,
//! floods, exploits) are "malicious"; the rest — one-off unknown scans — are
//! "unknown/suspicious". DoS is detected from per-source-per-minute rates,
//! not from actor ground truth.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ofh_honeypots::{AttackEvent, EventKind};
use ofh_intel::ReverseDns;
use ofh_wire::Protocol;
use serde::Serialize;

/// Per-source classification (Table 7's starred columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SourceClass {
    ScanningService,
    Malicious,
    Unknown,
}

/// Attack types (Figs. 4 and 7 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum AttackType {
    Scanning,
    BruteForce,
    MalwareDeployment,
    DataPoisoning,
    Dos,
    Exploit,
    Scraping,
}

impl AttackType {
    pub const ALL: [AttackType; 7] = [
        AttackType::Scanning,
        AttackType::BruteForce,
        AttackType::MalwareDeployment,
        AttackType::DataPoisoning,
        AttackType::Dos,
        AttackType::Exploit,
        AttackType::Scraping,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            AttackType::Scanning => "Scanning/Discovery",
            AttackType::BruteForce => "Brute force",
            AttackType::MalwareDeployment => "Malware deployment",
            AttackType::DataPoisoning => "Data poisoning",
            AttackType::Dos => "DoS",
            AttackType::Exploit => "Exploit",
            AttackType::Scraping => "Web scraping",
        }
    }
}

/// Flood threshold: this many events from one source to one honeypot
/// protocol within one minute is a DoS, not scanning.
pub const DOS_EVENTS_PER_MINUTE: usize = 30;

/// Aggregate flood threshold: this many events to one honeypot protocol
/// within one minute — regardless of source — is a *distributed* DoS
/// episode (botnet swarms send few packets per source; the target still
/// drowns).
pub const DDOS_AGGREGATE_PER_MINUTE: usize = 60;

/// The merged honeypot event dataset.
pub struct AttackDataset {
    pub events: Vec<AttackEvent>,
    /// Minute-rate DoS flags per (src, honeypot, protocol).
    dos_sources: BTreeSet<(Ipv4Addr, &'static str, Protocol)>,
    /// Aggregate (distributed) flood episodes per (honeypot, protocol,
    /// minute).
    dos_minutes: BTreeSet<(&'static str, Protocol, u64)>,
}

impl AttackDataset {
    /// Merge per-honeypot logs into one time-ordered dataset and detect
    /// flood episodes (single-source and distributed).
    pub fn merge(logs: Vec<Vec<AttackEvent>>) -> AttackDataset {
        let mut events: Vec<AttackEvent> = logs.into_iter().flatten().collect();
        events.sort_by_key(|e| (e.time, e.src, e.src_port));
        // Flood detection by per-minute rates.
        let mut per_minute: BTreeMap<(Ipv4Addr, &'static str, Protocol, u64), usize> =
            BTreeMap::new();
        let mut aggregate: BTreeMap<(&'static str, Protocol, u64), usize> = BTreeMap::new();
        for e in &events {
            let minute = e.time.minute_index();
            *per_minute
                .entry((e.src, e.honeypot, e.protocol, minute))
                .or_insert(0) += 1;
            *aggregate.entry((e.honeypot, e.protocol, minute)).or_insert(0) += 1;
        }
        let dos_sources = per_minute
            .into_iter()
            .filter(|(_, n)| *n >= DOS_EVENTS_PER_MINUTE)
            .map(|((src, hp, proto, _), _)| (src, hp, proto))
            .collect();
        let dos_minutes = aggregate
            .into_iter()
            .filter(|(_, n)| *n >= DDOS_AGGREGATE_PER_MINUTE)
            .map(|(key, _)| key)
            .collect();
        AttackDataset {
            events,
            dos_sources,
            dos_minutes,
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All distinct source addresses.
    pub fn sources(&self) -> BTreeSet<Ipv4Addr> {
        self.events.iter().map(|e| e.src).collect()
    }

    /// Whether `src` is a known scanning service, by reverse lookup against
    /// scanner-registered domains (the paper's §4.3.1 method).
    pub fn is_scanning_service(rdns: &ReverseDns, src: Ipv4Addr) -> bool {
        rdns.domain_of(src).is_some_and(|d| d.ends_with(".scanner.example"))
    }

    /// Classify one source seen by one honeypot. This rescans every event,
    /// so production code classifies through [`Self::classify_sources`];
    /// this per-pair form is the reference its tests compare against.
    pub fn classify_source(
        &self,
        rdns: &ReverseDns,
        honeypot: &'static str,
        src: Ipv4Addr,
    ) -> SourceClass {
        let (malicious, events) = self
            .events
            .iter()
            .filter(|e| e.honeypot == honeypot && e.src == src)
            .fold((false, 0), |(m, n), e| (m || self.is_malicious(e), n + 1));
        Self::source_class(rdns, src, malicious, events)
    }

    /// Classify every (honeypot, src) pair in one pass over the events —
    /// the same rule as [`Self::classify_source`], folded per pair.
    pub fn classify_sources(
        &self,
        rdns: &ReverseDns,
    ) -> BTreeMap<(&'static str, Ipv4Addr), SourceClass> {
        let mut seen: BTreeMap<(&'static str, Ipv4Addr), (bool, usize)> = BTreeMap::new();
        for e in &self.events {
            let (malicious, events) = seen.entry((e.honeypot, e.src)).or_default();
            *malicious = *malicious || self.is_malicious(e);
            *events += 1;
        }
        seen.into_iter()
            .map(|(pair, (malicious, events))| {
                (pair, Self::source_class(rdns, pair.1, malicious, events))
            })
            .collect()
    }

    /// Whether one event is malicious behaviour on its own.
    fn is_malicious(&self, e: &AttackEvent) -> bool {
        let malicious_kind = matches!(
            e.kind,
            EventKind::LoginAttempt { .. }
                | EventKind::PayloadDrop { .. }
                | EventKind::DataWrite { .. }
                | EventKind::ExploitSignature { .. }
        );
        // Flood participation — single-source or as part of a distributed
        // swarm — is malicious behaviour.
        malicious_kind || self.in_flood(e)
    }

    /// Whether an event belongs to a single-source or distributed flood.
    fn in_flood(&self, e: &AttackEvent) -> bool {
        self.dos_sources.contains(&(e.src, e.honeypot, e.protocol))
            || self
                .dos_minutes
                .contains(&(e.honeypot, e.protocol, e.time.minute_index()))
    }

    /// The §4.3.1 rule for one source, given what its events showed.
    fn source_class(
        rdns: &ReverseDns,
        src: Ipv4Addr,
        saw_malicious: bool,
        events: usize,
    ) -> SourceClass {
        if Self::is_scanning_service(rdns, src) {
            SourceClass::ScanningService
        } else if saw_malicious || events > 6 {
            // Recurring non-service traffic and malicious payloads are
            // malicious (§4.3.1).
            SourceClass::Malicious
        } else {
            SourceClass::Unknown
        }
    }

    /// Attack type of one event, given the dataset's flood flags.
    pub fn attack_type(&self, event: &AttackEvent) -> AttackType {
        if self.in_flood(event) {
            // Everything in a flood episode is DoS traffic.
            if matches!(
                event.kind,
                EventKind::Datagram { .. } | EventKind::HttpRequest { .. } | EventKind::Connection
                    | EventKind::ExploitSignature { .. }
            ) {
                return AttackType::Dos;
            }
        }
        match &event.kind {
            EventKind::LoginAttempt { .. } => AttackType::BruteForce,
            EventKind::PayloadDrop { .. } => AttackType::MalwareDeployment,
            EventKind::Command { line } => {
                if line.contains("wget") || line.contains("curl") {
                    AttackType::MalwareDeployment
                } else {
                    AttackType::BruteForce
                }
            }
            EventKind::DataWrite { .. } => AttackType::DataPoisoning,
            EventKind::ExploitSignature { .. } => AttackType::Exploit,
            EventKind::HttpRequest { .. } => AttackType::Scraping,
            EventKind::Connection
            | EventKind::Datagram { .. }
            | EventKind::Discovery
            | EventKind::DataRead { .. } => AttackType::Scanning,
        }
    }

    /// Events on a given honeypot.
    pub fn honeypot_events<'a>(
        &'a self,
        honeypot: &'a str,
    ) -> impl Iterator<Item = &'a AttackEvent> + 'a {
        self.events.iter().filter(move |e| e.honeypot == honeypot)
    }

    /// Sources that triggered a DoS flag anywhere.
    pub fn dos_source_count(&self) -> usize {
        self.dos_sources
            .iter()
            .map(|(src, _, _)| *src)
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// Register a scanning-service source in the reverse-DNS oracle using the
/// convention `is_scanning_service` resolves: `<host>.<service>.scanner.example`.
pub fn register_service_rdns(rdns: &mut ReverseDns, addr: Ipv4Addr, service: &str) {
    let slug: String = service
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    rdns.register(
        addr,
        &format!("probe-{}.{}.scanner.example", u32::from(addr), slug),
        ofh_intel::rdns::DomainInfo::default(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::SimTime;

    fn event(src: &str, honeypot: &'static str, t: u64, kind: EventKind) -> AttackEvent {
        AttackEvent {
            time: SimTime(t),
            honeypot,
            protocol: Protocol::Telnet,
            src: src.parse().unwrap(),
            src_port: 5555,
            kind,
        }
    }

    #[test]
    fn merge_sorts_by_time() {
        let ds = AttackDataset::merge(vec![
            vec![event("1.1.1.1", "Cowrie", 50, EventKind::Connection)],
            vec![event("2.2.2.2", "HosTaGe", 10, EventKind::Connection)],
        ]);
        assert_eq!(ds.len(), 2);
        assert!(ds.events[0].time < ds.events[1].time);
        assert_eq!(ds.sources().len(), 2);
    }

    #[test]
    fn scanning_service_by_rdns() {
        let mut rdns = ReverseDns::new();
        register_service_rdns(&mut rdns, "9.9.9.9".parse().unwrap(), "Shodan");
        let ds = AttackDataset::merge(vec![vec![event(
            "9.9.9.9",
            "Cowrie",
            1,
            EventKind::Connection,
        )]]);
        assert_eq!(
            ds.classify_source(&rdns, "Cowrie", "9.9.9.9".parse().unwrap()),
            SourceClass::ScanningService
        );
    }

    #[test]
    fn malicious_by_behaviour_unknown_otherwise() {
        let rdns = ReverseDns::new();
        let ds = AttackDataset::merge(vec![vec![
            event("3.3.3.3", "Cowrie", 1, EventKind::Connection),
            event(
                "3.3.3.3",
                "Cowrie",
                2,
                EventKind::LoginAttempt {
                    username: "admin".into(),
                    password: "admin".into(),
                    success: false,
                },
            ),
            event("4.4.4.4", "Cowrie", 3, EventKind::Connection),
        ]]);
        assert_eq!(
            ds.classify_source(&rdns, "Cowrie", "3.3.3.3".parse().unwrap()),
            SourceClass::Malicious
        );
        assert_eq!(
            ds.classify_source(&rdns, "Cowrie", "4.4.4.4".parse().unwrap()),
            SourceClass::Unknown
        );
    }

    #[test]
    fn flood_detected_by_rate() {
        let mut events = Vec::new();
        for i in 0..40u64 {
            events.push(event(
                "5.5.5.5",
                "U-Pot",
                1_000 + i * 100, // all within one minute
                EventKind::Datagram { len: 64 },
            ));
        }
        let ds = AttackDataset::merge(vec![events]);
        assert_eq!(ds.dos_source_count(), 1);
        assert_eq!(ds.attack_type(&ds.events[0]), AttackType::Dos);
        // Slow drip from another source is scanning, not DoS.
        let slow: Vec<AttackEvent> = (0..10u64)
            .map(|i| event("6.6.6.6", "U-Pot", i * 120_000, EventKind::Datagram { len: 64 }))
            .collect();
        let ds2 = AttackDataset::merge(vec![slow]);
        assert_eq!(ds2.attack_type(&ds2.events[0]), AttackType::Scanning);
    }

    #[test]
    fn attack_typing() {
        let ds = AttackDataset::merge(vec![]);
        let cases: Vec<(EventKind, AttackType)> = vec![
            (
                EventKind::LoginAttempt {
                    username: "a".into(),
                    password: "b".into(),
                    success: false,
                },
                AttackType::BruteForce,
            ),
            (
                EventKind::PayloadDrop { payload: vec![1], url: None },
                AttackType::MalwareDeployment,
            ),
            (
                EventKind::Command { line: "wget http://x/m".into() },
                AttackType::MalwareDeployment,
            ),
            (EventKind::DataWrite { target: "t".into() }, AttackType::DataPoisoning),
            (
                EventKind::ExploitSignature { name: "x".into() },
                AttackType::Exploit,
            ),
            (EventKind::HttpRequest { path: "/".into() }, AttackType::Scraping),
            (EventKind::Discovery, AttackType::Scanning),
        ];
        for (kind, expect) in cases {
            let e = event("8.8.8.8", "HosTaGe", 0, kind);
            assert_eq!(ds.attack_type(&e), expect);
        }
    }
}
