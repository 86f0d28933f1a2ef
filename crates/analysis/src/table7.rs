//! Table 7 — attack events by honeypot and protocol, with per-honeypot
//! unique-source classification.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ofh_honeypots::HoneypotKind;
use ofh_intel::ReverseDns;
use ofh_wire::Protocol;
use serde::Serialize;

use crate::events::{AttackDataset, SourceClass};
use crate::render::{thousands, Table};

/// Per-(honeypot, protocol) event counts.
#[derive(Debug, Clone, Serialize)]
pub struct Table7Row {
    pub honeypot: &'static str,
    pub protocol: Protocol,
    pub events: u64,
}

/// Per-honeypot unique source splits (the starred columns).
#[derive(Debug, Clone, Serialize)]
pub struct Table7Sources {
    pub honeypot: &'static str,
    pub scanning: usize,
    pub malicious: usize,
    pub unknown: usize,
}

/// The computed Table 7.
#[derive(Debug, Clone, Serialize)]
pub struct Table7 {
    pub rows: Vec<Table7Row>,
    pub sources: Vec<Table7Sources>,
    pub total_events: u64,
}

impl Table7 {
    pub fn compute(dataset: &AttackDataset, rdns: &ReverseDns) -> Table7 {
        Table7::from_rows(
            dataset.events.iter().map(|e| (e.honeypot, e.protocol)),
            dataset.classify_sources(rdns),
        )
    }

    /// Build Table 7 from one `(honeypot, protocol)` key per event and the
    /// class of each `(honeypot, source)` pair. A pair may arrive more than
    /// once (once per event, say); it counts once, under its first class.
    pub fn from_rows(
        events: impl IntoIterator<Item = (&'static str, Protocol)>,
        sources: impl IntoIterator<Item = ((&'static str, Ipv4Addr), SourceClass)>,
    ) -> Table7 {
        let mut counts: BTreeMap<(&'static str, Protocol), u64> = BTreeMap::new();
        for key in events {
            *counts.entry(key).or_insert(0) += 1;
        }
        let rows: Vec<Table7Row> = HoneypotKind::ALL
            .iter()
            .flat_map(|hp| {
                let name = hp.name();
                counts
                    .iter()
                    .filter(move |((h, _), _)| *h == name)
                    .map(|(&(h, p), &n)| Table7Row {
                        honeypot: h,
                        protocol: p,
                        events: n,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut classes: BTreeMap<(&'static str, Ipv4Addr), SourceClass> = BTreeMap::new();
        for (pair, class) in sources {
            classes.entry(pair).or_insert(class);
        }
        let mut sources: Vec<Table7Sources> = HoneypotKind::ALL
            .iter()
            .map(|hp| Table7Sources {
                honeypot: hp.name(),
                scanning: 0,
                malicious: 0,
                unknown: 0,
            })
            .collect();
        for ((honeypot, _), class) in classes {
            let Some(out) = sources.iter_mut().find(|s| s.honeypot == honeypot) else {
                continue;
            };
            match class {
                SourceClass::ScanningService => out.scanning += 1,
                SourceClass::Malicious => out.malicious += 1,
                SourceClass::Unknown => out.unknown += 1,
            }
        }
        let total_events = rows.iter().map(|r| r.events).sum();
        Table7 {
            rows,
            sources,
            total_events,
        }
    }

    pub fn events_of(&self, honeypot: &str, protocol: Protocol) -> u64 {
        self.rows
            .iter()
            .find(|r| r.honeypot == honeypot && r.protocol == protocol)
            .map(|r| r.events)
            .unwrap_or(0)
    }

    pub fn sources_of(&self, honeypot: &str) -> &Table7Sources {
        self.sources
            .iter()
            .find(|s| s.honeypot == honeypot)
            .expect("all honeypots present")
    }

    /// Paper volume for a row, when Table 7 has one.
    pub fn paper_events(honeypot: &str, protocol: Protocol) -> Option<u64> {
        ofh_attack::plan::TABLE7_VOLUMES
            .iter()
            .find(|&&(h, p, _)| h == honeypot && p == protocol)
            .map(|&(_, _, v)| v)
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 7: Total attack events by type and protocol on honeypots",
            &["Honeypot", "Protocol", "#Attack events", "Paper"],
        );
        for r in &self.rows {
            t.row(&[
                r.honeypot.into(),
                r.protocol.name().into(),
                thousands(r.events),
                Self::paper_events(r.honeypot, r.protocol)
                    .map(thousands)
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        t.row(&[
            "Total".into(),
            "".into(),
            thousands(self.total_events),
            thousands(200_209),
        ]);
        let mut s = t.render();
        let mut t2 = Table::new(
            "Table 7 (cont.): unique source IPs per honeypot",
            &["Honeypot", "Scanning service*", "Malicious*", "Unknown/Suspicious*"],
        );
        for src in &self.sources {
            t2.row(&[
                src.honeypot.into(),
                thousands(src.scanning as u64),
                thousands(src.malicious as u64),
                thousands(src.unknown as u64),
            ]);
        }
        s.push_str(&t2.render());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::register_service_rdns;
    use ofh_honeypots::{AttackEvent, EventKind};
    use ofh_net::SimTime;

    fn ev(src: u32, honeypot: &'static str, proto: Protocol, kind: EventKind) -> AttackEvent {
        AttackEvent {
            time: SimTime(src as u64),
            honeypot,
            protocol: proto,
            src: Ipv4Addr::from(src),
            src_port: 1,
            kind,
        }
    }

    #[test]
    fn counts_rows_and_sources() {
        let mut rdns = ReverseDns::new();
        register_service_rdns(&mut rdns, Ipv4Addr::from(100u32), "Shodan");
        let ds = AttackDataset::merge(vec![vec![
            ev(100, "Cowrie", Protocol::Telnet, EventKind::Connection),
            ev(200, "Cowrie", Protocol::Telnet, EventKind::Connection),
            ev(
                200,
                "Cowrie",
                Protocol::Telnet,
                EventKind::LoginAttempt {
                    username: "a".into(),
                    password: "b".into(),
                    success: false,
                },
            ),
            ev(300, "Cowrie", Protocol::Ssh, EventKind::Connection),
            ev(400, "U-Pot", Protocol::Upnp, EventKind::Discovery),
        ]]);
        let t7 = Table7::compute(&ds, &rdns);
        assert_eq!(t7.events_of("Cowrie", Protocol::Telnet), 3);
        assert_eq!(t7.events_of("Cowrie", Protocol::Ssh), 1);
        assert_eq!(t7.events_of("U-Pot", Protocol::Upnp), 1);
        assert_eq!(t7.total_events, 5);
        let cowrie = t7.sources_of("Cowrie");
        assert_eq!(cowrie.scanning, 1); // .100 via rDNS
        assert_eq!(cowrie.malicious, 1); // .200 brute-forced
        assert_eq!(cowrie.unknown, 1); // .300 one-off
    }

    #[test]
    fn paper_rows_resolve() {
        assert_eq!(Table7::paper_events("HosTaGe", Protocol::Telnet), Some(19_733));
        assert_eq!(Table7::paper_events("U-Pot", Protocol::Upnp), Some(17_101));
        assert_eq!(Table7::paper_events("U-Pot", Protocol::Telnet), None);
    }
}
