//! Figure data series — Figs. 2, 3, 4, 5, 6, 7, 8, 9.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ofh_devices::DeviceType;
use ofh_intel::{GreyNoiseDb, GreyNoiseLabel, ReverseDns, VirusTotalDb};
use ofh_scan::{count_distinct_addrs, ztag, ScanResults};
use ofh_telescope::Telescope;
use ofh_wire::Protocol;
use serde::Serialize;

use crate::events::{AttackDataset, AttackType};
use crate::render::{percent, Table};

// ---------------------------------------------------------------- Fig. 2

/// Fig. 2 — top IoT device types by protocol (%).
#[derive(Debug, Clone, Serialize)]
pub struct Fig2 {
    /// (protocol, device type, hosts identified).
    pub cells: Vec<(Protocol, DeviceType, u64)>,
    /// Hosts per protocol that could not be typed.
    pub unidentified: BTreeMap<Protocol, u64>,
}

impl Fig2 {
    pub fn compute(zmap: &ScanResults) -> Fig2 {
        let mut unidentified: BTreeMap<Protocol, u64> = BTreeMap::new();
        let tagged = zmap.records.values().filter_map(|r| {
            match ztag::tag_device_type(r.protocol, &r.response) {
                Some(ty) => Some(((r.protocol, ty), r.addr)),
                None => {
                    *unidentified.entry(r.protocol).or_insert(0) += 1;
                    None
                }
            }
        });
        let cells = count_distinct_addrs(tagged)
            .into_iter()
            .map(|((p, t), n)| (p, t, n as u64))
            .collect();
        Fig2 {
            cells,
            unidentified,
        }
    }

    pub fn identified_on(&self, protocol: Protocol) -> u64 {
        self.cells
            .iter()
            .filter(|(p, _, _)| *p == protocol)
            .map(|(_, _, n)| n)
            .sum()
    }

    pub fn count(&self, protocol: Protocol, ty: DeviceType) -> u64 {
        self.cells
            .iter()
            .find(|(p, t, _)| *p == protocol && *t == ty)
            .map(|&(_, _, n)| n)
            .unwrap_or(0)
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig. 2: Top IoT device types by protocol (%)",
            &["Protocol", "Device type", "Hosts", "Share of identified"],
        );
        for &(p, ty, n) in &self.cells {
            t.row(&[
                p.name().into(),
                ty.name().into(),
                n.to_string(),
                percent(n, self.identified_on(p)),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------- Fig. 3

/// Fig. 3 — scanning-service traffic on honeypots (%).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3 {
    /// (honeypot, service, events from that service).
    pub cells: Vec<(String, String, u64)>,
}

impl Fig3 {
    /// Attribute scanning-service events by reverse lookup. The rDNS
    /// convention is `probe-N.<service>.scanner.example`.
    pub fn compute(dataset: &AttackDataset, rdns: &ReverseDns) -> Fig3 {
        let mut cells: BTreeMap<(String, String), u64> = BTreeMap::new();
        for e in &dataset.events {
            if let Some(domain) = rdns.domain_of(e.src) {
                if let Some(service) = service_of_domain(domain) {
                    *cells
                        .entry((e.honeypot.to_string(), service.to_string()))
                        .or_insert(0) += 1;
                }
            }
        }
        Fig3 {
            cells: cells.into_iter().map(|((h, s), n)| (h, s, n)).collect(),
        }
    }

    pub fn total_for(&self, honeypot: &str) -> u64 {
        self.cells
            .iter()
            .filter(|(h, _, _)| h == honeypot)
            .map(|(_, _, n)| n)
            .sum()
    }

    /// Services ranked by total events across honeypots.
    pub fn ranked_services(&self) -> Vec<(String, u64)> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for (_, s, n) in &self.cells {
            *totals.entry(s.clone()).or_insert(0) += n;
        }
        let mut v: Vec<(String, u64)> = totals.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig. 3: Scanning-service traffic on honeypots",
            &["Service", "Events", "Share"],
        );
        let total: u64 = self.cells.iter().map(|(_, _, n)| n).sum();
        for (s, n) in self.ranked_services() {
            t.row(&[s, n.to_string(), percent(n, total)]);
        }
        t.render()
    }
}

/// Map an rDNS domain to its scanning-service name (the `slug` the
/// registration convention embeds).
fn service_of_domain(domain: &str) -> Option<&str> {
    let rest = domain.strip_suffix(".scanner.example")?;
    rest.split('.').next_back()
}

// ---------------------------------------------------------- Figs. 4 and 7

/// Fig. 4 (attack types per honeypot) and Fig. 7 (attack trends by type and
/// protocol) share the same classification.
#[derive(Debug, Clone, Serialize)]
pub struct AttackTypeBreakdown {
    /// (honeypot, protocol, attack type, events).
    pub cells: Vec<(String, Protocol, AttackType, u64)>,
}

impl AttackTypeBreakdown {
    pub fn compute(dataset: &AttackDataset) -> AttackTypeBreakdown {
        let mut cells: BTreeMap<(String, Protocol, AttackType), u64> = BTreeMap::new();
        for e in &dataset.events {
            let ty = dataset.attack_type(e);
            *cells
                .entry((e.honeypot.to_string(), e.protocol, ty))
                .or_insert(0) += 1;
        }
        AttackTypeBreakdown {
            cells: cells.into_iter().map(|((h, p, t), n)| (h, p, t, n)).collect(),
        }
    }

    /// Fig. 4 series: per honeypot, events per attack type.
    pub fn per_honeypot(&self, honeypot: &str) -> BTreeMap<AttackType, u64> {
        let mut out = BTreeMap::new();
        for (h, _, t, n) in &self.cells {
            if h == honeypot {
                *out.entry(*t).or_insert(0) += n;
            }
        }
        out
    }

    /// Fig. 7 series: per protocol, events per attack type.
    pub fn per_protocol(&self, protocol: Protocol) -> BTreeMap<AttackType, u64> {
        let mut out = BTreeMap::new();
        for (_, p, t, n) in &self.cells {
            if *p == protocol {
                *out.entry(*t).or_insert(0) += n;
            }
        }
        out
    }

    /// Share of one attack type on one protocol (Fig. 7 cell).
    pub fn share(&self, protocol: Protocol, ty: AttackType) -> f64 {
        let per = self.per_protocol(protocol);
        let total: u64 = per.values().sum();
        if total == 0 {
            0.0
        } else {
            *per.get(&ty).unwrap_or(&0) as f64 / total as f64
        }
    }

    pub fn render_fig4(&self) -> String {
        let mut t = Table::new(
            "Fig. 4: Attack types in different honeypots (%)",
            &["Honeypot", "Attack type", "Events"],
        );
        let honeypots: BTreeSet<String> = self.cells.iter().map(|(h, _, _, _)| h.clone()).collect();
        for h in honeypots {
            for (ty, n) in self.per_honeypot(&h) {
                t.row(&[h.clone(), ty.name().into(), n.to_string()]);
            }
        }
        t.render()
    }

    pub fn render_fig7(&self) -> String {
        let mut t = Table::new(
            "Fig. 7: Attack trends by type (%) and protocol",
            &["Protocol", "Attack type", "Events", "Share"],
        );
        let protocols: BTreeSet<Protocol> = self.cells.iter().map(|(_, p, _, _)| *p).collect();
        for p in protocols {
            let per = self.per_protocol(p);
            let total: u64 = per.values().sum();
            for (ty, n) in per {
                t.row(&[
                    p.name().into(),
                    ty.name().into(),
                    n.to_string(),
                    percent(n, total),
                ]);
            }
        }
        t.render()
    }
}

// ---------------------------------------------------------------- Fig. 5

/// Fig. 5 — our scanning-service classification vs GreyNoise.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5 {
    /// (protocol, ours, greynoise-benign, unknown-to-greynoise).
    pub rows: Vec<(Protocol, u64, u64, u64)>,
    /// IPs we classify as scanning services that GreyNoise has no data on.
    pub missed_by_greynoise: u64,
}

impl Fig5 {
    pub fn compute(
        dataset: &AttackDataset,
        rdns: &ReverseDns,
        greynoise: &GreyNoiseDb,
    ) -> Fig5 {
        let mut per_proto: BTreeMap<Protocol, (BTreeSet<Ipv4Addr>, BTreeSet<Ipv4Addr>)> =
            BTreeMap::new();
        let mut missed: BTreeSet<Ipv4Addr> = BTreeSet::new();
        for e in &dataset.events {
            let ours = AttackDataset::is_scanning_service(rdns, e.src);
            if !ours {
                continue;
            }
            let entry = per_proto.entry(e.protocol).or_default();
            entry.0.insert(e.src);
            match greynoise.lookup(e.src) {
                Some(GreyNoiseLabel::Benign) => {
                    entry.1.insert(e.src);
                }
                _ => {
                    missed.insert(e.src);
                }
            }
        }
        Fig5 {
            rows: per_proto
                .into_iter()
                .map(|(p, (ours, gn))| {
                    let missing = ours.len() - gn.len();
                    (p, ours.len() as u64, gn.len() as u64, missing as u64)
                })
                .collect(),
            missed_by_greynoise: missed.len() as u64,
        }
    }

    pub fn row(&self, protocol: Protocol) -> Option<(u64, u64, u64)> {
        self.rows
            .iter()
            .find(|(p, _, _, _)| *p == protocol)
            .map(|&(_, a, b, c)| (a, b, c))
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig. 5: Classification of scanning-services (ours vs GreyNoise)",
            &["Protocol", "Ours", "GreyNoise", "Only ours"],
        );
        for &(p, ours, gn, gap) in &self.rows {
            t.row(&[
                p.name().into(),
                ours.to_string(),
                gn.to_string(),
                gap.to_string(),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------- Fig. 6

/// Fig. 6 — % of attack sources flagged malicious by VirusTotal, per
/// protocol, for honeypot (H) and telescope (T) datasets.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6 {
    /// (protocol, dataset tag "H"/"T", sources, flagged).
    pub rows: Vec<(Protocol, &'static str, u64, u64)>,
}

impl Fig6 {
    pub fn compute(
        dataset: &AttackDataset,
        telescope: &Telescope,
        rdns: &ReverseDns,
        vt: &VirusTotalDb,
    ) -> Fig6 {
        let mut rows = Vec::new();
        // Honeypot side.
        let mut per_proto: BTreeMap<Protocol, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for e in &dataset.events {
            if AttackDataset::is_scanning_service(rdns, e.src) {
                continue; // the figure concerns suspicious sources
            }
            per_proto.entry(e.protocol).or_default().insert(e.src);
        }
        for (p, srcs) in per_proto {
            let flagged = srcs.iter().filter(|s| vt.ip_is_malicious(**s)).count() as u64;
            rows.push((p, "H", srcs.len() as u64, flagged));
        }
        // Telescope side.
        let mut per_proto: BTreeMap<Protocol, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for rec in telescope.records() {
            let Some(p) = rec.target_protocol() else { continue };
            if !Protocol::SCANNED.contains(&p) {
                continue;
            }
            if AttackDataset::is_scanning_service(rdns, rec.src_ip) {
                continue;
            }
            per_proto.entry(p).or_default().insert(rec.src_ip);
        }
        for (p, srcs) in per_proto {
            let flagged = srcs.iter().filter(|s| vt.ip_is_malicious(**s)).count() as u64;
            rows.push((p, "T", srcs.len() as u64, flagged));
        }
        Fig6 { rows }
    }

    pub fn malicious_share(&self, protocol: Protocol, tag: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(p, t, _, _)| *p == protocol && *t == tag)
            .map(|&(_, _, n, f)| if n == 0 { 0.0 } else { f as f64 / n as f64 })
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig. 6: Malware classification by VirusTotal (%)",
            &["Protocol", "Dataset", "Sources", "Flagged", "Share"],
        );
        for &(p, tag, n, f) in &self.rows {
            t.row(&[
                p.name().into(),
                tag.into(),
                n.to_string(),
                f.to_string(),
                percent(f, n),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------- Fig. 8

/// Fig. 8 — total attacks by day, with listing markers.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8 {
    /// Events per day-of-month index.
    pub per_day: Vec<u64>,
    /// (service, day index) listing markers.
    pub listings: Vec<(String, u64)>,
}

impl Fig8 {
    pub fn compute(
        dataset: &AttackDataset,
        month_start: ofh_net::SimTime,
        month_days: u64,
        listings: &[(&'static str, ofh_net::SimTime)],
    ) -> Fig8 {
        let mut per_day = vec![0u64; month_days as usize];
        for e in &dataset.events {
            let day = e.time.since(month_start).as_secs() / 86_400;
            if (day as usize) < per_day.len() {
                per_day[day as usize] += 1;
            }
        }
        Fig8 {
            per_day,
            listings: listings
                .iter()
                .map(|(name, t)| (name.to_string(), t.since(month_start).as_secs() / 86_400))
                .collect(),
        }
    }

    /// Mean daily events before the first listing vs after the last one —
    /// the paper's "upward trend after being listed".
    pub fn pre_post_listing_means(&self) -> (f64, f64) {
        let first = self.listings.iter().map(|&(_, d)| d).min().unwrap_or(0) as usize;
        let last = self.listings.iter().map(|&(_, d)| d).max().unwrap_or(0) as usize;
        let pre: Vec<u64> = self.per_day[..first.max(1)].to_vec();
        let post: Vec<u64> = self.per_day[(last + 1).min(self.per_day.len())..].to_vec();
        let mean = |v: &[u64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<u64>() as f64 / v.len() as f64
            }
        };
        (mean(&pre), mean(&post))
    }

    /// The day with the most events (DoS spike detection).
    pub fn peak_day(&self) -> usize {
        self.per_day
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| **n)
            .map(|(d, _)| d)
            .unwrap_or(0)
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig. 8: Total attacks by day (April 2021)",
            &["Day", "Events", "Markers"],
        );
        let max = self.per_day.iter().copied().max().unwrap_or(1).max(1);
        for (d, &n) in self.per_day.iter().enumerate() {
            let mut marker: Vec<String> = self
                .listings
                .iter()
                .filter(|&&(_, ld)| ld == d as u64)
                .map(|(s, _)| format!("{s} listing"))
                .collect();
            let bar = "#".repeat((n * 40 / max) as usize);
            marker.insert(0, bar);
            t.row(&[
                format!("{:02}", d + 1),
                n.to_string(),
                marker.join(" "),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------- Fig. 9

/// Fig. 9 — multistage attacks: per-source protocol sequences.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// Number of multistage attackers detected.
    pub attackers: u64,
    /// (stage index, protocol, attacks at that stage).
    pub stages: Vec<(usize, Protocol, u64)>,
}

impl Fig9 {
    /// Group attacks by source, order each source's protocols by first
    /// contact, and keep sources that attacked ≥2 protocols and are not
    /// scanning services (§5.4's filter).
    pub fn compute(dataset: &AttackDataset, rdns: &ReverseDns) -> Fig9 {
        let mut first_contact: BTreeMap<Ipv4Addr, BTreeMap<Protocol, ofh_net::SimTime>> =
            BTreeMap::new();
        for e in &dataset.events {
            if AttackDataset::is_scanning_service(rdns, e.src) {
                continue;
            }
            let per = first_contact.entry(e.src).or_default();
            per.entry(e.protocol).or_insert(e.time);
        }
        let mut attackers = 0u64;
        let mut stages: BTreeMap<(usize, Protocol), u64> = BTreeMap::new();
        for (_, per) in first_contact {
            if per.len() < 2 {
                continue;
            }
            attackers += 1;
            let mut seq: Vec<(ofh_net::SimTime, Protocol)> =
                per.into_iter().map(|(p, t)| (t, p)).collect();
            seq.sort();
            for (i, (_, p)) in seq.into_iter().enumerate() {
                *stages.entry((i, p)).or_insert(0) += 1;
            }
        }
        Fig9 {
            attackers,
            stages: stages.into_iter().map(|((i, p), n)| (i, p, n)).collect(),
        }
    }

    /// The dominant protocol at a stage.
    pub fn dominant_at(&self, stage: usize) -> Option<Protocol> {
        self.stages
            .iter()
            .filter(|(i, _, _)| *i == stage)
            .max_by_key(|(_, _, n)| *n)
            .map(|&(_, p, _)| p)
    }

    pub fn count_at(&self, stage: usize, protocol: Protocol) -> u64 {
        self.stages
            .iter()
            .find(|(i, p, _)| *i == stage && *p == protocol)
            .map(|&(_, _, n)| n)
            .unwrap_or(0)
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!("Fig. 9: Multistage attacks ({} attackers)", self.attackers),
            &["Stage", "Protocol", "Attacks"],
        );
        for &(i, p, n) in &self.stages {
            t.row(&[format!("{}", i + 1), p.name().into(), n.to_string()]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::register_service_rdns;
    use ofh_honeypots::{AttackEvent, EventKind};
    use ofh_net::SimTime;

    fn ev(src: u32, honeypot: &'static str, proto: Protocol, t: u64, kind: EventKind) -> AttackEvent {
        AttackEvent {
            time: SimTime(t),
            honeypot,
            protocol: proto,
            src: Ipv4Addr::from(src),
            src_port: 1,
            kind,
        }
    }

    #[test]
    fn fig3_attribution_via_rdns() {
        let mut rdns = ReverseDns::new();
        register_service_rdns(&mut rdns, Ipv4Addr::from(1u32), "Shodan");
        register_service_rdns(&mut rdns, Ipv4Addr::from(2u32), "Censys");
        let ds = AttackDataset::merge(vec![vec![
            ev(1, "Cowrie", Protocol::Telnet, 1, EventKind::Connection),
            ev(1, "Cowrie", Protocol::Telnet, 2, EventKind::Connection),
            ev(2, "U-Pot", Protocol::Upnp, 3, EventKind::Discovery),
            ev(9, "Cowrie", Protocol::Telnet, 4, EventKind::Connection), // unknown
        ]]);
        let fig3 = Fig3::compute(&ds, &rdns);
        let ranked = fig3.ranked_services();
        assert_eq!(ranked[0], ("shodan".to_string(), 2));
        assert_eq!(fig3.total_for("U-Pot"), 1);
    }

    #[test]
    fn fig9_multistage_sequences() {
        let rdns = ReverseDns::new();
        let ds = AttackDataset::merge(vec![vec![
            // Source 7: Telnet then SMB then S7 (classic Fig. 9 chain).
            ev(7, "Cowrie", Protocol::Telnet, 100, EventKind::Connection),
            ev(7, "Dionaea", Protocol::Smb, 200, EventKind::Connection),
            ev(7, "Conpot", Protocol::S7, 300, EventKind::Connection),
            // Source 8: single protocol — not multistage.
            ev(8, "Cowrie", Protocol::Telnet, 100, EventKind::Connection),
            ev(8, "Cowrie", Protocol::Telnet, 500, EventKind::Connection),
        ]]);
        let fig9 = Fig9::compute(&ds, &rdns);
        assert_eq!(fig9.attackers, 1);
        assert_eq!(fig9.dominant_at(0), Some(Protocol::Telnet));
        assert_eq!(fig9.dominant_at(1), Some(Protocol::Smb));
        assert_eq!(fig9.dominant_at(2), Some(Protocol::S7));
        assert_eq!(fig9.count_at(0, Protocol::Telnet), 1);
    }

    #[test]
    fn fig8_day_series_and_trend() {
        let month = SimTime::ZERO;
        let mut events = Vec::new();
        for day in 0..10u64 {
            let n = if day < 5 { 2 } else { 6 };
            for i in 0..n {
                events.push(ev(
                    100 + i,
                    "Cowrie",
                    Protocol::Telnet,
                    day * 86_400_000 + 1_000,
                    EventKind::Connection,
                ));
            }
        }
        let ds = AttackDataset::merge(vec![events]);
        let fig8 = Fig8::compute(&ds, month, 10, &[("Shodan", SimTime(4 * 86_400_000))]);
        assert_eq!(fig8.per_day.len(), 10);
        assert_eq!(fig8.per_day[0], 2);
        assert_eq!(fig8.per_day[9], 6);
        let (pre, post) = fig8.pre_post_listing_means();
        assert!(post > pre);
        assert_eq!(fig8.listings[0].1, 4);
    }

    #[test]
    fn fig5_greynoise_gap() {
        let mut rdns = ReverseDns::new();
        register_service_rdns(&mut rdns, Ipv4Addr::from(1u32), "Shodan");
        register_service_rdns(&mut rdns, Ipv4Addr::from(2u32), "Bitsight");
        let mut gn = GreyNoiseDb::new();
        gn.insert(Ipv4Addr::from(1u32), GreyNoiseLabel::Benign);
        // Bitsight (europe-only) missing from GreyNoise.
        let ds = AttackDataset::merge(vec![vec![
            ev(1, "Cowrie", Protocol::Telnet, 1, EventKind::Connection),
            ev(2, "Cowrie", Protocol::Telnet, 2, EventKind::Connection),
        ]]);
        let fig5 = Fig5::compute(&ds, &rdns, &gn);
        let (ours, gn_count, only_ours) = fig5.row(Protocol::Telnet).unwrap();
        assert_eq!(ours, 2);
        assert_eq!(gn_count, 1);
        assert_eq!(only_ours, 1);
        assert_eq!(fig5.missed_by_greynoise, 1);
    }

    #[test]
    fn fig2_typing_from_scan() {
        use ofh_scan::HostRecord;
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(HostRecord {
            addr: Ipv4Addr::from(1u32),
            port: 23,
            protocol: Protocol::Telnet,
            response: "192.168.0.64 login:".into(),
            raw: vec![],
        });
        rs.insert(HostRecord {
            addr: Ipv4Addr::from(2u32),
            port: 23,
            protocol: Protocol::Telnet,
            response: "PK5001Z login:".into(),
            raw: vec![],
        });
        rs.insert(HostRecord {
            addr: Ipv4Addr::from(3u32),
            port: 23,
            protocol: Protocol::Telnet,
            response: "login:".into(),
            raw: vec![],
        });
        let fig2 = Fig2::compute(&rs);
        assert_eq!(fig2.count(Protocol::Telnet, DeviceType::Camera), 1);
        assert_eq!(fig2.count(Protocol::Telnet, DeviceType::DslModem), 1);
        assert_eq!(fig2.identified_on(Protocol::Telnet), 2);
        assert_eq!(fig2.unidentified.get(&Protocol::Telnet), Some(&1));
    }
}
