//! Scan-result datasets.
//!
//! A [`HostRecord`] is what one responsive (address, port) pair produced;
//! a [`ScanResults`] is the per-source dataset (our ZMap scan, the Sonar
//! index, the Shodan index) with the counting and correlation operations
//! §3.1.3 and §4.1 perform on them.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ofh_devices::Misconfig;
use ofh_wire::Protocol;
use serde::{Deserialize, Serialize};

use crate::classify::classify_response;
use crate::ztag;

/// One responsive host as recorded by a scan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostRecord {
    pub addr: Ipv4Addr,
    pub port: u16,
    pub protocol: Protocol,
    /// Normalized banner/response text (what goes into "the database").
    pub response: String,
    /// Raw response bytes as received. Honeypot fingerprinting matches
    /// signatures against these — several Table 6 signatures are IAC byte
    /// sequences that normalization strips.
    #[serde(default)]
    pub raw: Vec<u8>,
}

impl HostRecord {
    /// Apply the Table 2/3 classifier.
    pub fn misconfig(&self) -> Option<Misconfig> {
        classify_response(self.protocol, &self.response)
    }

    /// Apply the ZTag device tagger.
    pub fn device(&self) -> Option<&'static ofh_devices::DeviceProfile> {
        ztag::tag_device(self.protocol, &self.response)
    }
}

/// A scan-result dataset from one source.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScanResults {
    /// Source label ("ZMap Scan", "Project Sonar", "Shodan").
    pub source: String,
    /// Records keyed by (address, port) for deterministic iteration.
    pub records: BTreeMap<(Ipv4Addr, u16), HostRecord>,
}

impl ScanResults {
    pub fn new(source: impl Into<String>) -> Self {
        ScanResults {
            source: source.into(),
            records: BTreeMap::new(),
        }
    }

    pub fn insert(&mut self, record: HostRecord) {
        self.records.insert((record.addr, record.port), record);
    }

    /// Fold another dataset of the same source into this one (the sharded
    /// engine unions per-shard sweeps; their key sets are disjoint because
    /// each shard probes only the addresses it owns).
    pub fn absorb(&mut self, other: ScanResults) {
        self.records.extend(other.records);
    }

    /// Union per-shard datasets of one source in a single bulk build: equal
    /// to absorbing `parts` one after another, in any order, because their
    /// key sets are disjoint. Each part iterates as one sorted run, so
    /// `BTreeMap::from_iter` merges the runs and builds the tree bottom-up
    /// instead of inserting record by record.
    pub fn merge_all(source: impl Into<String>, parts: Vec<ScanResults>) -> ScanResults {
        ScanResults {
            source: source.into(),
            records: parts.into_iter().flat_map(|p| p.records).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Unique responsive hosts for a protocol (Table 4 cells: a host
    /// counts once even if seen on two ports, e.g. Telnet 23+2323).
    pub fn exposed_hosts(&self, protocol: Protocol) -> usize {
        self.exposed_counts().get(&protocol).copied().unwrap_or(0)
    }

    /// Unique responsive hosts of every protocol, in one pass.
    pub fn exposed_counts(&self) -> BTreeMap<Protocol, usize> {
        count_distinct_addrs(self.records.values().map(|r| (r.protocol, r.addr)))
    }

    /// The set of unique addresses responsive on a protocol.
    pub fn unique_addrs(&self, protocol: Protocol) -> BTreeSet<Ipv4Addr> {
        self.records
            .values()
            .filter(|r| r.protocol == protocol)
            .map(|r| r.addr)
            .collect()
    }

    /// Classify every record whose address is not in `exclude` (the §4.2
    /// honeypot sanitization step), once, and collect the misconfigured
    /// addresses per class and across classes.
    pub fn misconfig_census(&self, exclude: &BTreeSet<Ipv4Addr>) -> MisconfigCensus {
        let mut census = MisconfigCensus::default();
        for r in self.records.values() {
            let filtered = exclude.contains(&r.addr);
            census.add(r.addr, filtered, if filtered { None } else { r.misconfig() });
        }
        census
    }

    /// Export as JSON lines (the paper stores scan output in a database;
    /// we persist the same rows as JSONL).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records.values() {
            out.push_str(&serde_json::to_string(r).expect("record serializes"));
            out.push('\n');
        }
        out
    }

    /// Import from JSON lines.
    pub fn from_jsonl(source: &str, data: &str) -> Result<Self, serde_json::Error> {
        let mut results = ScanResults::new(source);
        for line in data.lines() {
            if line.trim().is_empty() {
                continue;
            }
            results.insert(serde_json::from_str(line)?);
        }
        Ok(results)
    }
}

/// Misconfigured addresses of one dataset, from one classification pass
/// ([`ScanResults::misconfig_census`], or any other record stream fed
/// through [`MisconfigCensus::add`]).
#[derive(Debug, Default)]
pub struct MisconfigCensus {
    /// Distinct addresses per class, ascending.
    by_class: BTreeMap<Misconfig, Vec<Ipv4Addr>>,
    /// Distinct addresses in any class, ascending (Table 5's total).
    pub all: Vec<Ipv4Addr>,
    /// Records skipped because their address was excluded.
    pub excluded: usize,
}

impl MisconfigCensus {
    /// Fold one record in: a `filtered` record (the §4.2 honeypot filter)
    /// is only counted as excluded; any other record with a `class` lists
    /// its address under that class and in [`Self::all`]. Records must
    /// arrive in ascending address order: a host is then already listed
    /// exactly when it is the last address pushed.
    pub fn add(&mut self, addr: Ipv4Addr, filtered: bool, class: Option<Misconfig>) {
        if filtered {
            self.excluded += 1;
            return;
        }
        let Some(class) = class else { return };
        for addrs in [self.by_class.entry(class).or_default(), &mut self.all] {
            if addrs.last() != Some(&addr) {
                addrs.push(addr);
            }
        }
    }

    /// The addresses classified into `class`, ascending.
    pub fn addrs(&self, class: Misconfig) -> &[Ipv4Addr] {
        self.by_class.get(&class).map_or(&[], Vec::as_slice)
    }
}

/// Count distinct addresses per key over `(key, addr)` pairs visited in
/// ascending address order, the order [`ScanResults::records`] iterates.
/// A key's sightings of one host are then adjacent within that key's
/// pairs, so comparing against the last address counted replaces a set.
pub fn count_distinct_addrs<K: Ord>(
    pairs: impl IntoIterator<Item = (K, Ipv4Addr)>,
) -> BTreeMap<K, usize> {
    let mut last: BTreeMap<K, (Option<Ipv4Addr>, usize)> = BTreeMap::new();
    for (key, addr) in pairs {
        let (seen, n) = last.entry(key).or_default();
        if *seen != Some(addr) {
            *seen = Some(addr);
            *n += 1;
        }
    }
    last.into_iter().map(|(key, (_, n))| (key, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(addr: &str, port: u16, proto: Protocol, response: &str) -> HostRecord {
        HostRecord {
            addr: addr.parse().unwrap(),
            port,
            protocol: proto,
            response: response.into(),
            raw: response.as_bytes().to_vec(),
        }
    }

    #[test]
    fn exposed_counts_unique_hosts_across_ports() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record("10.0.0.1", 23, Protocol::Telnet, "login:"));
        rs.insert(record("10.0.0.1", 2323, Protocol::Telnet, "login:"));
        rs.insert(record("10.0.0.2", 23, Protocol::Telnet, "$ "));
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.exposed_hosts(Protocol::Telnet), 2);
    }

    #[test]
    fn misconfig_sets() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record("10.0.0.1", 23, Protocol::Telnet, "root@x:~$ "));
        rs.insert(record("10.0.0.2", 23, Protocol::Telnet, "login:"));
        rs.insert(record("10.0.0.3", 1883, Protocol::Mqtt, "MQTT Connection Code:0"));
        let census = rs.misconfig_census(&BTreeSet::new());
        assert_eq!(census.addrs(Misconfig::TelnetNoAuthRoot).len(), 1);
        assert_eq!(census.all.len(), 2);
        assert_eq!(census.excluded, 0);
    }

    #[test]
    fn census_counts_a_host_once_across_ports() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record("10.0.0.1", 23, Protocol::Telnet, "$ "));
        rs.insert(record("10.0.0.1", 2323, Protocol::Telnet, "$ "));
        rs.insert(record("10.0.0.2", 23, Protocol::Telnet, "root@x:~$ "));
        rs.insert(record("10.0.0.2", 2323, Protocol::Telnet, "$ "));
        let census = rs.misconfig_census(&BTreeSet::new());
        let a1: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let a2: Ipv4Addr = "10.0.0.2".parse().unwrap();
        assert_eq!(census.addrs(Misconfig::TelnetNoAuth), &[a1, a2]);
        assert_eq!(census.addrs(Misconfig::TelnetNoAuthRoot), &[a2]);
        assert_eq!(census.all, vec![a1, a2]);
        assert!(census.addrs(Misconfig::MqttNoAuth).is_empty());
    }

    #[test]
    fn honeypot_filter_excludes_records() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record("10.0.0.1", 23, Protocol::Telnet, "[root@LocalHost tmp]$\r\n$ "));
        rs.insert(record("10.0.0.2", 23, Protocol::Telnet, "$ "));
        let mut filter = BTreeSet::new();
        filter.insert("10.0.0.1".parse().unwrap());
        let census = rs.misconfig_census(&filter);
        assert_eq!(census.excluded, 1);
        assert_eq!(census.all.len(), 1);
        assert_eq!(rs.len(), 2, "the census never mutates the dataset");
    }

    #[test]
    fn exposed_counts_cover_every_protocol() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record("10.0.0.1", 23, Protocol::Telnet, "login:"));
        rs.insert(record("10.0.0.1", 1883, Protocol::Mqtt, "x"));
        rs.insert(record("10.0.0.1", 2323, Protocol::Telnet, "login:"));
        rs.insert(record("10.0.0.2", 1883, Protocol::Mqtt, "x"));
        let counts = rs.exposed_counts();
        assert_eq!(counts[&Protocol::Telnet], 1);
        assert_eq!(counts[&Protocol::Mqtt], 2);
        assert_eq!(counts.get(&Protocol::Coap), None);
        assert_eq!(rs.exposed_hosts(Protocol::Coap), 0);
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut rs = ScanResults::new("Shodan");
        rs.insert(record("10.0.0.9", 5683, Protocol::Coap, "CoAP 2.05\n/x\n"));
        let jsonl = rs.to_jsonl();
        let back = ScanResults::from_jsonl("Shodan", &jsonl).unwrap();
        assert_eq!(back.records, rs.records);
    }
}
