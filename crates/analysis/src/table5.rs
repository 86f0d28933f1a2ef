//! Table 5 — misconfigured devices per protocol/vulnerability, after the
//! honeypot-sanitization filter.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ofh_devices::Misconfig;
use ofh_scan::{MisconfigCensus, ScanResults};
use serde::Serialize;

use crate::render::{thousands, Table};

/// One Table 5 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table5Row {
    pub class: Misconfig,
    pub devices: u64,
}

/// The computed Table 5.
#[derive(Debug, Clone, Serialize)]
pub struct Table5 {
    pub rows: Vec<Table5Row>,
    pub total: u64,
    /// How many records the honeypot filter removed before counting.
    pub honeypots_filtered: usize,
}

impl Table5 {
    /// Classify `results`, skipping `honeypot_filter` addresses (the §4.2
    /// sanitization step).
    pub fn compute(results: &ScanResults, honeypot_filter: &BTreeSet<Ipv4Addr>) -> Table5 {
        Table5::from_census(&results.misconfig_census(honeypot_filter))
    }

    /// Build Table 5 from a classified dataset: per-class and total
    /// distinct addresses, plus the records the honeypot filter excluded.
    pub fn from_census(census: &MisconfigCensus) -> Table5 {
        let mut rows: Vec<Table5Row> = Misconfig::ALL
            .iter()
            .map(|&class| Table5Row {
                class,
                devices: census.addrs(class).len() as u64,
            })
            .collect();
        // Table 5 is ordered ascending by count.
        rows.sort_by_key(|r| r.devices);
        Table5 {
            rows,
            total: census.all.len() as u64,
            honeypots_filtered: census.excluded,
        }
    }

    pub fn row(&self, class: Misconfig) -> &Table5Row {
        self.rows.iter().find(|r| r.class == class).expect("all classes present")
    }

    /// The misconfigured address set (input to the §5.3 join).
    pub fn misconfigured_addrs(
        results: &ScanResults,
        honeypot_filter: &BTreeSet<Ipv4Addr>,
    ) -> BTreeSet<Ipv4Addr> {
        results
            .misconfig_census(honeypot_filter)
            .all
            .into_iter()
            .collect()
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 5: Total misconfigured devices per protocol",
            &["Protocol", "Vulnerability", "#Devices found", "Paper"],
        );
        for r in &self.rows {
            t.row(&[
                r.class.protocol().name().into(),
                r.class.vulnerability().into(),
                thousands(r.devices),
                thousands(r.class.paper_count()),
            ]);
        }
        t.row(&[
            "".into(),
            "Total".into(),
            thousands(self.total),
            thousands(ofh_devices::misconfig::PAPER_TOTAL),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_scan::HostRecord;
    use ofh_wire::Protocol;

    fn record(addr: u32, proto: Protocol, response: &str) -> HostRecord {
        HostRecord {
            addr: Ipv4Addr::from(addr),
            port: proto.port(),
            protocol: proto,
            response: response.into(),
            raw: response.as_bytes().to_vec(),
        }
    }

    #[test]
    fn counts_and_filters() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record(1, Protocol::Telnet, "root@x:~$ "));
        rs.insert(record(2, Protocol::Telnet, "$ "));
        rs.insert(record(3, Protocol::Telnet, "login:"));
        rs.insert(record(4, Protocol::Mqtt, "MQTT Connection Code:0"));
        // A honeypot that would otherwise count as TelnetNoAuth.
        rs.insert(record(5, Protocol::Telnet, "[root@LocalHost tmp]$\r\n$ "));

        let mut filter = BTreeSet::new();
        filter.insert(Ipv4Addr::from(5u32));

        let t5 = Table5::compute(&rs, &filter);
        assert_eq!(t5.honeypots_filtered, 1);
        assert_eq!(t5.row(Misconfig::TelnetNoAuthRoot).devices, 1);
        assert_eq!(t5.row(Misconfig::TelnetNoAuth).devices, 1);
        assert_eq!(t5.row(Misconfig::MqttNoAuth).devices, 1);
        assert_eq!(t5.total, 3);

        // Without the filter, the honeypot poisons the count — the paper's
        // sanitization argument.
        let unfiltered = Table5::compute(&rs, &BTreeSet::new());
        assert_eq!(unfiltered.total, 4);
    }

    #[test]
    fn misconfigured_addr_set() {
        let mut rs = ScanResults::new("ZMap Scan");
        rs.insert(record(1, Protocol::Telnet, "root@x:~$ "));
        rs.insert(record(2, Protocol::Telnet, "login:"));
        let set = Table5::misconfigured_addrs(&rs, &BTreeSet::new());
        assert_eq!(set.len(), 1);
        assert!(set.contains(&Ipv4Addr::from(1u32)));
    }
}
