//! Table 4 — exposed systems on the Internet by protocol and source.

use std::collections::BTreeMap;

use ofh_scan::{count_distinct_addrs, ScanResults};
use ofh_wire::Protocol;
use serde::Serialize;

use crate::render::{thousands, Table};

/// The paper's Table 4 values for side-by-side comparison.
pub fn paper_value(protocol: Protocol, source: &str) -> Option<u64> {
    let v = match (protocol, source) {
        (Protocol::Amqp, "ZMap Scan") => 34_542,
        (Protocol::Xmpp, "ZMap Scan") => 423_867,
        (Protocol::Coap, "ZMap Scan") => 618_650,
        (Protocol::Upnp, "ZMap Scan") => 1_381_940,
        (Protocol::Mqtt, "ZMap Scan") => 4_842_465,
        (Protocol::Telnet, "ZMap Scan") => 7_096_465,
        (Protocol::Coap, "Project Sonar") => 438_098,
        (Protocol::Upnp, "Project Sonar") => 395_331,
        (Protocol::Mqtt, "Project Sonar") => 3_921_585,
        (Protocol::Telnet, "Project Sonar") => 6_004_956,
        (Protocol::Amqp, "Shodan") => 18_701,
        (Protocol::Xmpp, "Shodan") => 315_861,
        (Protocol::Coap, "Shodan") => 590_740,
        (Protocol::Upnp, "Shodan") => 433_571,
        (Protocol::Mqtt, "Shodan") => 162_216,
        (Protocol::Telnet, "Shodan") => 188_291,
        _ => return None,
    };
    Some(v)
}

/// One Table 4 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Row {
    pub protocol: Protocol,
    pub zmap: u64,
    /// `None` = "NA" (Sonar has no AMQP/XMPP datasets).
    pub sonar: Option<u64>,
    pub shodan: u64,
}

/// The computed Table 4.
#[derive(Debug, Clone, Serialize)]
pub struct Table4 {
    pub rows: Vec<Table4Row>,
}

/// Table 4's source columns, in order: the labels the three scan datasets
/// carry.
pub const SOURCES: [&str; 3] = ["ZMap Scan", "Project Sonar", "Shodan"];

impl Table4 {
    pub fn compute(zmap: &ScanResults, sonar: &ScanResults, shodan: &ScanResults) -> Table4 {
        // Each dataset iterates in address order, so every (column,
        // protocol) key sees its addresses ascending.
        let pairs = [zmap, sonar, shodan]
            .into_iter()
            .enumerate()
            .flat_map(|(column, rs)| {
                rs.records.values().map(move |r| ((column, r.protocol), r.addr))
            });
        Table4::from_counts(&count_distinct_addrs(pairs))
    }

    /// Build Table 4 from distinct exposed-host counts keyed by (index into
    /// [`SOURCES`], protocol), as [`count_distinct_addrs`] returns them.
    pub fn from_counts(exposed: &BTreeMap<(usize, Protocol), usize>) -> Table4 {
        let cell = |column: usize, p| exposed.get(&(column, p)).copied().unwrap_or(0) as u64;
        // Table 4 is ordered ascending by the ZMap column.
        let mut rows: Vec<Table4Row> = Protocol::SCANNED
            .iter()
            .map(|&p| Table4Row {
                protocol: p,
                zmap: cell(0, p),
                sonar: ofh_scan::datasets::sonar_coverage(p).map(|_| cell(1, p)),
                shodan: cell(2, p),
            })
            .collect();
        rows.sort_by_key(|r| r.zmap);
        Table4 { rows }
    }

    pub fn total_zmap(&self) -> u64 {
        self.rows.iter().map(|r| r.zmap).sum()
    }

    pub fn row(&self, protocol: Protocol) -> &Table4Row {
        self.rows
            .iter()
            .find(|r| r.protocol == protocol)
            .expect("all scanned protocols present")
    }

    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 4: #Exposed systems on the Internet by protocol and source",
            &["Protocol", SOURCES[0], SOURCES[1], SOURCES[2]],
        );
        for r in &self.rows {
            t.row(&[
                r.protocol.name().into(),
                thousands(r.zmap),
                r.sonar.map(thousands).unwrap_or_else(|| "NA".into()),
                thousands(r.shodan),
            ]);
        }
        t.row(&[
            "Total".into(),
            thousands(self.total_zmap()),
            thousands(self.rows.iter().filter_map(|r| r.sonar).sum()),
            thousands(self.rows.iter().map(|r| r.shodan).sum()),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_scan::HostRecord;

    fn results(source: &str, counts: &[(Protocol, usize)]) -> ScanResults {
        let mut rs = ScanResults::new(source);
        let mut next = 0x1000_0000u32;
        for &(proto, n) in counts {
            for _ in 0..n {
                rs.insert(HostRecord {
                    addr: std::net::Ipv4Addr::from(next),
                    port: proto.port(),
                    protocol: proto,
                    response: "x".into(),
                    raw: vec![],
                });
                next += 1;
            }
        }
        rs
    }

    #[test]
    fn computes_and_orders_rows() {
        let zmap = results(
            "ZMap Scan",
            &[(Protocol::Telnet, 70), (Protocol::Mqtt, 48), (Protocol::Amqp, 3)],
        );
        let sonar = results("Project Sonar", &[(Protocol::Telnet, 60)]);
        let shodan = results("Shodan", &[(Protocol::Telnet, 2)]);
        let t4 = Table4::compute(&zmap, &sonar, &shodan);
        assert_eq!(t4.rows.last().unwrap().protocol, Protocol::Telnet);
        assert_eq!(t4.row(Protocol::Telnet).zmap, 70);
        assert_eq!(t4.row(Protocol::Amqp).sonar, None);
        assert_eq!(t4.row(Protocol::Telnet).sonar, Some(60));
        let rendered = t4.render();
        assert!(rendered.contains("NA"));
        assert!(rendered.contains("Total"));
    }

    #[test]
    fn paper_values_present() {
        assert_eq!(paper_value(Protocol::Telnet, "ZMap Scan"), Some(7_096_465));
        assert_eq!(paper_value(Protocol::Amqp, "Project Sonar"), None);
    }
}
