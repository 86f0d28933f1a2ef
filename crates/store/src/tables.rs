//! Reconstruct study tables from the store.
//!
//! Each function re-derives one `ofh_analysis` table struct purely from
//! stored columns, following the original `compute` row ordering step for
//! step — `render()` on the result must be byte-identical to the report's.
//! This is the store's ground-truth contract, enforced by the round-trip
//! tests: if a column encoding lost information the tables need, these
//! renders would diverge.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ofh_analysis::table4::{Table4, Table4Row};
use ofh_analysis::table5::{Table5, Table5Row};
use ofh_analysis::table7::{Table7, Table7Row, Table7Sources};
use ofh_devices::Misconfig;
use ofh_honeypots::HoneypotKind;
use ofh_wire::Protocol;

use crate::build::{misconfig_label, NONE_LABEL};
use crate::bytes::{FormatError, Result};
use crate::query::StoreReader;

/// Decode a protocol dictionary label back to the enum.
pub fn protocol_from_label(label: &str) -> Result<Protocol> {
    Protocol::ALL
        .iter()
        .copied()
        .find(|p| p.name() == label)
        .ok_or_else(|| FormatError(format!("unknown protocol label {label:?}")))
}

/// Decode a misconfiguration dictionary label back to the enum.
pub fn misconfig_from_label(label: &str) -> Result<Misconfig> {
    Misconfig::ALL
        .iter()
        .copied()
        .find(|&m| misconfig_label(m) == label)
        .ok_or_else(|| FormatError(format!("unknown misconfig label {label:?}")))
}

/// Decode a honeypot dictionary label to its static name.
fn honeypot_from_label(label: &str) -> Result<&'static str> {
    HoneypotKind::ALL
        .iter()
        .map(|hp| hp.name())
        .find(|&n| n == label)
        .ok_or_else(|| FormatError(format!("unknown honeypot label {label:?}")))
}

/// Table 4 — unique exposed hosts per (source, protocol).
pub fn table4(store: &StoreReader) -> Result<Table4> {
    let file = store.bytes();
    let t = store.table("scan")?;
    let source = t.dict("source")?;
    let protocol = t.dict("protocol")?;
    let addrs = t.u32("addr")?;

    // Unique addresses per (source code, protocol).
    let mut uniq: BTreeMap<(u8, Protocol), BTreeSet<u32>> = BTreeMap::new();
    let proto_of: Vec<Protocol> = protocol
        .labels
        .iter()
        .map(|l| protocol_from_label(l))
        .collect::<Result<_>>()?;
    for row in 0..t.rows {
        let key = (source.code(file, row), proto_of[protocol.code(file, row) as usize]);
        uniq.entry(key).or_default().insert(addrs.get(file, row));
    }
    let count = |src: &str, p: Protocol| -> u64 {
        source
            .code_of(src)
            .and_then(|c| uniq.get(&(c, p)))
            .map(|s| s.len() as u64)
            .unwrap_or(0)
    };

    let mut rows: Vec<Table4Row> = Protocol::SCANNED
        .iter()
        .map(|&p| Table4Row {
            protocol: p,
            zmap: count("ZMap Scan", p),
            sonar: if ofh_scan::datasets::sonar_coverage(p).is_some() {
                Some(count("Project Sonar", p))
            } else {
                None
            },
            shodan: count("Shodan", p),
        })
        .collect();
    rows.sort_by_key(|r| r.zmap);
    Ok(Table4 { rows })
}

/// Table 5 — misconfigured ZMap devices per class, honeypot rows filtered.
pub fn table5(store: &StoreReader) -> Result<Table5> {
    let file = store.bytes();
    let t = store.table("scan")?;
    let source = t.dict("source")?;
    let misconfig = t.dict("misconfig")?;
    let addrs = t.u32("addr")?;
    let hp = t.bitset("hp_filtered")?;

    let zmap_code = source.code_of("ZMap Scan");
    let class_of: Vec<Option<Misconfig>> = misconfig
        .labels
        .iter()
        .map(|l| {
            if l == NONE_LABEL {
                Ok(None)
            } else {
                misconfig_from_label(l).map(Some)
            }
        })
        .collect::<Result<_>>()?;

    let mut per_class: BTreeMap<Misconfig, BTreeSet<u32>> = BTreeMap::new();
    let mut any: BTreeSet<u32> = BTreeSet::new();
    let mut honeypots_filtered = 0usize;
    for row in 0..t.rows {
        if Some(source.code(file, row)) != zmap_code {
            continue;
        }
        if hp.get(file, row) {
            // Records the §4.2 honeypot filter skips before classification.
            honeypots_filtered += 1;
            continue;
        }
        if let Some(class) = class_of[misconfig.code(file, row) as usize] {
            let addr = addrs.get(file, row);
            per_class.entry(class).or_default().insert(addr);
            any.insert(addr);
        }
    }

    let mut rows: Vec<Table5Row> = Misconfig::ALL
        .iter()
        .map(|&class| Table5Row {
            class,
            devices: per_class.get(&class).map(|s| s.len() as u64).unwrap_or(0),
        })
        .collect();
    rows.sort_by_key(|r| r.devices);
    Ok(Table5 {
        rows,
        total: any.len() as u64,
        honeypots_filtered,
    })
}

/// Table 7 — events per (honeypot, protocol) plus per-honeypot unique
/// source splits, re-read from the stored `src_class` column.
pub fn table7(store: &StoreReader) -> Result<Table7> {
    let file = store.bytes();
    let t = store.table("events")?;
    let honeypot = t.dict("honeypot")?;
    let protocol = t.dict("protocol")?;
    let srcs = t.u32("src")?;
    let src_class = t.dict("src_class")?;

    let hp_of: Vec<&'static str> = honeypot
        .labels
        .iter()
        .map(|l| honeypot_from_label(l))
        .collect::<Result<_>>()?;
    let proto_of: Vec<Protocol> = protocol
        .labels
        .iter()
        .map(|l| protocol_from_label(l))
        .collect::<Result<_>>()?;

    let mut counts: BTreeMap<(&'static str, Protocol), u64> = BTreeMap::new();
    let mut seen: BTreeMap<&'static str, BTreeMap<Ipv4Addr, u8>> = BTreeMap::new();
    for row in 0..t.rows {
        let hp = hp_of[honeypot.code(file, row) as usize];
        let p = proto_of[protocol.code(file, row) as usize];
        *counts.entry((hp, p)).or_insert(0) += 1;
        // Classification is constant per (honeypot, src); first row wins.
        seen.entry(hp)
            .or_default()
            .entry(Ipv4Addr::from(srcs.get(file, row)))
            .or_insert_with(|| src_class.code(file, row));
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
    let sources: Vec<Table7Sources> = HoneypotKind::ALL
        .iter()
        .map(|hp| {
            let name = hp.name();
            let mut out = Table7Sources {
                honeypot: name,
                scanning: 0,
                malicious: 0,
                unknown: 0,
            };
            if let Some(set) = seen.get(name) {
                for &code in set.values() {
                    match src_class.labels[code as usize].as_str() {
                        "scanning_service" => out.scanning += 1,
                        "malicious" => out.malicious += 1,
                        _ => out.unknown += 1,
                    }
                }
            }
            out
        })
        .collect();
    let total_events = rows.iter().map(|r| r.events).sum();
    Ok(Table7 {
        rows,
        sources,
        total_events,
    })
}
