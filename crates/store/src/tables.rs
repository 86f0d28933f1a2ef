//! Tables 4/5/7 read back from the store.
//!
//! Each table is written once, in `ofh_analysis`, as a constructor over
//! narrow rows; the functions here only decode columns and feed those rows
//! to the same constructors the in-memory study uses. Each decodes its
//! dictionaries to enums once (an unknown label is a [`FormatError`]) and
//! then reads rows by code, so store and report tables agree by
//! construction.
//!
//! The one precondition the adapters check is the scan table's row order:
//! within each source, addresses ascend, which distinct-address counting
//! ([`count_distinct_addrs`], [`MisconfigCensus::add`]) relies on.

use std::net::Ipv4Addr;

use ofh_analysis::table4::{Table4, SOURCES};
use ofh_analysis::table5::Table5;
use ofh_analysis::table7::Table7;
use ofh_scan::{count_distinct_addrs, MisconfigCensus};

use crate::build::{
    honeypot_from_label, misconfig_from_label, protocol_from_label, source_class_from_label,
    NONE_LABEL,
};
use crate::bytes::{FormatError, Result};
use crate::column::{DictView, U32View};
use crate::query::StoreReader;

/// Decode a dictionary's labels once, so rows index a plain vector by code.
fn decode<T>(dict: &DictView, from_label: impl Fn(&str) -> Result<T>) -> Result<Vec<T>> {
    dict.labels.iter().map(|l| from_label(l)).collect()
}

/// Check that scan rows list each source's addresses in ascending order.
fn check_scan_order(file: &[u8], source: &DictView, addrs: &U32View) -> Result<()> {
    let mut last = [0u32; 256];
    for row in 0..addrs.rows() {
        let (code, addr) = (source.code(file, row) as usize, addrs.get(file, row));
        if addr < last[code] {
            return Err(FormatError(format!(
                "scan row {row}: addresses not ascending"
            )));
        }
        last[code] = addr;
    }
    Ok(())
}

/// Table 4 — unique exposed hosts per (source, protocol).
pub fn table4(store: &StoreReader) -> Result<Table4> {
    let file = store.bytes();
    let t = store.table("scan")?;
    let source = t.dict("source")?;
    let protocol = t.dict("protocol")?;
    let addrs = t.u32("addr")?;
    check_scan_order(file, source, addrs)?;
    let column_of = decode(source, |l| Ok(SOURCES.iter().position(|&s| s == l)))?;
    let protocol_of = decode(protocol, protocol_from_label)?;

    let pairs = (0..t.rows).filter_map(|row| {
        let column = column_of[source.code(file, row) as usize]?;
        let p = protocol_of[protocol.code(file, row) as usize];
        Some(((column, p), Ipv4Addr::from(addrs.get(file, row))))
    });
    Ok(Table4::from_counts(&count_distinct_addrs(pairs)))
}

/// Table 5 — misconfigured ZMap devices per class, honeypot rows filtered.
pub fn table5(store: &StoreReader) -> Result<Table5> {
    let file = store.bytes();
    let t = store.table("scan")?;
    let source = t.dict("source")?;
    let misconfig = t.dict("misconfig")?;
    let addrs = t.u32("addr")?;
    let filtered = t.bitset("hp_filtered")?;
    check_scan_order(file, source, addrs)?;
    let class_of = decode(misconfig, |l| {
        (l != NONE_LABEL).then(|| misconfig_from_label(l)).transpose()
    })?;

    let zmap = source.code_of(SOURCES[0]);
    let mut census = MisconfigCensus::default();
    for row in (0..t.rows).filter(|&row| Some(source.code(file, row)) == zmap) {
        census.add(
            Ipv4Addr::from(addrs.get(file, row)),
            filtered.get(file, row),
            class_of[misconfig.code(file, row) as usize],
        );
    }
    Ok(Table5::from_census(&census))
}

/// Table 7 — events per (honeypot, protocol) plus per-honeypot unique
/// source splits, read from the stored `src_class` column.
pub fn table7(store: &StoreReader) -> Result<Table7> {
    let file = store.bytes();
    let t = store.table("events")?;
    let honeypot = t.dict("honeypot")?;
    let protocol = t.dict("protocol")?;
    let srcs = t.u32("src")?;
    let src_class = t.dict("src_class")?;
    let honeypot_of = decode(honeypot, honeypot_from_label)?;
    let protocol_of = decode(protocol, protocol_from_label)?;
    let class_of = decode(src_class, source_class_from_label)?;

    let honeypot_at = |row| honeypot_of[honeypot.code(file, row) as usize];
    Ok(Table7::from_rows(
        (0..t.rows).map(|row| {
            (
                honeypot_at(row),
                protocol_of[protocol.code(file, row) as usize],
            )
        }),
        (0..t.rows).map(|row| {
            let pair = (honeypot_at(row), Ipv4Addr::from(srcs.get(file, row)));
            (pair, class_of[src_class.code(file, row) as usize])
        }),
    ))
}
