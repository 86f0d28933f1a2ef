//! Build a segment file from the end-of-study artifacts.
//!
//! The builder consumes exactly the merged artifacts the analysis stage
//! consumes — scan results, the honeypot filter set, the merged attack
//! dataset, the telescope capture and the intel oracles — so everything a
//! table or figure derives can be re-derived from the store. Row order is
//! fixed by the artifacts' own canonical orders (`BTreeMap` iteration,
//! time-sorted event and flow streams), dictionaries are built in
//! first-appearance order over those rows, and nothing environmental
//! (timestamps, host names, worker counts) enters the file: store bytes
//! are a pure function of (seed, shards).

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ofh_analysis::events::{AttackDataset, SourceClass};
use ofh_devices::Misconfig;
use ofh_honeypots::HoneypotKind;
use ofh_intel::{GeoDb, ReverseDns};
use ofh_scan::ScanResults;
use ofh_telescope::Telescope;
use ofh_wire::Protocol;

use crate::bytes::{FormatError, Result, Writer};
use crate::column::{
    encode_bitset, encode_t64, encode_u16, encode_u32, DictBuilder, KIND_BITSET, KIND_DICT8,
    KIND_T64, KIND_U16, KIND_U32,
};
use crate::segment::{SegmentWriter, TableBuilder};

/// Label used in dictionary columns for "no value" (no misconfiguration,
/// no device tag, no studied protocol on this port).
pub const NONE_LABEL: &str = "-";

/// The stable label of a misconfiguration class (its variant name).
pub fn misconfig_label(m: Misconfig) -> String {
    format!("{m:?}")
}

/// The stable label of a source classification.
pub const fn source_class_label(c: SourceClass) -> &'static str {
    match c {
        SourceClass::ScanningService => "scanning_service",
        SourceClass::Malicious => "malicious",
        SourceClass::Unknown => "unknown",
    }
}

/// Decode a dictionary label back to the one value in `all` that encodes
/// to it.
fn from_label<T: Copy, L: AsRef<str>>(
    what: &str,
    all: &[T],
    label_of: impl Fn(T) -> L,
    label: &str,
) -> Result<T> {
    all.iter()
        .copied()
        .find(|&v| label_of(v).as_ref() == label)
        .ok_or_else(|| FormatError(format!("unknown {what} label {label:?}")))
}

/// Inverse of `Protocol::name`.
pub fn protocol_from_label(label: &str) -> Result<Protocol> {
    from_label("protocol", &Protocol::ALL, Protocol::name, label)
}

/// Inverse of [`misconfig_label`].
pub fn misconfig_from_label(label: &str) -> Result<Misconfig> {
    from_label("misconfig", &Misconfig::ALL, misconfig_label, label)
}

/// Inverse of `HoneypotKind::name`, as the static name.
pub fn honeypot_from_label(label: &str) -> Result<&'static str> {
    from_label("honeypot", &HoneypotKind::ALL, HoneypotKind::name, label).map(HoneypotKind::name)
}

/// Inverse of [`source_class_label`].
pub fn source_class_from_label(label: &str) -> Result<SourceClass> {
    use SourceClass::*;
    from_label("source class", &[ScanningService, Malicious, Unknown], source_class_label, label)
}

/// Everything the store serializes, borrowed from the finished study.
pub struct StoreInput<'a> {
    pub seed: u64,
    pub shards: u32,
    /// Preset name of the producing run — carried in the `meta` table so a
    /// store artifact identifies its run, like the trace header does.
    pub preset: &'a str,
    pub zmap: &'a ScanResults,
    pub sonar: &'a ScanResults,
    pub shodan: &'a ScanResults,
    /// Confirmed-honeypot addresses (the §4.2 sanitization filter).
    pub honeypot_filter: &'a BTreeSet<Ipv4Addr>,
    pub dataset: &'a AttackDataset,
    pub rdns: &'a ReverseDns,
    pub telescope: &'a Telescope,
    pub geo: &'a GeoDb,
}

/// ASN encoding: `Option<u32>` stored as `asn + 1`, 0 = unknown.
fn asn_plus1(asn: Option<u32>) -> u32 {
    asn.map(|a| a + 1).unwrap_or(0)
}

fn build_scan_table(input: &StoreInput<'_>) -> Vec<u8> {
    let sources = [input.zmap, input.sonar, input.shodan];
    let rows: usize = sources.iter().map(|s| s.records.len()).sum();

    let mut source = DictBuilder::new();
    let mut addrs: Vec<u32> = Vec::with_capacity(rows);
    let mut ports: Vec<u16> = Vec::with_capacity(rows);
    let mut protocol = DictBuilder::new();
    let mut misconfig = DictBuilder::new();
    let mut device = DictBuilder::new();
    let mut country = DictBuilder::new();
    let mut asns: Vec<u32> = Vec::with_capacity(rows);
    let mut hp_filtered: Vec<bool> = Vec::with_capacity(rows);

    for results in sources {
        for record in results.records.values() {
            source.push(&results.source);
            addrs.push(u32::from(record.addr));
            ports.push(record.port);
            protocol.push(record.protocol.name());
            misconfig.push(
                &record
                    .misconfig()
                    .map(misconfig_label)
                    .unwrap_or_else(|| NONE_LABEL.to_string()),
            );
            device.push(record.device().map(|d| d.name).unwrap_or(NONE_LABEL));
            country.push(input.geo.country_of(record.addr).code());
            asns.push(asn_plus1(input.geo.asn_of(record.addr)));
            hp_filtered.push(input.honeypot_filter.contains(&record.addr));
        }
    }

    let mut tb = TableBuilder::new(rows);
    let mut w = Writer::new();
    source.encode(&mut w);
    tb.column("source", KIND_DICT8, w);
    let mut w = Writer::new();
    encode_u32(&mut w, &addrs, true);
    tb.column("addr", KIND_U32, w);
    let mut w = Writer::new();
    encode_u16(&mut w, &ports);
    tb.column("port", KIND_U16, w);
    let mut w = Writer::new();
    protocol.encode(&mut w);
    tb.column("protocol", KIND_DICT8, w);
    let mut w = Writer::new();
    misconfig.encode(&mut w);
    tb.column("misconfig", KIND_DICT8, w);
    let mut w = Writer::new();
    device.encode(&mut w);
    tb.column("device", KIND_DICT8, w);
    let mut w = Writer::new();
    country.encode(&mut w);
    tb.column("country", KIND_DICT8, w);
    let mut w = Writer::new();
    encode_u32(&mut w, &asns, false);
    tb.column("asn1", KIND_U32, w);
    let mut w = Writer::new();
    encode_bitset(&mut w, &hp_filtered);
    tb.column("hp_filtered", KIND_BITSET, w);
    tb.finish()
}

fn build_events_table(input: &StoreInput<'_>) -> Vec<u8> {
    let dataset = input.dataset;
    let rows = dataset.events.len();

    // Source classification is a property of the (honeypot, src) pair;
    // classify each pair once, exactly as Table 7 does.
    let classes = dataset.classify_sources(input.rdns);

    let mut times: Vec<u64> = Vec::with_capacity(rows);
    let mut honeypot = DictBuilder::new();
    let mut protocol = DictBuilder::new();
    let mut srcs: Vec<u32> = Vec::with_capacity(rows);
    let mut src_ports: Vec<u16> = Vec::with_capacity(rows);
    let mut kind = DictBuilder::new();
    let mut attack_type = DictBuilder::new();
    let mut src_class = DictBuilder::new();
    let mut country = DictBuilder::new();
    let mut asns: Vec<u32> = Vec::with_capacity(rows);

    for e in &dataset.events {
        times.push(e.time.0);
        honeypot.push(e.honeypot);
        protocol.push(e.protocol.name());
        srcs.push(u32::from(e.src));
        src_ports.push(e.src_port);
        kind.push(e.kind.name());
        attack_type.push(dataset.attack_type(e).name());
        src_class.push(source_class_label(classes[&(e.honeypot, e.src)]));
        country.push(input.geo.country_of(e.src).code());
        asns.push(asn_plus1(input.geo.asn_of(e.src)));
    }

    let mut tb = TableBuilder::new(rows);
    let mut w = Writer::new();
    encode_t64(&mut w, &times);
    tb.column("time", KIND_T64, w);
    let mut w = Writer::new();
    honeypot.encode(&mut w);
    tb.column("honeypot", KIND_DICT8, w);
    let mut w = Writer::new();
    protocol.encode(&mut w);
    tb.column("protocol", KIND_DICT8, w);
    let mut w = Writer::new();
    encode_u32(&mut w, &srcs, true);
    tb.column("src", KIND_U32, w);
    let mut w = Writer::new();
    encode_u16(&mut w, &src_ports);
    tb.column("src_port", KIND_U16, w);
    let mut w = Writer::new();
    kind.encode(&mut w);
    tb.column("kind", KIND_DICT8, w);
    let mut w = Writer::new();
    attack_type.encode(&mut w);
    tb.column("attack_type", KIND_DICT8, w);
    let mut w = Writer::new();
    src_class.encode(&mut w);
    tb.column("src_class", KIND_DICT8, w);
    let mut w = Writer::new();
    country.encode(&mut w);
    tb.column("country", KIND_DICT8, w);
    let mut w = Writer::new();
    encode_u32(&mut w, &asns, false);
    tb.column("asn1", KIND_U32, w);
    tb.finish()
}

fn build_telescope_table(input: &StoreInput<'_>) -> Vec<u8> {
    let rows = input.telescope.total_records() as usize;

    let mut times: Vec<u64> = Vec::with_capacity(rows);
    let mut srcs: Vec<u32> = Vec::with_capacity(rows);
    let mut dst_ports: Vec<u16> = Vec::with_capacity(rows);
    let mut protocol = DictBuilder::new();
    let mut country = DictBuilder::new();
    let mut asns: Vec<u32> = Vec::with_capacity(rows);
    let mut packet_cnts: Vec<u32> = Vec::with_capacity(rows);
    let mut spoofed: Vec<bool> = Vec::with_capacity(rows);
    let mut masscan: Vec<bool> = Vec::with_capacity(rows);

    // `records()` walks minute files in ascending minute order and each
    // minute is canonically time-sorted, so the time column is globally
    // non-decreasing — the T64 precondition.
    for ft in input.telescope.records() {
        times.push(ft.time.0);
        srcs.push(u32::from(ft.src_ip));
        dst_ports.push(ft.dst_port);
        protocol.push(ft.target_protocol().map(|p| p.name()).unwrap_or(NONE_LABEL));
        country.push(&ft.country);
        asns.push(asn_plus1(ft.asn));
        packet_cnts.push(ft.packet_cnt);
        spoofed.push(ft.is_spoofed);
        masscan.push(ft.is_masscan);
    }

    let mut tb = TableBuilder::new(rows);
    let mut w = Writer::new();
    encode_t64(&mut w, &times);
    tb.column("time", KIND_T64, w);
    let mut w = Writer::new();
    encode_u32(&mut w, &srcs, true);
    tb.column("src", KIND_U32, w);
    let mut w = Writer::new();
    encode_u16(&mut w, &dst_ports);
    tb.column("dst_port", KIND_U16, w);
    let mut w = Writer::new();
    protocol.encode(&mut w);
    tb.column("protocol", KIND_DICT8, w);
    let mut w = Writer::new();
    country.encode(&mut w);
    tb.column("country", KIND_DICT8, w);
    let mut w = Writer::new();
    encode_u32(&mut w, &asns, false);
    tb.column("asn1", KIND_U32, w);
    let mut w = Writer::new();
    encode_u32(&mut w, &packet_cnts, false);
    tb.column("packet_cnt", KIND_U32, w);
    let mut w = Writer::new();
    encode_bitset(&mut w, &spoofed);
    tb.column("spoofed", KIND_BITSET, w);
    let mut w = Writer::new();
    encode_bitset(&mut w, &masscan);
    tb.column("masscan", KIND_BITSET, w);
    tb.finish()
}

fn build_meta_table(input: &StoreInput<'_>) -> Vec<u8> {
    // One row of dictionary columns: uniform with every other table, and
    // free of anything environmental.
    let mut tb = TableBuilder::new(1);
    for (name, value) in [
        ("seed", input.seed.to_string()),
        ("shards", input.shards.to_string()),
        ("preset", input.preset.to_string()),
        ("format", "ofh_store/1".to_string()),
    ] {
        let mut d = DictBuilder::new();
        d.push(&value);
        let mut w = Writer::new();
        d.encode(&mut w);
        tb.column(name, KIND_DICT8, w);
    }
    tb.finish()
}

/// Serialize the study artifacts into one segment file.
pub fn build_store(input: &StoreInput<'_>) -> Vec<u8> {
    let mut seg = SegmentWriter::new();
    seg.table("meta", build_meta_table(input));
    seg.table("scan", build_scan_table(input));
    seg.table("events", build_events_table(input));
    seg.table("telescope", build_telescope_table(input));
    seg.finish()
}

/// Build and write the store to `path`. Returns the byte count.
pub fn write_store(path: &std::path::Path, input: &StoreInput<'_>) -> std::io::Result<u64> {
    let bytes = build_store(input);
    std::fs::write(path, &bytes)?;
    Ok(bytes.len() as u64)
}
