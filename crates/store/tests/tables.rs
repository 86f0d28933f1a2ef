//! Store tables equal the in-memory ones. For small synthetic study
//! artifacts, Tables 4, 5 and 7 read back from a built store serialize to
//! the same JSON as `compute` over the artifacts, including the fields
//! `render()` never shows (Table 5's `honeypots_filtered`).

mod common;

use ofh_analysis::table4::Table4;
use ofh_analysis::table5::Table5;
use ofh_analysis::table7::Table7;
use ofh_store::bytes::Writer;
use ofh_store::column::{encode_u32, DictBuilder, KIND_DICT8, KIND_U32};
use ofh_store::segment::{SegmentWriter, TableBuilder};
use ofh_store::{tables, StoreReader};
use proptest::prelude::*;

macro_rules! json {
    ($v:expr) => {
        serde_json::to_string(&$v).expect("serializes")
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_tables_equal_compute(a in common::arb_artifacts()) {
        let reader = StoreReader::from_bytes(a.store()).expect("store parses");
        prop_assert_eq!(
            json!(tables::table4(&reader).expect("table 4")),
            json!(Table4::compute(&a.zmap, &a.sonar, &a.shodan))
        );
        prop_assert_eq!(
            json!(tables::table5(&reader).expect("table 5")),
            json!(Table5::compute(&a.zmap, &a.filter))
        );
        prop_assert_eq!(
            json!(tables::table7(&reader).expect("table 7")),
            json!(Table7::compute(&a.dataset, &a.rdns))
        );
    }
}

/// A one-table `scan` segment with the columns Table 4 reads.
fn scan_segment(rows: &[(&str, &str, u32)]) -> Vec<u8> {
    let mut source = DictBuilder::new();
    let mut protocol = DictBuilder::new();
    for &(s, p, _) in rows {
        source.push(s);
        protocol.push(p);
    }
    let addrs: Vec<u32> = rows.iter().map(|r| r.2).collect();
    let mut tb = TableBuilder::new(rows.len());
    let mut w = Writer::new();
    source.encode(&mut w);
    tb.column("source", KIND_DICT8, w);
    let mut w = Writer::new();
    protocol.encode(&mut w);
    tb.column("protocol", KIND_DICT8, w);
    let mut w = Writer::new();
    encode_u32(&mut w, &addrs, true);
    tb.column("addr", KIND_U32, w);
    let mut seg = SegmentWriter::new();
    seg.table("scan", tb.finish());
    seg.finish()
}

#[test]
fn scan_rows_out_of_address_order_are_a_format_error() {
    let ordered = scan_segment(&[
        ("ZMap Scan", "Telnet", 1),
        ("ZMap Scan", "Telnet", 2),
        ("Shodan", "Telnet", 1),
    ]);
    let t4 = tables::table4(&StoreReader::from_bytes(ordered).unwrap()).unwrap();
    assert_eq!(t4.row(ofh_wire::Protocol::Telnet).zmap, 2);
    assert_eq!(t4.row(ofh_wire::Protocol::Telnet).shodan, 1);

    let unordered = scan_segment(&[
        ("ZMap Scan", "Telnet", 2),
        ("ZMap Scan", "Telnet", 1),
        ("ZMap Scan", "Telnet", 2),
    ]);
    let err = tables::table4(&StoreReader::from_bytes(unordered).unwrap()).unwrap_err();
    assert!(err.to_string().contains("not ascending"), "{err}");
}

#[test]
fn unknown_labels_are_a_format_error() {
    let unknown_protocol = scan_segment(&[("ZMap Scan", "Gopher", 1)]);
    assert!(tables::table4(&StoreReader::from_bytes(unknown_protocol).unwrap()).is_err());

    // Rename the stored "malicious" class in place (same length, so the
    // layout holds): Table 7 must refuse it rather than count it unknown.
    let a = common::arb_artifacts()
        .generate(&mut proptest::test_runner::rng_for_test("unknown_labels"));
    let mut bytes = a.store();
    let at = bytes
        .windows(b"malicious".len())
        .position(|w| w == b"malicious")
        .expect("fixture has a malicious source");
    bytes[at + 8] = b'x';
    let reader = StoreReader::from_bytes(bytes).expect("layout unchanged");
    let err = tables::table7(&reader).unwrap_err();
    assert!(err.to_string().contains("malicioux"), "{err}");
}
