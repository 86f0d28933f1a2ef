//! The store fails closed. Truncated or bit-flipped copies of a real
//! segment either fail to open or answer queries with `Ok` or `Err`;
//! opening and querying never panic.

mod common;

use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use ofh_store::bytes::Writer;
use ofh_store::column::{DictBuilder, KIND_DICT8};
use ofh_store::segment::{SegmentWriter, TableBuilder};
use ofh_store::{Query, StoreReader};
use proptest::prelude::*;
use proptest::sample::Index;

/// One segment built from deterministic synthetic artifacts.
fn segment() -> &'static [u8] {
    static SEGMENT: OnceLock<Vec<u8>> = OnceLock::new();
    SEGMENT.get_or_init(|| {
        common::arb_artifacts()
            .generate(&mut proptest::test_runner::rng_for_test("corrupt::segment"))
            .store()
    })
}

/// Open `bytes` and run every query kind against it, ignoring answers.
fn exercise(bytes: Vec<u8>) {
    let Ok(reader) = StoreReader::from_bytes(bytes) else {
        return;
    };
    let label = || Some("Telnet".to_string());
    for q in [
        Query::Info,
        Query::Table(4),
        Query::Table(5),
        Query::Table(7),
        Query::HostLookup {
            addr: Ipv4Addr::from(0x1000_0001u32),
        },
        Query::CountScan {
            source: Some("ZMap Scan".into()),
            protocol: label(),
            misconfig: None,
            country: None,
        },
        Query::CountEvents {
            honeypot: None,
            protocol: label(),
            attack_type: None,
            class: Some("malicious".into()),
        },
        Query::EventsInRange {
            start_ms: 0,
            end_ms: u64::MAX,
            honeypot: Some("Cowrie".into()),
        },
        Query::CountTelescope {
            protocol: label(),
            country: None,
        },
    ] {
        let _ = reader.execute(&q);
    }
}

#[derive(Debug)]
enum Mutation {
    Truncate(usize),
    Flip(Vec<(usize, u8)>),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<Index>().prop_map(|at| Mutation::Truncate(at.index(segment().len()))),
        prop::collection::vec((any::<Index>(), 0u8..8), 1..4).prop_map(|flips| {
            Mutation::Flip(
                flips
                    .into_iter()
                    .map(|(at, bit)| (at.index(segment().len()), bit))
                    .collect(),
            )
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn corrupted_segments_never_panic(m in arb_mutation()) {
        let mut bytes = segment().to_vec();
        match &m {
            Mutation::Truncate(len) => bytes.truncate(*len),
            Mutation::Flip(flips) => {
                for &(at, bit) in flips {
                    bytes[at] ^= 1 << bit;
                }
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| exercise(bytes)));
        prop_assert!(outcome.is_ok(), "{:?} panicked", m);
    }
}

#[test]
fn out_of_range_dictionary_code_fails_at_open() {
    let mut d = DictBuilder::new();
    for label in ["a", "b", "a"] {
        d.push(label);
    }
    let mut w = Writer::new();
    d.encode(&mut w);
    // Layout: u16 label count, two one-byte-prefixed labels, then codes.
    let codes_at = 2 + 2 * 2;
    assert_eq!(&w.buf[codes_at..codes_at + 3], &[0, 1, 0]);
    w.buf[codes_at + 1] = 2;
    let mut tb = TableBuilder::new(3);
    tb.column("label", KIND_DICT8, w);
    let mut seg = SegmentWriter::new();
    seg.table("t", tb.finish());
    let err = StoreReader::from_bytes(seg.finish())
        .err()
        .expect("open must fail");
    assert!(err.to_string().contains("dictionary"), "{err}");
}
