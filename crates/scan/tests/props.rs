//! Property tests for the scanning layer.

use std::net::Ipv4Addr;

use ofh_scan::{classify_response, AddressPermutation, HostRecord, ScanResults};
use ofh_wire::Protocol;
use proptest::prelude::*;

proptest! {
    /// The address permutation is a bijection over arbitrary sizes.
    #[test]
    fn permutation_bijection(size in 1u64..30_000, seed in any::<u64>()) {
        let mut seen = vec![false; size as usize];
        let mut count = 0u64;
        for v in AddressPermutation::new(size, seed) {
            prop_assert!(v < size);
            prop_assert!(!seen[v as usize], "value {v} visited twice");
            seen[v as usize] = true;
            count += 1;
        }
        prop_assert_eq!(count, size);
    }

    /// Two permutations with the same (size, seed) are identical; different
    /// seeds differ (for non-degenerate sizes).
    #[test]
    fn permutation_seed_sensitivity(size in 100u64..5_000, seed in any::<u64>()) {
        let a: Vec<u64> = AddressPermutation::new(size, seed).take(32).collect();
        let b: Vec<u64> = AddressPermutation::new(size, seed).take(32).collect();
        prop_assert_eq!(&a, &b);
        let c: Vec<u64> = AddressPermutation::new(size, seed.wrapping_add(1)).take(32).collect();
        prop_assert_ne!(&a, &c);
    }

    /// The misconfiguration classifier is total over arbitrary text and
    /// only ever returns a class belonging to the probed protocol.
    #[test]
    fn classifier_total_and_protocol_consistent(text in "\\PC{0,300}") {
        for proto in Protocol::SCANNED {
            if let Some(class) = classify_response(proto, &text) {
                prop_assert_eq!(class.protocol(), proto);
            }
        }
    }

    /// Classifier rules are monotone under concatenation for the positive
    /// indicators: appending the indicator to arbitrary text always flags.
    #[test]
    fn indicators_always_fire(prefix in "[a-zA-Z0-9 :.\\r\\n]{0,80}") {
        use ofh_devices::Misconfig;
        let cases = [
            (Protocol::Mqtt, "MQTT Connection Code:0", Misconfig::MqttNoAuth),
            (Protocol::Upnp, "ST: upnp:rootdevice", Misconfig::UpnpReflection),
            (Protocol::Coap, "220-Admin </x>", Misconfig::CoapNoAuthAdmin),
            (Protocol::Amqp, "Version: 2.7.1", Misconfig::AmqpNoAuth),
        ];
        for (proto, indicator, expect) in cases {
            let text = format!("{prefix}{indicator}");
            prop_assert_eq!(classify_response(proto, &text), Some(expect), "{}", proto);
        }
    }
}

/// Disjoint per-shard datasets: records keyed by a small address and port
/// space, split by address ownership (as the sharded engine splits them),
/// and a shuffled copy of the shard list.
fn arb_shard_parts() -> impl Strategy<Value = (Vec<ScanResults>, Vec<ScanResults>)> {
    (
        prop::collection::vec(
            (
                0u32..256,
                prop::sample::select(vec![23u16, 2323, 1883, 5683]),
                prop::sample::select(Protocol::SCANNED.to_vec()),
                "[a-z$@: ]{0,12}",
            ),
            0..160,
        ),
        1u32..9,
        prop::collection::vec(any::<u64>(), 8),
    )
        .prop_map(|(rows, shards, order)| {
            let mut parts: Vec<ScanResults> =
                (0..shards).map(|_| ScanResults::new("ZMap Scan")).collect();
            for (i, port, protocol, response) in rows {
                parts[(i % shards) as usize].insert(HostRecord {
                    addr: Ipv4Addr::from(0x0a00_0000 + i),
                    port,
                    protocol,
                    raw: response.as_bytes().to_vec(),
                    response,
                });
            }
            let mut keyed: Vec<(u64, ScanResults)> =
                order.into_iter().zip(parts.iter().cloned()).collect();
            keyed.sort_by_key(|(k, _)| *k);
            (parts, keyed.into_iter().map(|(_, p)| p).collect())
        })
}

proptest! {
    /// `merge_all` over disjoint shard datasets, in any order, equals
    /// absorbing them one after another.
    #[test]
    fn merge_all_equals_sequential_absorb(shards in arb_shard_parts()) {
        let (parts, shuffled) = shards;
        let mut absorbed = ScanResults::new("ZMap Scan");
        for p in parts {
            absorbed.absorb(p);
        }
        let merged = ScanResults::merge_all("ZMap Scan", shuffled);
        prop_assert_eq!(&merged.source, &absorbed.source);
        prop_assert_eq!(&merged.records, &absorbed.records);
    }
}
