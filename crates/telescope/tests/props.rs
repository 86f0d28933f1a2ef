//! Property tests for the telescope: FlowTuple derivation and minute-file
//! binning over arbitrary observation streams.

use ofh_intel::GeoDb;
use ofh_net::sim::FlowTap;
use ofh_net::{FlowKind, FlowObservation, SimTime, Transport};
use ofh_telescope::{FlowTuple, Telescope};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_observation() -> impl Strategy<Value = FlowObservation> {
    (
        0u64..10_000_000_000,
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<bool>(),
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
        any::<bool>(),
    )
        .prop_map(
            |(t, src, dst, sp, dp, tcp, ttl, flags, window, len, spoofed)| FlowObservation {
                time: SimTime(t),
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                src_port: sp,
                dst_port: dp,
                transport: if tcp { Transport::Tcp } else { Transport::Udp },
                kind: if tcp { FlowKind::TcpSyn } else { FlowKind::UdpDatagram },
                ttl,
                tcp_flags: if tcp { flags | FlowObservation::SYN } else { 0 },
                tcp_window: if tcp { window } else { 0 },
                ip_len: len,
                payload: Default::default(),
                spoofed,
            },
        )
}

proptest! {
    /// Every observation lands in exactly one minute file; totals add up and
    /// records appear in time order within the full iteration.
    #[test]
    fn binning_partitions_records(obs in prop::collection::vec(arb_observation(), 0..200)) {
        let mut t = Telescope::new(GeoDb::new());
        for o in &obs {
            t.observe(o);
        }
        prop_assert_eq!(t.total_records() as usize, obs.len());
        let mut iterated = 0usize;
        let mut last_minute = 0u64;
        for rec in t.records() {
            let minute = rec.time.minute_index();
            prop_assert!(minute >= last_minute, "records out of minute order");
            last_minute = minute;
            iterated += 1;
        }
        prop_assert_eq!(iterated, obs.len());
    }

    /// FlowTuple derivation is faithful: protocol numbers, SYN-only fields,
    /// masscan flag.
    #[test]
    fn flowtuple_faithful(o in arb_observation()) {
        let ft = FlowTuple::from_observation(&o, "US", None);
        prop_assert_eq!(ft.protocol, o.transport.protocol_number());
        prop_assert_eq!(ft.src_ip, o.src);
        prop_assert_eq!(ft.is_spoofed, o.spoofed);
        match o.transport {
            Transport::Udp => {
                prop_assert_eq!(ft.tcp_syn_window, 0);
                prop_assert!(!ft.is_masscan);
            }
            Transport::Tcp => {
                prop_assert_eq!(ft.tcp_syn_window, o.tcp_window);
                prop_assert_eq!(ft.is_masscan, o.tcp_window == 1024);
            }
        }
        // JSON roundtrip.
        let json = serde_json::to_string(&ft).unwrap();
        let back: FlowTuple = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, ft);
    }
}

proptest! {
    /// `merge_all` over per-shard captures equals absorbing them one after
    /// another, ties (repeated flows) included.
    #[test]
    fn merge_all_equals_sequential_absorb(
        obs in prop::collection::vec(arb_observation(), 0..200),
        shard_of in prop::collection::vec(0usize..5, 200),
        repeats in prop::collection::vec(0usize..3, 200),
    ) {
        // Re-observing a flow with another TTL, possibly in another shard,
        // makes records that tie on the canonical sort key but differ.
        let shards = || {
            let mut parts: Vec<Telescope> = (0..5).map(|_| Telescope::new(GeoDb::new())).collect();
            for ((o, &s), &r) in obs.iter().zip(&shard_of).zip(&repeats) {
                for k in 0..=r {
                    let mut again = o.clone();
                    again.ttl = o.ttl.wrapping_add(k as u8);
                    parts[(s + k) % 5].observe(&again);
                }
            }
            parts
        };
        let mut sequential = Telescope::new(GeoDb::new());
        for p in shards() {
            sequential.absorb(p);
        }
        let parts = shards();
        let merged = Telescope::merge_all(GeoDb::new(), parts);
        prop_assert_eq!(merged.total_records(), sequential.total_records());
        prop_assert_eq!(
            merged.records().collect::<Vec<_>>(),
            sequential.records().collect::<Vec<_>>()
        );
    }
}
