//! Small synthetic study artifacts for the store's property tests.
//!
//! The generated inputs carry the shapes the store tables must survive:
//! hosts answering one protocol on two ports (Telnet 23 and 2323),
//! honeypot-filtered hosts, and sources that repeat events until they
//! classify as malicious, next to rDNS-registered scanning services.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ofh_analysis::events::{register_service_rdns, AttackDataset};
use ofh_honeypots::{AttackEvent, EventKind, HoneypotKind};
use ofh_intel::{GeoDb, ReverseDns};
use ofh_net::sim::FlowTap;
use ofh_net::{FlowKind, FlowObservation, Payload, SimTime, Transport};
use ofh_scan::{HostRecord, ScanResults};
use ofh_store::{build_store, StoreInput};
use ofh_telescope::Telescope;
use ofh_wire::Protocol;
use proptest::prelude::*;

/// Scan addresses come from a small pool so hosts recur across ports and
/// sources.
const HOST_POOL: u32 = 24;
const HOST_BASE: u32 = 0x1000_0000;
/// Attack sources likewise, so some exceed the six-event malicious bar.
const SRC_POOL: u32 = 10;
const SRC_BASE: u32 = 0x0a00_0000;

/// Everything a [`StoreInput`] borrows, owned.
pub struct Artifacts {
    pub zmap: ScanResults,
    pub sonar: ScanResults,
    pub shodan: ScanResults,
    pub filter: BTreeSet<Ipv4Addr>,
    pub dataset: AttackDataset,
    pub rdns: ReverseDns,
    pub telescope: Telescope,
    pub geo: GeoDb,
}

impl Artifacts {
    pub fn input(&self) -> StoreInput<'_> {
        StoreInput {
            seed: 7,
            shards: 1,
            preset: "synthetic",
            zmap: &self.zmap,
            sonar: &self.sonar,
            shodan: &self.shodan,
            honeypot_filter: &self.filter,
            dataset: &self.dataset,
            rdns: &self.rdns,
            telescope: &self.telescope,
            geo: &self.geo,
        }
    }

    pub fn store(&self) -> Vec<u8> {
        build_store(&self.input())
    }
}

/// Banners that hit every Table 2/3 classifier, plus misses.
fn arb_banner() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "root@x:~$ ",
        "$ ",
        "login:",
        "MQTT Connection Code:0",
        "MQTT Connection Code:5",
        "Version: 2.7.1 ANONYMOUS",
        "<mechanism>ANONYMOUS</mechanism>",
        "<mechanism>PLAIN</mechanism><required/>",
        "rt: core\n/light\n",
        "ST: upnp:rootdevice",
        "HTTP/1.1 200 OK",
        "",
    ])
}

fn arb_scan_results(source: &'static str) -> impl Strategy<Value = ScanResults> {
    prop::collection::vec(
        (
            0..HOST_POOL,
            prop::sample::select(Protocol::SCANNED.to_vec()),
            any::<bool>(),
            arb_banner(),
        ),
        0..60,
    )
    .prop_map(move |rows| {
        let mut rs = ScanResults::new(source);
        for (i, protocol, alt_port, banner) in rows {
            let port = match (protocol, alt_port) {
                (Protocol::Telnet, true) => 2323,
                (_, true) => protocol.port() + 10_000,
                (_, false) => protocol.port(),
            };
            rs.insert(HostRecord {
                addr: Ipv4Addr::from(HOST_BASE + i),
                port,
                protocol,
                response: banner.to_string(),
                raw: banner.as_bytes().to_vec(),
            });
        }
        rs
    })
}

fn arb_event() -> impl Strategy<Value = AttackEvent> {
    (
        0u64..600_000,
        prop::sample::select(HoneypotKind::ALL.map(HoneypotKind::name).to_vec()),
        prop::sample::select(vec![
            Protocol::Telnet,
            Protocol::Mqtt,
            Protocol::Coap,
            Protocol::Upnp,
        ]),
        0..SRC_POOL,
        any::<u16>(),
        prop::sample::select(vec![
            EventKind::Connection,
            EventKind::Discovery,
            EventKind::LoginAttempt {
                username: "root".into(),
                password: "root".into(),
                success: false,
            },
        ]),
    )
        .prop_map(|(t, honeypot, protocol, src, src_port, kind)| AttackEvent {
            time: SimTime(t),
            honeypot,
            protocol,
            src: Ipv4Addr::from(SRC_BASE + src),
            src_port,
            kind,
        })
}

fn flow(time: u64, src: u32, dst_port: u16) -> FlowObservation {
    FlowObservation {
        time: SimTime(time),
        src: Ipv4Addr::from(src),
        dst: Ipv4Addr::from(0x2c00_0001u32),
        src_port: 40_000,
        dst_port,
        transport: Transport::Tcp,
        kind: FlowKind::TcpSyn,
        ttl: 64,
        tcp_flags: FlowObservation::SYN,
        tcp_window: if src % 2 == 0 { 1024 } else { 65_535 },
        ip_len: 40,
        payload: Payload::empty(),
        spoofed: false,
    }
}

pub fn arb_artifacts() -> impl Strategy<Value = Artifacts> {
    (
        arb_scan_results("ZMap Scan"),
        arb_scan_results("Project Sonar"),
        arb_scan_results("Shodan"),
        prop::collection::vec(0..HOST_POOL, 0..6),
        prop::collection::vec(arb_event(), 0..80),
        prop::collection::vec(0..SRC_POOL, 0..3),
        prop::collection::vec(
            (
                0u64..600_000,
                0..SRC_POOL,
                prop::sample::select(vec![23u16, 1883, 5683, 80]),
            ),
            0..40,
        ),
    )
        .prop_map(|(zmap, sonar, shodan, filter, events, services, flows)| {
            let mut rdns = ReverseDns::new();
            for s in services {
                register_service_rdns(&mut rdns, Ipv4Addr::from(SRC_BASE + s), "Shodan");
            }
            let geo = GeoDb::new();
            let mut telescope = Telescope::new(geo.clone());
            let mut flows: Vec<FlowObservation> = flows
                .into_iter()
                .map(|(t, s, port)| flow(t, SRC_BASE + s, port))
                .collect();
            flows.sort_by_key(|f| f.time);
            for f in &flows {
                telescope.observe(f);
            }
            Artifacts {
                zmap,
                sonar,
                shodan,
                filter: filter
                    .into_iter()
                    .map(|i| Ipv4Addr::from(HOST_BASE + i))
                    .collect(),
                dataset: AttackDataset::merge(vec![events]),
                rdns,
                telescope,
                geo,
            }
        })
}
