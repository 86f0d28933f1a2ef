//! Integration: the scan → classify → fingerprint-filter pipeline in
//! isolation, with ground-truth cross-checks the full study can't do
//! (it never reads generation truth; this test deliberately does, to verify
//! the measurement recovers it).

use std::net::Ipv4Addr;

use ofh_core::devices::population::{paper_exposed, PopulationBuilder, PopulationSpec};
use ofh_core::devices::{Misconfig, Universe};
use ofh_core::net::{SimNet, SimNetConfig};
use ofh_core::scan::{scan_start, Scanner, ScannerConfig};
use ofh_core::wire::Protocol;
use openforhire_suite as _;

fn run_scan(seed: u64, scale: u64) -> (ofh_core::devices::population::Population, ofh_core::scan::ScanResults) {
    let universe = Universe::new(Ipv4Addr::new(16, 0, 0, 0), 16);
    let population = PopulationBuilder::new(PopulationSpec { universe, scale, seed }).build();
    let mut net = SimNet::new(SimNetConfig { seed, ..SimNetConfig::default() });
    population.attach_all(&mut net);
    let cfgs: Vec<ScannerConfig> = Protocol::SCANNED
        .iter()
        .map(|&p| {
            ScannerConfig::full(p, universe.cidr().first(), universe.size(), scan_start(p), seed)
        })
        .collect();
    let end = cfgs.iter().map(Scanner::estimated_end).max().unwrap();
    let id = net.attach(universe.scanner_addr(), Box::new(Scanner::new("ZMap Scan", cfgs)));
    net.run_until(end);
    let results = net.agent_downcast_mut::<Scanner>(id).unwrap().results.clone();
    (population, results)
}

#[test]
fn scan_recovers_every_device_and_classification() {
    let (population, results) = run_scan(3, 16_384);
    // Completeness: a lossless network + full sweep finds every device.
    for proto in Protocol::SCANNED {
        let truth = population.records.iter().filter(|r| r.protocol == proto).count();
        let found = results.exposed_hosts(proto);
        assert_eq!(found, truth, "{proto}: found {found} of {truth}");
    }
    // Correctness: measured misconfiguration equals generated ground truth,
    // device by device.
    for record in &population.records {
        let scanned = results
            .records
            .get(&(record.addr, record.port))
            .unwrap_or_else(|| panic!("{} ({:?}) not scanned", record.addr, record.protocol));
        assert_eq!(
            scanned.misconfig(),
            record.misconfig,
            "{} {:?}: classifier said {:?}, truth {:?} (banner {:?})",
            record.addr,
            record.protocol,
            scanned.misconfig(),
            record.misconfig,
            scanned.response
        );
    }
}

#[test]
fn device_typing_recovers_profiles() {
    let (population, results) = run_scan(5, 16_384);
    let mut typed = 0usize;
    let mut total_with_profile = 0usize;
    for record in &population.records {
        let Some(profile) = record.profile else { continue };
        // XMPP/AMQP responses never carry a device identity (§4.1.2) and
        // properly-configured UPnP/MQTT devices don't disclose theirs.
        if matches!(record.protocol, Protocol::Xmpp | Protocol::Amqp) {
            continue;
        }
        let discloses = match record.protocol {
            Protocol::Upnp => record.misconfig.is_some(),
            Protocol::Mqtt | Protocol::Coap => record.misconfig.is_some(),
            _ => true,
        };
        if !discloses {
            continue;
        }
        total_with_profile += 1;
        let scanned = results.records.get(&(record.addr, record.port)).unwrap();
        if let Some(found) = scanned.device() {
            assert_eq!(found.name, profile.name, "{}", record.addr);
            typed += 1;
        }
    }
    assert!(
        typed as f64 / total_with_profile as f64 > 0.95,
        "typed {typed}/{total_with_profile}"
    );
}

#[test]
fn scaled_counts_track_paper_marginals() {
    let scale = 16_384;
    let (_, results) = run_scan(9, scale);
    for proto in Protocol::SCANNED {
        let expect = (paper_exposed(proto) + scale / 2) / scale;
        let got = results.exposed_hosts(proto) as u64;
        assert!(
            got.abs_diff(expect.max(1)) <= expect / 10 + 2,
            "{proto}: got {got}, expected ≈{expect}"
        );
    }
    // Misconfigured classes survive scaling.
    let census = results.misconfig_census(&Default::default());
    for class in Misconfig::ALL {
        assert!(
            !census.addrs(class).is_empty(),
            "{class:?} vanished at scale {scale}"
        );
    }
}
