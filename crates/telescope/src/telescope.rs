//! The telescope tap: captures observations into minute-binned FlowTuple
//! files.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use ofh_intel::GeoDb;
use ofh_net::sim::FlowTap;
use ofh_net::FlowObservation;

use crate::flowtuple::FlowTuple;

/// The telescope: attach as a [`FlowTap`] over the universe's dark space.
///
/// Records are grouped into per-minute files ("the files are stored on a
/// minute basis, and hence there are 1,440 files generated per day", §3.4).
pub struct Telescope {
    /// minute index -> records in that minute.
    minutes: BTreeMap<u64, Vec<FlowTuple>>,
    geo: GeoDb,
    total: u64,
}

impl Telescope {
    pub fn new(geo: GeoDb) -> Telescope {
        Telescope {
            minutes: BTreeMap::new(),
            geo,
            total: 0,
        }
    }

    /// Total records captured.
    pub fn total_records(&self) -> u64 {
        self.total
    }

    /// Number of non-empty minute files.
    pub fn minute_file_count(&self) -> usize {
        self.minutes.len()
    }

    /// Records of one minute file.
    pub fn minute_file(&self, minute: u64) -> &[FlowTuple] {
        self.minutes.get(&minute).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate all records in time order.
    pub fn records(&self) -> impl Iterator<Item = &FlowTuple> {
        self.minutes.values().flatten()
    }

    /// Minute files in a half-open day range [from_day, to_day).
    pub fn records_in_days(&self, from_day: u64, to_day: u64) -> impl Iterator<Item = &FlowTuple> {
        let from = from_day * 1_440;
        let to = to_day * 1_440;
        self.minutes
            .range(from..to)
            .flat_map(|(_, recs)| recs.iter())
    }

    /// Fold another telescope's capture into this one (the sharded engine
    /// merges per-shard telescopes). Records land in their minute files and
    /// each touched minute is re-sorted into a canonical order, so the
    /// merged capture is independent of how the records were split across
    /// shards.
    pub fn absorb(&mut self, other: Telescope) {
        for (minute, mut recs) in other.minutes {
            self.total += recs.len() as u64;
            let file = self.minutes.entry(minute).or_default();
            file.append(&mut recs);
            file.sort_by(canonical_order);
        }
    }

    /// Union per-shard captures, equal to absorbing `parts` one after
    /// another in order: the sort is stable, so ties keep shard order
    /// either way. Each minute file is sorted once, not once per shard.
    pub fn merge_all(geo: GeoDb, parts: Vec<Telescope>) -> Telescope {
        let mut merged = Telescope::new(geo);
        for part in parts {
            for (minute, mut recs) in part.minutes {
                merged.total += recs.len() as u64;
                merged.minutes.entry(minute).or_default().append(&mut recs);
            }
        }
        for file in merged.minutes.values_mut() {
            file.sort_by(canonical_order);
        }
        merged
    }

    /// Export one minute file as JSON lines (CAIDA's FlowTuple v4 is JSON).
    pub fn minute_file_jsonl(&self, minute: u64) -> String {
        let mut out = String::new();
        for r in self.minute_file(minute) {
            out.push_str(&serde_json::to_string(r).expect("flowtuple serializes"));
            out.push('\n');
        }
        out
    }
}

/// The canonical order of records within a minute file.
fn canonical_order(a: &FlowTuple, b: &FlowTuple) -> Ordering {
    (a.time, a.src_ip, a.dst_ip, a.src_port, a.dst_port, a.protocol)
        .cmp(&(b.time, b.src_ip, b.dst_ip, b.src_port, b.dst_port, b.protocol))
}

impl FlowTap for Telescope {
    fn observe(&mut self, obs: &FlowObservation) {
        let transport = match obs.transport {
            ofh_net::Transport::Tcp => "tcp",
            ofh_net::Transport::Udp => "udp",
        };
        ofh_obs::count_l("telescope.flow", transport, 1);
        ofh_obs::observe("telescope.ip_len", obs.ip_len as u64);
        ofh_obs::span(
            "telescope.flow",
            transport,
            obs.time.0,
            obs.time.0,
            u32::from(obs.src),
            u32::from(obs.dst),
            obs.dst_port,
            obs.ip_len as u32,
        );
        let country = self.geo.country_of(obs.src).code().to_string();
        let asn = self.geo.asn_of(obs.src);
        let ft = FlowTuple::from_observation(obs, &country, asn);
        self.minutes.entry(obs.time.minute_index()).or_default().push(ft);
        self.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, FlowKind, SimTime, Transport};

    fn obs_at(t: u64, dst_port: u16) -> FlowObservation {
        FlowObservation {
            time: SimTime(t),
            src: ip(1, 2, 3, 4),
            dst: ip(16, 0, 0, 9),
            src_port: 40_000,
            dst_port,
            transport: Transport::Tcp,
            kind: FlowKind::TcpSyn,
            ttl: 40,
            tcp_flags: FlowObservation::SYN,
            tcp_window: 65_535,
            ip_len: 60,
            payload: Default::default(),
            spoofed: false,
        }
    }

    #[test]
    fn minute_binning() {
        let mut t = Telescope::new(GeoDb::new());
        t.observe(&obs_at(10_000, 23)); // minute 0
        t.observe(&obs_at(59_999, 23)); // minute 0
        t.observe(&obs_at(60_000, 1883)); // minute 1
        t.observe(&obs_at(86_400_000 + 5, 5683)); // day 1, minute 1440
        assert_eq!(t.total_records(), 4);
        assert_eq!(t.minute_file_count(), 3);
        assert_eq!(t.minute_file(0).len(), 2);
        assert_eq!(t.minute_file(1).len(), 1);
        assert_eq!(t.minute_file(1_440).len(), 1);
        assert_eq!(t.records_in_days(0, 1).count(), 3);
        assert_eq!(t.records_in_days(1, 2).count(), 1);
    }

    #[test]
    fn jsonl_export() {
        let mut t = Telescope::new(GeoDb::new());
        t.observe(&obs_at(0, 23));
        let jsonl = t.minute_file_jsonl(0);
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"dst_port\":23"));
    }

    #[test]
    fn absorb_merges_minutes_canonically() {
        // Split one observation stream across two telescopes, merge both
        // ways: identical captures.
        let all = [obs_at(10_000, 23), obs_at(20_000, 1883), obs_at(70_000, 23)];
        let split = |idx: &[usize]| {
            let mut t = Telescope::new(GeoDb::new());
            for &i in idx {
                t.observe(&all[i]);
            }
            t
        };
        let mut a = split(&[0, 2]);
        a.absorb(split(&[1]));
        let mut b = split(&[1]);
        b.absorb(split(&[0, 2]));
        assert_eq!(a.total_records(), 3);
        assert_eq!(a.minute_file_count(), 2);
        assert_eq!(a.minute_file_jsonl(0), b.minute_file_jsonl(0));
        assert_eq!(a.minute_file_jsonl(1), b.minute_file_jsonl(1));
    }

    #[test]
    fn geo_metadata_applied() {
        let mut geo = GeoDb::new();
        geo.allocate_slash16(ip(1, 2, 0, 0), ofh_intel::Country::Germany, 3320);
        let mut t = Telescope::new(geo);
        t.observe(&obs_at(0, 23));
        let rec = &t.minute_file(0)[0];
        assert_eq!(rec.country, "DE");
        assert_eq!(rec.asn, Some(3320));
    }
}
