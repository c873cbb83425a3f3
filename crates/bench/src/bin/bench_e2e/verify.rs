//! Output verification: sealed bins against a serial reference pass, and
//! the verdict fingerprint reps of one workload must agree on.
//!
//! The reference is a plain `StreamingGridBuilder` fed one event at a
//! time in generation order — no batching, no combining, no shards, no
//! shuffle, no lateness. The ingest plane under test must seal a bin that
//! is `==` (bitwise on every entropy) to what that pass produces. All of
//! this runs between timed calls and never counts toward busy time.

use crate::workloads::{Feed, VERIFY_STRIDE};
use entromine::entropy::{FinalizedBin, StreamConfig, StreamingGridBuilder};
use entromine::net::{FlowRecord, PacketHeader};
use entromine::{Diagnosis, Verdict};
use std::collections::HashSet;

/// The events one sampled bin must have been built from.
enum Reference {
    Packets(Vec<(usize, PacketHeader)>),
    Flows(Vec<(usize, FlowRecord)>),
}

/// Checks every `VERIFY_STRIDE`-th sealed bin against the reference and
/// keeps the generator's census of packets per distinct run.
pub struct Verifier {
    n_flows: usize,
    feed: Feed,
    pending: Option<(usize, Reference)>,
    pub bins_checked: u64,
    pub mismatches: Vec<String>,
    census_packets: u64,
    census_runs: u64,
}

impl Verifier {
    pub fn new(n_flows: usize, feed: Feed) -> Self {
        Verifier {
            n_flows,
            feed,
            pending: None,
            bins_checked: 0,
            mismatches: Vec::new(),
            census_packets: 0,
            census_runs: 0,
        }
    }

    /// Whether `bin` is one of the sampled bins.
    pub fn wants(&self, bin: usize) -> bool {
        bin.is_multiple_of(VERIFY_STRIDE)
    }

    /// Remembers the packets sampled bin `bin` was offered.
    pub fn keep_packets(&mut self, bin: usize, packets: &[(usize, PacketHeader)]) {
        debug_assert_eq!(self.feed, Feed::Packets);
        let runs: HashSet<_> = packets
            .iter()
            .map(|(f, p)| (*f, p.src_ip, p.dst_ip, p.src_port, p.dst_port))
            .collect();
        self.census_runs += runs.len() as u64;
        self.census_packets += packets.len() as u64;
        self.pending = Some((bin, Reference::Packets(packets.to_vec())));
    }

    /// Remembers the admitted records of sampled bin `bin`, in generation
    /// order (the planned too-late ones already left out).
    pub fn keep_flows(&mut self, bin: usize, records: &[(usize, FlowRecord)]) {
        debug_assert_eq!(self.feed, Feed::Netflow);
        let runs: HashSet<_> = records.iter().map(|(f, r)| (*f, r.key)).collect();
        self.census_runs += runs.len() as u64;
        self.census_packets += records.iter().map(|(_, r)| r.packets).sum::<u64>();
        self.pending = Some((bin, Reference::Flows(records.to_vec())));
    }

    /// Compares a sealed bin with the serial reference, if it is sampled.
    pub fn check(&mut self, sealed: &FinalizedBin) {
        let Some((bin, _)) = &self.pending else {
            return;
        };
        if *bin != sealed.bin {
            return;
        }
        let (bin, reference) = self.pending.take().expect("pending checked above");
        let mut serial = StreamingGridBuilder::new(StreamConfig::new(self.n_flows))
            .expect("reference builder config")
            .starting_at(bin);
        let offered = match &reference {
            Reference::Packets(pkts) => pkts
                .iter()
                .try_for_each(|(flow, pkt)| serial.offer_packet(*flow, pkt)),
            Reference::Flows(recs) => recs
                .iter()
                .try_for_each(|(flow, rec)| serial.offer_flow(*flow, rec)),
        };
        self.bins_checked += 1;
        if let Err(e) = offered {
            self.mismatches
                .push(format!("bin {bin}: reference pass refused an event: {e}"));
            return;
        }
        let expected = serial.finish();
        if expected.len() != 1 || expected[0] != *sealed {
            self.mismatches.push(format!(
                "bin {bin}: sealed bin differs from serial reference"
            ));
        }
    }

    /// Represented packets per distinct `(cell, tuple)` run over the
    /// sampled bins — how much the combining path has to merge.
    pub fn pkts_per_run(&self) -> f64 {
        self.census_packets as f64 / self.census_runs.max(1) as f64
    }

    /// A sampled bin that never sealed is a mismatch too.
    pub fn finish(&mut self) {
        if let Some((bin, _)) = self.pending.take() {
            self.mismatches
                .push(format!("bin {bin}: sampled bin was never sealed"));
        }
    }
}

/// FNV-1a over per-bin verdicts and SPE bits; identical across reps of
/// one `(workload, seed)` or the run is not deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    /// The FNV-1a offset basis.
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one bin's verdict in.
    pub fn absorb(&mut self, bin: usize, verdict: &Verdict) {
        self.mix(bin as u64);
        match verdict {
            Verdict::Warmup { .. } => self.mix(0),
            Verdict::Clean => self.mix(1),
            Verdict::Anomalous(d) => {
                self.mix(2);
                self.absorb_diagnosis(d);
            }
            Verdict::Quarantined => self.mix(3),
        }
    }

    fn absorb_diagnosis(&mut self, d: &Diagnosis) {
        let m = d.methods;
        self.mix(m.bytes as u64 | (m.packets as u64) << 1 | (m.entropy as u64) << 2);
        self.mix(d.entropy_spe.to_bits());
        self.mix(d.bytes_spe.to_bits());
        self.mix(d.packets_spe.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine::net::Ipv4;

    fn pkt(src: u32, dport: u16, ts: u64) -> PacketHeader {
        PacketHeader::tcp(Ipv4(src), 1024, Ipv4(9), dport, 100, ts)
    }

    fn sealed_from(packets: &[(usize, PacketHeader)], bin: usize) -> FinalizedBin {
        let mut b = StreamingGridBuilder::new(StreamConfig::new(2))
            .unwrap()
            .starting_at(bin);
        b.offer_packets(packets).unwrap();
        b.finish().remove(0)
    }

    #[test]
    fn matching_bin_passes_and_tampered_bin_fails() {
        let ts = 48 * 300;
        let packets: Vec<_> = (0..40)
            .map(|i| (i % 2, pkt(i as u32 % 5, 80, ts)))
            .collect();
        let mut v = Verifier::new(2, Feed::Packets);
        assert!(v.wants(48) && !v.wants(49));
        v.keep_packets(48, &packets);
        let good = sealed_from(&packets, 48);
        v.check(&good);
        assert_eq!((v.bins_checked, v.mismatches.len()), (1, 0));
        assert!(
            (v.pkts_per_run() - 4.0).abs() < 1e-12,
            "40 packets, 10 runs"
        );

        v.keep_packets(48, &packets);
        let mut bad = good.clone();
        bad.summaries[0].packets += 1;
        v.check(&bad);
        assert_eq!(v.mismatches.len(), 1);

        v.keep_packets(96, &packets);
        v.finish();
        assert_eq!(v.mismatches.len(), 2, "unsealed sample counts as mismatch");
    }

    #[test]
    fn fingerprint_depends_on_bin_and_verdict() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        a.absorb(1, &Verdict::Clean);
        b.absorb(1, &Verdict::Clean);
        assert_eq!(a, b);
        b.absorb(2, &Verdict::Clean);
        a.absorb(2, &Verdict::Quarantined);
        assert_ne!(a, b);
    }
}
