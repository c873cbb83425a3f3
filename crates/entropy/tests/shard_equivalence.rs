//! Sharded vs. serial ingest equivalence — the contract of the ingest
//! plane.
//!
//! The sharded plane is only admissible if sharding is *invisible* in the
//! output: for any shard count, any batch segmentation, and any watermark
//! schedule, the emitted `FinalizedBin` sequence must be **bit-identical**
//! to the serial `StreamingGridBuilder`'s on the same events — same bins,
//! same per-flow volumes, same entropies to the last bit, same late-event
//! accounting. The serial builder is the executable specification; the
//! sharded builder is the production plane pinned against it here.
//!
//! The fixed tests cover late events, gap bins, lateness slack, flow
//! records, and the end-of-stream flush; the proptest sweeps random
//! traffic shapes across shard counts 1/2/7/16.
//!
//! The `combining_*` tests pin the map-side combining batch path — the
//! sharded plane's only batch engine — specifically: batches, including
//! shuffled ones, flow-record ones, and batches straddling bins, must
//! finalize bit-identically to per-packet serial offers at every shard
//! count, late events and gap bins included.

use entromine_entropy::shard::ShardedGridBuilder;
use entromine_entropy::stream::{StreamConfig, StreamingGridBuilder};
use entromine_net::flow::aggregate_bin;
use entromine_net::{Ipv4, PacketHeader};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// A deterministic pseudo-traffic stream: `(flow, packet)` events in
/// near-time order with controllable stragglers and silent bins.
fn traffic(
    seed: u64,
    n_flows: usize,
    n_bins: usize,
    per_bin: usize,
    gap_bins: &[usize],
    stragglers: usize,
) -> Vec<(usize, PacketHeader)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for bin in 0..n_bins {
        if gap_bins.contains(&bin) {
            continue;
        }
        for _ in 0..per_bin {
            let flow = rng.random_range(0..n_flows);
            let ts = bin as u64 * 300 + rng.random_range(0..300);
            // One host per /20, so Abilene's /21 mask (`anonymized()`)
            // keeps distinct hosts distinct.
            let pkt = PacketHeader::tcp(
                Ipv4(rng.random_range(0..50) << 12),
                rng.random_range(1024..1064),
                Ipv4(rng.random_range(0..20) << 12),
                [80u16, 443, 53, 22][rng.random_range(0..4)],
                40 + rng.random_range(0..1400),
                ts,
            );
            out.push((flow, pkt));
        }
    }
    // Stragglers: events for long-sealed bins, interleaved at the end of
    // the stream (they are offered after the watermark has moved on).
    for _ in 0..stragglers {
        let flow = rng.random_range(0..n_flows);
        let pkt = PacketHeader::tcp(Ipv4(1), 1024, Ipv4(2), 80, 40, rng.random_range(0..300));
        out.push((flow, pkt));
    }
    out
}

/// Drives the serial builder event by event with watermark advances at
/// each bin boundary, returning (sealed bins..., late count).
fn run_serial(
    config: &StreamConfig,
    events: &[(usize, PacketHeader)],
    watermarks: &[u64],
) -> (Vec<entromine_entropy::FinalizedBin>, u64) {
    let mut b = StreamingGridBuilder::new(config.clone()).expect("serial builder");
    let mut out = Vec::new();
    let mut remaining = events;
    for (i, &wm) in watermarks.iter().enumerate() {
        // Offer an even slice of the stream before each watermark step.
        let take = if i + 1 == watermarks.len() {
            remaining.len()
        } else {
            events.len() / watermarks.len()
        }
        .min(remaining.len());
        let (now, rest) = remaining.split_at(take);
        remaining = rest;
        for (flow, pkt) in now {
            b.offer_packet(*flow, pkt).expect("offer");
        }
        out.extend(b.advance_watermark(wm));
    }
    let late = b.late_events();
    out.extend(b.finish());
    (out, late)
}

/// Drives the sharded builder with the same slicing, offering each slice
/// as one batch — optionally shuffled deterministically first, since
/// combining must be order-blind.
fn run_sharded(
    config: &StreamConfig,
    shards: usize,
    events: &[(usize, PacketHeader)],
    watermarks: &[u64],
    shuffle_seed: Option<u64>,
) -> (Vec<entromine_entropy::FinalizedBin>, u64) {
    let mut b = ShardedGridBuilder::new(config.clone(), shards).expect("sharded builder");
    let mut out = Vec::new();
    let mut remaining = events;
    for (i, &wm) in watermarks.iter().enumerate() {
        let take = if i + 1 == watermarks.len() {
            remaining.len()
        } else {
            events.len() / watermarks.len()
        }
        .min(remaining.len());
        let (now, rest) = remaining.split_at(take);
        remaining = rest;
        let mut batch: Vec<(usize, PacketHeader)> = now.to_vec();
        if let Some(seed) = shuffle_seed {
            let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
            for i in (1..batch.len()).rev() {
                let j = rng.random_range(0..=i);
                batch.swap(i, j);
            }
        }
        b.offer_packets(&batch).expect("offer batch");
        out.extend(b.advance_watermark(wm));
    }
    let late = b.late_events();
    out.extend(b.finish());
    (out, late)
}

/// Bitwise comparison of two finalized sequences (`FinalizedBin` derives
/// `PartialEq`, and f64 equality here *is* the bit test we want).
fn assert_bit_identical(
    serial: &[entromine_entropy::FinalizedBin],
    sharded: &[entromine_entropy::FinalizedBin],
    label: &str,
) {
    assert_eq!(
        serial.len(),
        sharded.len(),
        "{label}: different number of sealed bins"
    );
    for (a, b) in serial.iter().zip(sharded) {
        assert_eq!(a.bin, b.bin, "{label}: bin order diverged");
        assert_eq!(a, b, "{label}: bin {} diverged", a.bin);
    }
}

#[test]
fn sharded_matches_serial_with_gaps_and_stragglers() {
    let n_flows = 23;
    let config = StreamConfig::new(n_flows);
    let events = traffic(42, n_flows, 12, 400, &[3, 4, 9], 25);
    let watermarks: Vec<u64> = (1..=13).map(|b| b * 300).collect();
    let (serial, serial_late) = run_serial(&config, &events, &watermarks);
    assert!(
        serial
            .iter()
            .any(|fb| fb.summaries.iter().all(|s| s.packets == 0)),
        "fixture must exercise gap bins"
    );
    assert!(serial_late > 0, "fixture must exercise late events");
    for shards in SHARD_COUNTS {
        let (sharded, late) = run_sharded(&config, shards, &events, &watermarks, None);
        assert_bit_identical(&serial, &sharded, &format!("{shards} shards"));
        assert_eq!(late, serial_late, "{shards} shards: late-event accounting");
    }
}

#[test]
fn sharded_matches_serial_under_lateness_slack() {
    let n_flows = 9;
    let config = StreamConfig::new(n_flows).with_lateness(120);
    let events = traffic(7, n_flows, 8, 200, &[], 10);
    let watermarks: Vec<u64> = (1..=9).map(|b| b * 300 + 60).collect();
    let (serial, serial_late) = run_serial(&config, &events, &watermarks);
    for shards in SHARD_COUNTS {
        let (sharded, late) = run_sharded(&config, shards, &events, &watermarks, None);
        assert_bit_identical(&serial, &sharded, &format!("{shards} shards (slack)"));
        assert_eq!(late, serial_late);
    }
}

#[test]
fn flow_record_batches_match_serial_packet_feed() {
    // The same traffic offered as packets (serial) and as aggregated
    // flow-record batches (sharded) must agree exactly: record
    // aggregation preserves per-cell counts, and counts are all the
    // summaries see.
    let n_flows = 11;
    let config = StreamConfig::new(n_flows);
    let events = traffic(99, n_flows, 6, 300, &[2], 0);

    let mut serial = StreamingGridBuilder::new(config.clone()).unwrap();
    for (flow, pkt) in &events {
        serial.offer_packet(*flow, pkt).unwrap();
    }
    let serial_bins = serial.finish();

    for shards in SHARD_COUNTS {
        let mut sharded = ShardedGridBuilder::new(config.clone(), shards).unwrap();
        // Aggregate per (bin, flow) so record binning matches packet
        // binning, then offer everything as one record batch.
        let mut batch = Vec::new();
        for bin in 0..6usize {
            for flow in 0..n_flows {
                let cell: Vec<PacketHeader> = events
                    .iter()
                    .filter(|(f, p)| *f == flow && (p.timestamp / 300) as usize == bin)
                    .map(|(_, p)| *p)
                    .collect();
                for rec in aggregate_bin(&cell) {
                    batch.push((flow, rec));
                }
            }
        }
        sharded.offer_flows(&batch).unwrap();
        let sharded_bins = sharded.finish();
        assert_eq!(serial_bins.len(), sharded_bins.len());
        for (a, b) in serial_bins.iter().zip(&sharded_bins) {
            assert_eq!(a.bin, b.bin);
            for (sa, sb) in a.summaries.iter().zip(&b.summaries) {
                assert_eq!(sa.packets, sb.packets);
                assert_eq!(sa.bytes, sb.bytes);
                for k in 0..4 {
                    assert!(
                        (sa.entropy[k] - sb.entropy[k]).abs() < 1e-12,
                        "entropy diverged at bin {} feature {k}",
                        a.bin
                    );
                }
            }
        }
    }
}

#[test]
fn combining_batch_matches_per_packet_offers() {
    // Per-packet serial offers vs the combining batch path (in offer
    // order and shuffled) at every shard count, with gap bins,
    // stragglers, and mid-stream watermarks.
    let n_flows = 17;
    let config = StreamConfig::new(n_flows);
    let events = traffic(1234, n_flows, 10, 350, &[2, 7], 30);
    let watermarks: Vec<u64> = (1..=11).map(|b| b * 300).collect();
    let (serial, serial_late) = run_serial(&config, &events, &watermarks);
    for shards in SHARD_COUNTS {
        for (label, shuffle) in [("offer order", None), ("shuffled", Some(99u64))] {
            let (batched, late) = run_sharded(&config, shards, &events, &watermarks, shuffle);
            let label = format!("{shards}-shard combining ({label})");
            assert_bit_identical(&serial, &batched, &label);
            assert_eq!(late, serial_late, "{label}: late accounting");
        }
    }
}

#[test]
fn combining_matches_per_packet_across_shards_with_late_and_gap_bins() {
    // The sharded batch path *is* the combining path; pin it against the
    // per-packet serial spec across every shard count on a fixture that
    // exercises late events and gap bins, with batches spanning several
    // bins (so the sort-and-group really reorders across cells), in offer
    // order and shuffled.
    let n_flows = 23;
    let config = StreamConfig::new(n_flows).with_lateness(60);
    let events = traffic(77, n_flows, 9, 300, &[4], 20);
    // Coarse watermarks: every batch covers ~3 bins.
    let watermarks: Vec<u64> = (1..=3).map(|b| b * 1000).collect();
    let (serial, serial_late) = run_serial(&config, &events, &watermarks);
    assert!(serial_late > 0, "fixture must exercise late events");
    for shards in SHARD_COUNTS {
        for shuffle in [None, Some(7u64)] {
            let (sharded, late) = run_sharded(&config, shards, &events, &watermarks, shuffle);
            let label = format!("combining {shards} shards (shuffle {shuffle:?})");
            assert_bit_identical(&serial, &sharded, &label);
            assert_eq!(late, serial_late, "{label}");
        }
    }
}

#[test]
fn combining_flow_record_batches_match_packet_offers() {
    // The NetFlow front door: the same traffic offered as aggregated flow
    // records through the combining path — serial and sharded — must
    // match the per-packet serial feed exactly (record aggregation and
    // run combining preserve per-cell counts, and counts are all the
    // summaries see).
    let n_flows = 13;
    let config = StreamConfig::new(n_flows);
    let events = traffic(555, n_flows, 5, 250, &[1], 0);

    let mut serial = StreamingGridBuilder::new(config.clone()).unwrap();
    for (flow, pkt) in &events {
        serial.offer_packet(*flow, pkt).unwrap();
    }
    let serial_bins = serial.finish();

    // One record batch covering the whole stream, aggregated per cell.
    let mut batch = Vec::new();
    for bin in 0..5usize {
        for flow in 0..n_flows {
            let cell: Vec<PacketHeader> = events
                .iter()
                .filter(|(f, p)| *f == flow && (p.timestamp / 300) as usize == bin)
                .map(|(_, p)| *p)
                .collect();
            for rec in aggregate_bin(&cell) {
                batch.push((flow, rec));
            }
        }
    }

    let mut serial_rec = StreamingGridBuilder::new(config.clone()).unwrap();
    serial_rec.offer_flows(&batch).unwrap();
    assert_bit_identical(&serial_bins, &serial_rec.finish(), "serial flow records");

    for shards in SHARD_COUNTS {
        let mut sharded = ShardedGridBuilder::new(config.clone(), shards).unwrap();
        sharded.offer_flows(&batch).unwrap();
        assert_bit_identical(
            &serial_bins,
            &sharded.finish(),
            &format!("{shards}-shard flow records"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn combining_equals_per_packet_on_random_streams(
        seed in 0u64..10_000,
        n_flows in 1usize..40,
        n_bins in 2usize..9,
        per_bin in 1usize..120,
        gap in 0usize..8,
        stragglers in 0usize..12,
        shuffle_seed in 0u64..1000,
    ) {
        let config = StreamConfig::new(n_flows);
        let gaps = [gap % n_bins];
        let events = traffic(seed, n_flows, n_bins, per_bin, &gaps, stragglers);
        let watermarks: Vec<u64> = (1..=(n_bins as u64 + 1)).map(|b| b * 300).collect();
        let (serial, serial_late) = run_serial(&config, &events, &watermarks);
        for shards in SHARD_COUNTS {
            let (batched, late) =
                run_sharded(&config, shards, &events, &watermarks, Some(shuffle_seed));
            let label = format!("{shards}-shard combining (seed {seed})");
            assert_bit_identical(&serial, &batched, &label);
            prop_assert_eq!(late, serial_late);
        }
    }

    #[test]
    fn sharded_equals_serial_on_random_streams(
        seed in 0u64..10_000,
        n_flows in 1usize..40,
        n_bins in 2usize..9,
        per_bin in 1usize..120,
        gap in 0usize..8,
        stragglers in 0usize..12,
        lateness_ix in 0usize..3,
        anonymize in any::<bool>(),
    ) {
        let lateness = [0u64, 60, 299][lateness_ix];
        let config = StreamConfig::new(n_flows).with_lateness(lateness);
        let gaps = [gap % n_bins];
        let mut events = traffic(seed, n_flows, n_bins, per_bin, &gaps, stragglers);
        if anonymize {
            for (_, pkt) in &mut events {
                *pkt = pkt.anonymized();
            }
        }
        let watermarks: Vec<u64> = (1..=(n_bins as u64 + 1)).map(|b| b * 300).collect();
        let (serial, serial_late) = run_serial(&config, &events, &watermarks);
        for shards in SHARD_COUNTS {
            let (sharded, late) = run_sharded(&config, shards, &events, &watermarks, None);
            assert_bit_identical(&serial, &sharded, &format!("{shards} shards (seed {seed})"));
            prop_assert_eq!(late, serial_late);
        }
    }
}
