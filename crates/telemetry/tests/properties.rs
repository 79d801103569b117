//! Property: parsing a recording yields, for every server, exactly the
//! stream a filter of the whole recording followed by a stable sort on
//! `(time, vm, seq)` yields — for both encodings, any append order, sparse
//! and extreme server ids, and `(time, vm)` ties broken only by `seq` (or
//! not at all, where file order must survive). Whatever the append order,
//! including server-major (per-host files concatenated), no stream holds
//! more than twice the capacity it needs.

use perfcloud_host::{CounterSnapshot, PhysicalServer, ServerConfig, ServerId, VmCounters, VmId};
use perfcloud_sim::{RngFactory, SimDuration, SimTime};
use perfcloud_telemetry::{
    CounterSource, RecordingFormat, ReplaySource, Sample, TelemetryReader, TelemetryWriter,
};
use proptest::prelude::*;

/// The per-server stream as replay built it before streams were grouped
/// at parse time: filter the whole recording, then stable-sort.
fn filter_and_sort(records: &[(u32, Sample)], server: u32) -> Vec<Sample> {
    let mut stream: Vec<Sample> =
        records.iter().filter(|(s, _)| *s == server).map(|(_, sample)| *sample).collect();
    stream.sort_by_key(|s| (s.time, s.vm, s.seq));
    stream
}

/// Everything `source` delivers, pulled in a few cursor-advancing steps.
fn drain(mut source: ReplaySource, server: &PhysicalServer) -> Vec<Sample> {
    let mut out = Vec::new();
    for t in [0, 5, 11, u64::MAX] {
        source.collect_into(SimTime::from_micros(t), server, &mut out);
    }
    out
}

/// A server id from one of three bands: small, random, or near `u32::MAX`.
fn server_id((band, small, any): (u8, u32, u32)) -> u32 {
    match band {
        0 => small,
        1 => any,
        _ => u32::MAX - small,
    }
}

proptest! {
    #[test]
    fn parsed_streams_equal_filter_then_stable_sort(
        ids in proptest::collection::vec((0u8..3, 0u32..4, 0u32..=u32::MAX), 1..6),
        picks in proptest::collection::vec((0usize..6, 0u64..16, 0u32..3, 0u64..4), 0..6000),
        order_tag in 0u8..3,
        format_tag in 0u8..2,
    ) {
        let format =
            if format_tag == 0 { RecordingFormat::Binary } else { RecordingFormat::Jsonl };
        let pool: Vec<u32> = ids.into_iter().map(server_id).collect();
        // Each record's counters carry its append index, so a reordering
        // of equal keys shows.
        let mut records: Vec<(u32, Sample)> = picks
            .iter()
            .enumerate()
            .map(|(i, &(slot, t, vm, seq))| {
                let counters = VmCounters { cpu_time: i as f64 * 0.1, ..Default::default() };
                let sample = Sample {
                    time: SimTime::from_micros(t),
                    vm: VmId(vm),
                    seq,
                    snapshot: CounterSnapshot { counters },
                };
                (pool[slot % pool.len()], sample)
            })
            .collect();
        match order_tag {
            // Time order across servers, as a tee appends.
            1 => records.sort_by_key(|(_, s)| (s.time, s.vm, s.seq)),
            // Server-major, as per-host recordings concatenated.
            2 => records.sort_by_key(|(server, s)| (*server, s.time, s.vm, s.seq)),
            _ => {}
        }
        let mut writer = TelemetryWriter::new(format, "sim");
        for (server, sample) in &records {
            writer.append(*server, sample);
        }
        let rec = TelemetryReader::parse(&writer.finish()).expect("own recording parses");
        prop_assert_eq!(rec.samples.len(), records.len());

        let host = PhysicalServer::new(
            ServerId(0),
            ServerConfig::default(),
            RngFactory::new(7),
            SimDuration::from_micros(100_000),
        );
        for &server in &pool {
            if let Some(stream) = rec.samples.get(server) {
                // Plain `Vec` doubling, whose smallest allocation holds 4.
                prop_assert!(
                    stream.capacity() <= (2 * stream.len()).max(4),
                    "server {}: capacity {} for {} samples", server, stream.capacity(), stream.len()
                );
            }
            let replayed = drain(ReplaySource::for_server(&rec, server), &host);
            prop_assert_eq!(replayed, filter_and_sort(&records, server), "server {}", server);
        }
        let absent = (0..).find(|id| !pool.contains(id)).unwrap();
        prop_assert!(drain(ReplaySource::for_server(&rec, absent), &host).is_empty());
    }
}
