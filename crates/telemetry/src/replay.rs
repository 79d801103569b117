//! Deterministic replay of a recorded telemetry stream.

use crate::record::TelemetryRecording;
use crate::source::{CounterSource, Sample};
use perfcloud_host::PhysicalServer;
use perfcloud_sim::SimTime;
use std::sync::Arc;

/// A [`CounterSource`] that re-delivers one server's recorded samples.
///
/// The stream is the server's [`ServerStreams`] entry, already in
/// `(time, vm, seq)` order, so the delivered sequence is a pure function
/// of the recording — independent of how the original run interleaved
/// collection across threads.
/// Each `collect_into` call delivers every not-yet-delivered sample whose
/// timestamp is at or before `now`; late samples surface exactly where the
/// recording put them, and the monitor's existing stale/duplicate handling
/// applies unchanged.
///
/// Cloning carries the cursor, so a forked experiment resumes replay from
/// the fork point. The samples are shared (`Arc`) with the recording and
/// with every other source built from it, so construction and clones copy
/// nothing, even for multi-hour recordings.
///
/// [`ServerStreams`]: crate::ServerStreams
#[derive(Debug, Clone)]
pub struct ReplaySource {
    samples: Arc<Vec<Sample>>,
    cursor: usize,
}

impl ReplaySource {
    /// Builds a replay source over the samples recorded on `server`
    /// (none if the recording holds no sample of it).
    pub fn for_server(recording: &TelemetryRecording, server: u32) -> Self {
        let samples = recording.samples.get(server).cloned().unwrap_or_default();
        ReplaySource { samples, cursor: 0 }
    }
}

impl CounterSource for ReplaySource {
    fn collect_into(&mut self, now: SimTime, _server: &PhysicalServer, out: &mut Vec<Sample>) {
        while let Some(s) = self.samples.get(self.cursor) {
            if s.time > now {
                break;
            }
            out.push(*s);
            self.cursor += 1;
        }
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordingFormat, TelemetryReader, TelemetryWriter};
    use crate::source::SimSource;
    use perfcloud_host::{CounterSnapshot, VmCounters, VmId};

    fn sample(t: u64, vm: u32, seq: u64) -> Sample {
        let counters = VmCounters { cpu_time: t as f64, ..Default::default() };
        Sample {
            time: SimTime::from_micros(t),
            vm: VmId(vm),
            seq,
            snapshot: CounterSnapshot { counters },
        }
    }

    fn recording() -> TelemetryRecording {
        let mut w = TelemetryWriter::new(RecordingFormat::Binary, "sim");
        // Deliberately shuffled append order and a second server mixed in.
        w.append(0, &sample(2_000_000, 1, 3));
        w.append(1, &sample(1_000_000, 0, 1));
        w.append(0, &sample(1_000_000, 1, 2));
        w.append(0, &sample(1_000_000, 0, 0));
        TelemetryReader::parse(&w.finish()).unwrap()
    }

    // A small simulated host: two idle VMs is enough for source plumbing.
    fn dummy_server() -> PhysicalServer {
        use perfcloud_host::{ServerConfig, ServerId, VmConfig};
        use perfcloud_sim::{RngFactory, SimDuration};
        let mut s = PhysicalServer::new(
            ServerId(0),
            ServerConfig::default(),
            RngFactory::new(7),
            SimDuration::from_micros(100_000),
        );
        s.add_vm(VmId(0), VmConfig::high_priority());
        s.add_vm(VmId(1), VmConfig::low_priority());
        s
    }

    #[test]
    fn replay_is_sorted_filtered_and_cursor_driven() {
        let rec = recording();
        let mut src = ReplaySource::for_server(&rec, 0);
        assert_eq!(src.samples.len(), 3);
        let server = dummy_server();
        let mut out = Vec::new();
        src.collect_into(SimTime::from_micros(500_000), &server, &mut out);
        assert!(out.is_empty(), "nothing due before the first timestamp");
        src.collect_into(SimTime::from_micros(1_000_000), &server, &mut out);
        assert_eq!(
            out.iter().map(|s| (s.vm.0, s.seq)).collect::<Vec<_>>(),
            vec![(0, 0), (1, 2)],
            "(time, vm, seq) order regardless of append order"
        );
        out.clear();
        src.collect_into(SimTime::from_micros(10_000_000), &server, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vm, VmId(1));
        out.clear();
        src.collect_into(SimTime::MAX, &server, &mut out);
        assert!(out.is_empty(), "the stream is exhausted");
    }

    #[test]
    fn sources_share_the_parsed_stream() {
        let rec = recording();
        let stream = rec.samples.get(0).unwrap();
        let a = ReplaySource::for_server(&rec, 0);
        let b = ReplaySource::for_server(&rec, 0);
        assert!(Arc::ptr_eq(&a.samples, stream) && Arc::ptr_eq(&b.samples, stream));
        assert_eq!(Arc::strong_count(stream), 3, "the recording and two sources, no copy");
        let absent = ReplaySource::for_server(&rec, 7);
        assert!(absent.samples.is_empty(), "a server the recording lacks replays nothing");
    }

    #[test]
    fn clone_preserves_cursor() {
        let rec = recording();
        let mut src = ReplaySource::for_server(&rec, 0);
        let server = dummy_server();
        let mut out = Vec::new();
        src.collect_into(SimTime::from_micros(1_000_000), &server, &mut out);
        let mut forked = src.clone();
        let mut a = Vec::new();
        let mut b = Vec::new();
        src.collect_into(SimTime::MAX, &server, &mut a);
        forked.collect_into(SimTime::MAX, &server, &mut b);
        assert_eq!(a, b, "fork resumes from the same cursor");
    }

    #[test]
    fn sim_tee_replays_identically() {
        // Samples collected by SimSource, teed, parsed, and replayed come
        // back in the same order with identical payloads.
        let server = dummy_server();
        let mut sim = SimSource::new();
        let mut teed = TelemetryWriter::new(RecordingFormat::Jsonl, sim.name());
        let mut live = Vec::new();
        for step in 1..=3u64 {
            let now = SimTime::from_micros(step * 1_000_000);
            let mut batch = Vec::new();
            sim.collect_into(now, &server, &mut batch);
            for s in &batch {
                teed.append(0, s);
            }
            live.extend(batch);
        }
        let rec = TelemetryReader::parse(&teed.finish()).unwrap();
        let mut replay = ReplaySource::for_server(&rec, 0);
        let mut replayed = Vec::new();
        replay.collect_into(SimTime::MAX, &server, &mut replayed);
        assert_eq!(live, replayed);
    }
}
