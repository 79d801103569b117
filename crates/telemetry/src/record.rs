//! The versioned telemetry recording format.
//!
//! A recording is a header (magic, format version, source name) followed by
//! a flat stream of `(server, sample)` records. Two encodings share the
//! logical schema:
//!
//! * **binary** — magic `PFTL`, `u32` version, length-prefixed source name,
//!   then one length-prefixed 88-byte record per sample (`time:u64`,
//!   `server:u32`, `vm:u32`, `seq:u64`, eight `f64` counters in
//!   [`VmCounters`] field order, all little-endian). The per-record length
//!   prefix lets old readers skip fields a future version appends.
//! * **JSONL** — a header object line, then one object per sample with the
//!   counters as an eight-element array. Floats are rendered with Rust's
//!   shortest round-trip `Display`, so decode(encode(x)) is exact.
//!
//! [`TelemetryReader::parse`] auto-detects the encoding from the first
//! byte and, in the pass that decodes the records, groups the samples
//! into the per-server replay streams of [`ServerStreams`]. Neither
//! encoder consults any ambient state, so identical sample streams
//! produce identical bytes.

use crate::source::Sample;
use perfcloud_host::{CounterSnapshot, VmCounters, VmId};
use perfcloud_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Magic bytes opening every recording (`PFTL`, "PerfCloud TeLemetry").
pub const RECORDING_MAGIC: &[u8; 4] = b"PFTL";

/// Current format version. Readers reject newer major versions.
pub const RECORDING_VERSION: u32 = 1;

/// Bytes in one binary record body (time + server + vm + seq + 8 counters).
const RECORD_LEN: usize = 8 + 4 + 4 + 8 + 8 * 8;

/// Which encoding a writer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordingFormat {
    /// Compact length-prefixed little-endian binary.
    #[default]
    Binary,
    /// One JSON object per line; self-describing and diffable.
    Jsonl,
}

/// A decoded recording: header fields plus every sample, grouped into
/// one replay stream per server.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecording {
    /// Format version the stream was written with.
    pub version: u32,
    /// Name of the source that produced the samples (`"sim"`, `"replay"`).
    pub source: String,
    /// The samples, one stream per server.
    pub samples: ServerStreams,
}

/// The samples of a recording, stored once, as one stream per server.
///
/// Each stream holds that server's records in recording order, stably
/// sorted by `(time, vm, seq)`: the order a replay delivers them in. The
/// streams are shared (`Arc`), so every [`ReplaySource`] built from a
/// recording, and every clone of one, reads the same storage.
///
/// [`ReplaySource`]: crate::ReplaySource
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStreams {
    /// `(server, stream)` pairs in ascending server order. Every stream
    /// holds at least one sample.
    streams: Vec<(u32, Arc<Vec<Sample>>)>,
}

impl ServerStreams {
    /// Total samples in the recording.
    pub fn len(&self) -> usize {
        self.streams.iter().map(|(_, s)| s.len()).sum()
    }

    /// True when the recording holds no sample.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// The replay stream of `server`, or `None` when the recording holds
    /// no sample of it.
    pub fn get(&self, server: u32) -> Option<&Arc<Vec<Sample>>> {
        let i = self.streams.binary_search_by_key(&server, |(id, _)| *id).ok()?;
        Some(&self.streams[i].1)
    }
}

/// The order a replay delivers a server's samples in.
fn replay_order(s: &Sample) -> (SimTime, VmId, u64) {
    (s.time, s.vm, s.seq)
}

/// One server's stream while a recording is decoded.
struct PendingStream {
    server: u32,
    samples: Vec<Sample>,
    /// Whether `samples` is in replay order so far.
    sorted: bool,
}

/// Groups samples into per-server streams as they are decoded.
#[derive(Default)]
struct StreamsBuilder {
    /// Streams in ascending server order.
    streams: Vec<PendingStream>,
    /// Index of the stream the previous sample went to. A tee writes each
    /// server's samples of an instant together, so this is nearly always
    /// the next one's too.
    last: usize,
}

impl StreamsBuilder {
    #[inline]
    fn push(&mut self, server: u32, sample: Sample) {
        if self.streams.get(self.last).is_none_or(|s| s.server != server) {
            self.last = self.find_or_insert(server);
        }
        let stream = &mut self.streams[self.last];
        let samples = &mut stream.samples;
        if let Some(prev) = samples.last() {
            stream.sorted &= replay_order(prev) <= replay_order(&sample);
        }
        samples.push(sample);
    }

    #[cold]
    fn find_or_insert(&mut self, server: u32) -> usize {
        self.streams.binary_search_by_key(&server, |s| s.server).unwrap_or_else(|i| {
            self.streams.insert(i, PendingStream { server, samples: Vec::new(), sorted: true });
            i
        })
    }

    /// A builder with one stream per server of `records`, the record
    /// section of a binary recording, each sized to exactly its record
    /// count. The counting pass reads only each record's length prefix and
    /// server field. It stops at the first malformed record, which the
    /// decoding pass then reports.
    ///
    /// While records have this version's length, their offsets follow from
    /// their index, so the pass steps at a fixed stride instead of chasing
    /// each length prefix; the first other length hands the rest to the
    /// prefix-chasing loop. A tee writes a server's samples of an instant
    /// together, so servers are tallied a run at a time.
    fn sized_for(mut records: &[u8]) -> Self {
        let mut counts = BTreeMap::<u32, usize>::new();
        let mut run = (0, 0);
        let mut tally = |server: u32| {
            if run.1 > 0 && run.0 != server {
                *counts.entry(run.0).or_default() += run.1;
                run.1 = 0;
            }
            run = (server, run.1 + 1);
        };
        let known = (RECORD_LEN as u32).to_le_bytes();
        let mut fixed = 0;
        for r in records.chunks_exact(4 + RECORD_LEN).take_while(|r| r[..4] == known) {
            tally(u32::from_le_bytes(r[12..16].try_into().expect("4-byte field")));
            fixed += r.len();
        }
        records = &records[fixed..];
        while let Some((len, rest)) = records.split_first_chunk::<4>() {
            let len = u32::from_le_bytes(*len) as usize;
            if len < RECORD_LEN || rest.len() < len {
                break;
            }
            tally(u32::from_le_bytes(rest[8..12].try_into().expect("4-byte field")));
            records = &rest[len..];
        }
        if run.1 > 0 {
            *counts.entry(run.0).or_default() += run.1;
        }
        let streams = counts
            .into_iter()
            .map(|(server, n)| PendingStream {
                server,
                samples: Vec::with_capacity(n),
                sorted: true,
            })
            .collect();
        StreamsBuilder { streams, last: 0 }
    }

    /// Puts every stream in replay order. A tee appends in that order
    /// already, so a stream is sorted (stably) only if it is not.
    fn finish(self) -> ServerStreams {
        let streams = self
            .streams
            .into_iter()
            .map(|PendingStream { server, mut samples, sorted }| {
                if !sorted {
                    samples.sort_by_key(replay_order);
                }
                (server, Arc::new(samples))
            })
            .collect();
        ServerStreams { streams }
    }
}

/// Accumulates teed samples and serializes them on demand.
///
/// The writer buffers decoded records rather than bytes so it can be
/// cloned cheaply enough for experiment forking and serialized once at the
/// end of a run.
#[derive(Debug, Clone)]
pub struct TelemetryWriter {
    format: RecordingFormat,
    source: String,
    /// `(server, sample)` records in append order.
    samples: Vec<(u32, Sample)>,
}

impl TelemetryWriter {
    /// Creates a writer for the given encoding and source name.
    pub fn new(format: RecordingFormat, source: &str) -> Self {
        TelemetryWriter { format, source: source.to_string(), samples: Vec::new() }
    }

    /// Appends one sample collected on `server`.
    pub fn append(&mut self, server: u32, sample: &Sample) {
        self.samples.push((server, *sample));
    }

    /// Number of samples appended so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recording accumulated so far, without consuming the writer.
    pub fn recording(&self) -> TelemetryRecording {
        let mut streams = StreamsBuilder::default();
        for &(server, sample) in &self.samples {
            streams.push(server, sample);
        }
        TelemetryRecording {
            version: RECORDING_VERSION,
            source: self.source.clone(),
            samples: streams.finish(),
        }
    }

    /// Serializes the recording and consumes the writer.
    pub fn finish(self) -> Vec<u8> {
        match self.format {
            RecordingFormat::Binary => encode_binary(&self.source, &self.samples),
            RecordingFormat::Jsonl => encode_jsonl(&self.source, &self.samples).into_bytes(),
        }
    }
}

fn counters_array(c: &VmCounters) -> [f64; 8] {
    [
        c.io_serviced,
        c.io_service_bytes,
        c.io_wait_time,
        c.cpu_time,
        c.cycles,
        c.instructions,
        c.llc_references,
        c.llc_misses,
    ]
}

fn counters_from_array(a: [f64; 8]) -> VmCounters {
    VmCounters {
        io_serviced: a[0],
        io_service_bytes: a[1],
        io_wait_time: a[2],
        cpu_time: a[3],
        cycles: a[4],
        instructions: a[5],
        llc_references: a[6],
        llc_misses: a[7],
    }
}

fn encode_binary(source: &str, samples: &[(u32, Sample)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + source.len() + samples.len() * (4 + RECORD_LEN));
    out.extend_from_slice(RECORDING_MAGIC);
    out.extend_from_slice(&RECORDING_VERSION.to_le_bytes());
    out.extend_from_slice(&(source.len() as u32).to_le_bytes());
    out.extend_from_slice(source.as_bytes());
    for (server, sample) in samples {
        out.extend_from_slice(&(RECORD_LEN as u32).to_le_bytes());
        out.extend_from_slice(&sample.time.as_micros().to_le_bytes());
        out.extend_from_slice(&server.to_le_bytes());
        out.extend_from_slice(&sample.vm.0.to_le_bytes());
        out.extend_from_slice(&sample.seq.to_le_bytes());
        for v in counters_array(&sample.snapshot.counters) {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    out
}

fn encode_jsonl(source: &str, samples: &[(u32, Sample)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"magic\":\"PFTL\",\"version\":{RECORDING_VERSION},\"source\":\"{source}\"}}"
    );
    for (server, sample) in samples {
        let _ = write!(
            out,
            "{{\"t\":{},\"server\":{server},\"vm\":{},\"seq\":{},\"c\":[",
            sample.time.as_micros(),
            sample.vm.0,
            sample.seq
        );
        for (i, v) in counters_array(&sample.snapshot.counters).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("]}\n");
    }
    out
}

/// Decodes recordings written by [`TelemetryWriter`].
pub struct TelemetryReader;

impl TelemetryReader {
    /// Parses a recording, auto-detecting binary (`PFTL` magic) vs JSONL
    /// (leading `{`), into one replay stream per server. Returns a
    /// description of the first malformation encountered on bad input.
    pub fn parse(bytes: &[u8]) -> Result<TelemetryRecording, String> {
        match bytes.first() {
            Some(b'P') => decode_binary(bytes),
            Some(b'{') => decode_jsonl(std::str::from_utf8(bytes).map_err(|e| e.to_string())?),
            Some(b) => Err(format!("unrecognized recording leader byte 0x{b:02x}")),
            None => Err("empty recording".to_string()),
        }
    }
}

fn take<'a>(bytes: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], String> {
    if bytes.len() < n {
        return Err(format!("truncated recording: {what}"));
    }
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    Ok(head)
}

fn take_u32(bytes: &mut &[u8], what: &str) -> Result<u32, String> {
    Ok(u32::from_le_bytes(take(bytes, 4, what)?.try_into().unwrap()))
}

fn decode_binary(mut bytes: &[u8]) -> Result<TelemetryRecording, String> {
    let magic = take(&mut bytes, 4, "magic")?;
    if magic != RECORDING_MAGIC {
        return Err("bad magic (expected PFTL)".to_string());
    }
    let version = take_u32(&mut bytes, "version")?;
    if version > RECORDING_VERSION {
        return Err(format!("unsupported recording version {version}"));
    }
    let name_len = take_u32(&mut bytes, "source-name length")? as usize;
    let source = String::from_utf8(take(&mut bytes, name_len, "source name")?.to_vec())
        .map_err(|e| e.to_string())?;
    let mut streams = StreamsBuilder::sized_for(bytes);
    while !bytes.is_empty() {
        let len = take_u32(&mut bytes, "record length")? as usize;
        if len < RECORD_LEN {
            return Err(format!("record too short: {len} bytes"));
        }
        // Anything past the known fields is a forward-compatible extension.
        let body = take(&mut bytes, len, "record body")?;
        let (server, sample) =
            decode_record(body[..RECORD_LEN].try_into().expect("length checked above"));
        streams.push(server, sample);
    }
    Ok(TelemetryRecording { version, source, samples: streams.finish() })
}

/// Decodes the known fields of one binary record, at their fixed offsets:
/// the server and the sample.
#[inline]
fn decode_record(r: &[u8; RECORD_LEN]) -> (u32, Sample) {
    let u32_at = |at: usize| u32::from_le_bytes(r[at..at + 4].try_into().expect("4-byte field"));
    let u64_at = |at: usize| u64::from_le_bytes(r[at..at + 8].try_into().expect("8-byte field"));
    let counters = counters_from_array(std::array::from_fn(|i| f64::from_bits(u64_at(24 + 8 * i))));
    let sample = Sample {
        time: SimTime::from_micros(u64_at(0)),
        vm: VmId(u32_at(12)),
        seq: u64_at(16),
        snapshot: CounterSnapshot { counters },
    };
    (u32_at(8), sample)
}

/// Extracts the number following `"key":` in a single JSON object line.
fn json_field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat).ok_or_else(|| format!("missing field {key}"))? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', ']']).ok_or_else(|| format!("unterminated field {key}"))?;
    Ok(rest[..end].trim().trim_matches('"'))
}

fn decode_jsonl(text: &str) -> Result<TelemetryRecording, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty recording")?;
    if json_field(header, "magic")? != "PFTL" {
        return Err("bad magic (expected PFTL)".to_string());
    }
    let version: u32 = json_field(header, "version")?.parse().map_err(|_| "bad version")?;
    if version > RECORDING_VERSION {
        return Err(format!("unsupported recording version {version}"));
    }
    let source = json_field(header, "source")?.to_string();
    let mut streams = StreamsBuilder::default();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let time = SimTime::from_micros(json_field(line, "t")?.parse().map_err(|_| "bad time")?);
        let server: u32 = json_field(line, "server")?.parse().map_err(|_| "bad server")?;
        let vm = VmId(json_field(line, "vm")?.parse().map_err(|_| "bad vm")?);
        let seq: u64 = json_field(line, "seq")?.parse().map_err(|_| "bad seq")?;
        let open = line.find("\"c\":[").ok_or("missing counters")? + 5;
        let close = line[open..].find(']').ok_or("unterminated counters")? + open;
        let mut c = [0.0f64; 8];
        let mut n = 0;
        for (i, tok) in line[open..close].split(',').enumerate() {
            if i >= 8 {
                return Err("too many counters".to_string());
            }
            c[i] = tok.trim().parse().map_err(|_| format!("bad counter {tok:?}"))?;
            n = i + 1;
        }
        if n != 8 {
            return Err(format!("expected 8 counters, got {n}"));
        }
        let snapshot = CounterSnapshot { counters: counters_from_array(c) };
        streams.push(server, Sample { time, vm, seq, snapshot });
    }
    Ok(TelemetryRecording { version, source, samples: streams.finish() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64, vm: u32, seq: u64, base: f64) -> Sample {
        let counters = counters_from_array([
            base,
            base * 512.0,
            base / 100.0,
            base / 50.0,
            base * 1e7,
            base * 0.9e7,
            base * 1e4,
            base * 300.7,
        ]);
        Sample {
            time: SimTime::from_micros(t),
            vm: VmId(vm),
            seq,
            snapshot: CounterSnapshot { counters },
        }
    }

    fn roundtrip(format: RecordingFormat) {
        let mut w = TelemetryWriter::new(format, "sim");
        w.append(0, &sample(1_000_000, 3, 0, 17.25));
        w.append(1, &sample(1_000_000, 9, 1, 0.1));
        w.append(0, &sample(2_000_000, 3, 2, 1e12 + 0.5));
        assert_eq!(w.len(), 3);
        let bytes = w.finish();
        let rec = TelemetryReader::parse(&bytes).expect("parse");
        assert_eq!(rec.version, RECORDING_VERSION);
        assert_eq!(rec.source, "sim");
        assert_eq!(rec.samples.len(), 3);
        assert_eq!(
            **rec.samples.get(0).unwrap(),
            [sample(1_000_000, 3, 0, 17.25), sample(2_000_000, 3, 2, 1e12 + 0.5)]
        );
        assert_eq!(**rec.samples.get(1).unwrap(), [sample(1_000_000, 9, 1, 0.1)]);
        assert!(rec.samples.get(2).is_none());
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        roundtrip(RecordingFormat::Binary);
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        roundtrip(RecordingFormat::Jsonl);
    }

    #[test]
    fn encoders_are_deterministic() {
        for format in [RecordingFormat::Binary, RecordingFormat::Jsonl] {
            let build = || {
                let mut w = TelemetryWriter::new(format, "sim");
                w.append(0, &sample(5, 1, 0, 2.5));
                w.finish()
            };
            assert_eq!(build(), build());
        }
    }

    #[test]
    fn truncated_and_corrupt_inputs_are_rejected() {
        let mut w = TelemetryWriter::new(RecordingFormat::Binary, "sim");
        w.append(0, &sample(5, 1, 0, 2.5));
        let bytes = w.finish();
        let err = |b: &[u8]| TelemetryReader::parse(b).unwrap_err();
        assert_eq!(err(&bytes[..bytes.len() - 3]), "truncated recording: record body");
        assert_eq!(
            err(&bytes[..bytes.len() - RECORD_LEN - 2]),
            "truncated recording: record length"
        );
        let mut short = bytes.clone();
        let header_len = 4 + 4 + 4 + 3;
        short[header_len..header_len + 4].copy_from_slice(&(RECORD_LEN as u32 - 1).to_le_bytes());
        assert_eq!(err(&short), format!("record too short: {} bytes", RECORD_LEN - 1));
        assert!(TelemetryReader::parse(b"XXXX").is_err());
        assert!(TelemetryReader::parse(b"").is_err());
        assert!(
            TelemetryReader::parse(b"{\"magic\":\"NOPE\",\"version\":1,\"source\":\"x\"}").is_err()
        );
    }

    #[test]
    fn server_major_recordings_are_not_over_allocated() {
        // Per-host recordings concatenated: each server's samples in one
        // run. No stream may hold more than plain doubling leaves spare.
        for format in [RecordingFormat::Binary, RecordingFormat::Jsonl] {
            let mut w = TelemetryWriter::new(format, "sim");
            for server in 0..4 {
                for t in 0..5_000 {
                    w.append(server, &sample(t, 1, t, 2.5));
                }
            }
            let rec = TelemetryReader::parse(&w.finish()).expect("parse");
            for server in 0..4 {
                let stream = rec.samples.get(server).unwrap();
                assert_eq!(stream.len(), 5_000);
                assert!(
                    stream.capacity() <= 2 * stream.len(),
                    "server {server}: {}",
                    stream.capacity()
                );
            }
        }
    }

    #[test]
    fn newer_version_is_rejected() {
        let mut w = TelemetryWriter::new(RecordingFormat::Binary, "sim");
        w.append(0, &sample(5, 1, 0, 2.5));
        let mut bytes = w.finish();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = TelemetryReader::parse(&bytes).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn longer_records_are_forward_compatible() {
        // A future writer may append fields to each record; the length
        // prefix lets this reader skip them.
        let mut w = TelemetryWriter::new(RecordingFormat::Binary, "sim");
        w.append(2, &sample(5, 1, 0, 2.5));
        let bytes = w.finish();
        let header_len = 4 + 4 + 4 + 3;
        let mut extended = bytes[..header_len].to_vec();
        extended.extend_from_slice(&((RECORD_LEN + 8) as u32).to_le_bytes());
        extended.extend_from_slice(&bytes[header_len + 4..]);
        extended.extend_from_slice(&0xdead_beefu64.to_le_bytes());
        let rec = TelemetryReader::parse(&extended).expect("extended record parses");
        assert_eq!(rec.samples.len(), 1);
        assert_eq!(**rec.samples.get(2).unwrap(), [sample(5, 1, 0, 2.5)]);
    }

    #[test]
    fn mixed_record_lengths_are_counted_exactly() {
        // Runs of this version's records around one extended record: the
        // counting pass leaves its fixed stride at the extension and must
        // still size every stream to exactly its samples.
        let header_len = 4 + 4 + 4 + 3;
        let record = |server: u32, s: &Sample, extra: usize| {
            let mut w = TelemetryWriter::new(RecordingFormat::Binary, "sim");
            w.append(server, s);
            let bytes = w.finish();
            let mut r = ((RECORD_LEN + extra) as u32).to_le_bytes().to_vec();
            r.extend_from_slice(&bytes[header_len + 4..]);
            r.resize(4 + RECORD_LEN + extra, 0xab);
            r
        };
        let mut w = TelemetryWriter::new(RecordingFormat::Binary, "sim");
        w.append(0, &sample(1, 1, 0, 1.0));
        let mut bytes = w.finish()[..header_len].to_vec();
        let mut want: [Vec<Sample>; 2] = Default::default();
        for t in 0..40u64 {
            let server = (t / 3 % 2) as u32;
            let s = sample(t, 1, t, 1.0 + t as f64);
            bytes.extend(record(server, &s, if t == 17 { 16 } else { 0 }));
            want[server as usize].push(s);
        }
        let rec = TelemetryReader::parse(&bytes).expect("parse");
        for (server, want) in want.iter().enumerate() {
            let stream = rec.samples.get(server as u32).expect("stream");
            assert_eq!(**stream, *want);
            assert_eq!(stream.capacity(), want.len(), "server {server}");
        }
    }
}
