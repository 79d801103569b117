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
//! byte. Neither encoder consults any ambient state, so identical sample
//! streams produce identical bytes.

use crate::source::Sample;
use perfcloud_host::{CounterSnapshot, VmCounters, VmId};
use perfcloud_sim::SimTime;
use std::fmt::Write as _;

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

/// One recorded sample, tagged with the server it was collected on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedSample {
    /// Server (node manager) the sample belongs to.
    pub server: u32,
    /// The sample itself.
    pub sample: Sample,
}

/// A decoded recording: header fields plus all samples in stream order.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecording {
    /// Format version the stream was written with.
    pub version: u32,
    /// Name of the source that produced the samples (`"sim"`, `"replay"`).
    pub source: String,
    /// Samples in the order they were appended.
    pub samples: Vec<RecordedSample>,
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
    samples: Vec<RecordedSample>,
}

impl TelemetryWriter {
    /// Creates a writer for the given encoding and source name.
    pub fn new(format: RecordingFormat, source: &str) -> Self {
        TelemetryWriter { format, source: source.to_string(), samples: Vec::new() }
    }

    /// Appends one sample collected on `server`.
    pub fn append(&mut self, server: u32, sample: &Sample) {
        self.samples.push(RecordedSample { server, sample: *sample });
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
        TelemetryRecording {
            version: RECORDING_VERSION,
            source: self.source.clone(),
            samples: self.samples.clone(),
        }
    }

    /// Serializes the recording and consumes the writer.
    pub fn finish(self) -> Vec<u8> {
        let rec = TelemetryRecording {
            version: RECORDING_VERSION,
            source: self.source,
            samples: self.samples,
        };
        match self.format {
            RecordingFormat::Binary => encode_binary(&rec),
            RecordingFormat::Jsonl => encode_jsonl(&rec).into_bytes(),
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

fn encode_binary(rec: &TelemetryRecording) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + rec.source.len() + rec.samples.len() * (4 + RECORD_LEN));
    out.extend_from_slice(RECORDING_MAGIC);
    out.extend_from_slice(&rec.version.to_le_bytes());
    out.extend_from_slice(&(rec.source.len() as u32).to_le_bytes());
    out.extend_from_slice(rec.source.as_bytes());
    for r in &rec.samples {
        out.extend_from_slice(&(RECORD_LEN as u32).to_le_bytes());
        out.extend_from_slice(&r.sample.time.as_micros().to_le_bytes());
        out.extend_from_slice(&r.server.to_le_bytes());
        out.extend_from_slice(&r.sample.vm.0.to_le_bytes());
        out.extend_from_slice(&r.sample.seq.to_le_bytes());
        for v in counters_array(&r.sample.snapshot.counters) {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    out
}

fn encode_jsonl(rec: &TelemetryRecording) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"magic\":\"PFTL\",\"version\":{},\"source\":\"{}\"}}",
        rec.version, rec.source
    );
    for r in &rec.samples {
        let _ = write!(
            out,
            "{{\"t\":{},\"server\":{},\"vm\":{},\"seq\":{},\"c\":[",
            r.sample.time.as_micros(),
            r.server,
            r.sample.vm.0,
            r.sample.seq
        );
        for (i, v) in counters_array(&r.sample.snapshot.counters).iter().enumerate() {
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
    /// (leading `{`). Returns a description of the first malformation
    /// encountered on bad input.
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

fn take_u64(bytes: &mut &[u8], what: &str) -> Result<u64, String> {
    Ok(u64::from_le_bytes(take(bytes, 8, what)?.try_into().unwrap()))
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
    let mut samples = Vec::new();
    while !bytes.is_empty() {
        let len = take_u32(&mut bytes, "record length")? as usize;
        if len < RECORD_LEN {
            return Err(format!("record too short: {len} bytes"));
        }
        let mut body = take(&mut bytes, len, "record body")?;
        let time = SimTime::from_micros(take_u64(&mut body, "time")?);
        let server = take_u32(&mut body, "server")?;
        let vm = VmId(take_u32(&mut body, "vm")?);
        let seq = take_u64(&mut body, "seq")?;
        let mut c = [0.0f64; 8];
        for slot in &mut c {
            *slot = f64::from_bits(take_u64(&mut body, "counter")?);
        }
        // Anything past the known fields is a forward-compatible extension.
        let snapshot = CounterSnapshot { counters: counters_from_array(c) };
        samples.push(RecordedSample { server, sample: Sample { time, vm, seq, snapshot } });
    }
    Ok(TelemetryRecording { version, source, samples })
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
    let mut samples = Vec::new();
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
        samples.push(RecordedSample { server, sample: Sample { time, vm, seq, snapshot } });
    }
    Ok(TelemetryRecording { version, source, samples })
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
        assert_eq!(rec.samples[0].sample, sample(1_000_000, 3, 0, 17.25));
        assert_eq!(rec.samples[1].server, 1);
        assert_eq!(rec.samples[2].sample, sample(2_000_000, 3, 2, 1e12 + 0.5));
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
        assert!(TelemetryReader::parse(&bytes[..bytes.len() - 3]).is_err());
        assert!(TelemetryReader::parse(b"XXXX").is_err());
        assert!(TelemetryReader::parse(b"").is_err());
        assert!(
            TelemetryReader::parse(b"{\"magic\":\"NOPE\",\"version\":1,\"source\":\"x\"}").is_err()
        );
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
        assert_eq!(rec.samples[0].server, 2);
        assert_eq!(rec.samples[0].sample, sample(5, 1, 0, 2.5));
    }
}
