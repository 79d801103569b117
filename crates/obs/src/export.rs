//! Trace export: Chrome-trace-event JSON (Perfetto-loadable) and JSONL.
//!
//! Both emitters are pure functions of the recorded events: sources are
//! merged in `(time, source rank, sequence)` order, timestamps are sim
//! microseconds, and no wall-clock or thread-dependent state is
//! consulted, so the output bytes are identical for identical runs.
//!
//! The Chrome format puts every source on its own named track (one
//! `thread_name` metadata event per source). Ordinary events render as
//! instant events (`"ph":"i"`); CUBIC cap updates additionally render as
//! counter events (`"ph":"C"`) so Perfetto draws the cap trajectory of
//! each throttled VM as a stepped line.

use crate::flight::{FlightEvent, FlightRecorder, Record};
use crate::metrics::MetricsRegistry;
use std::fmt::Write as _;

/// One track in an exported trace: a display name, a stable rank used to
/// break timestamp ties deterministically, and the retained events.
#[derive(Debug)]
pub struct ExportSource {
    /// Track name shown in the viewer (e.g. `server0`, `ctrl`).
    pub name: String,
    /// Tie-break rank; also the Chrome `tid`. Must be unique per source.
    pub rank: u32,
    /// Retained events, oldest first.
    pub records: Vec<Record>,
}

impl ExportSource {
    /// Snapshots a recorder into an export source.
    pub fn from_recorder(rank: u32, name: &str, recorder: &FlightRecorder) -> Self {
        ExportSource { name: name.to_string(), rank, records: recorder.iter().copied().collect() }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Merges sources into one deterministic `(t, rank, seq)`-ordered list of
/// `(rank index, record)` pairs.
fn merge(sources: &[ExportSource]) -> Vec<(usize, Record)> {
    let mut all: Vec<(usize, Record)> = Vec::new();
    for (i, src) in sources.iter().enumerate() {
        all.extend(src.records.iter().map(|r| (i, *r)));
    }
    all.sort_by_key(|&(i, r)| (r.t, sources[i].rank, r.seq));
    all
}

/// Renders a finite f64 compactly; non-finite values become 0 (JSON has
/// no NaN/Inf literals).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Decoded text of the newest `n` merged events, one per line prefixed
/// with its track name — what golden-trace failures dump.
pub fn merged_dump(sources: &[ExportSource], n: usize) -> String {
    let all = merge(sources);
    let skip = all.len().saturating_sub(n);
    let mut out = String::new();
    for &(i, ref rec) in all.iter().skip(skip) {
        let _ = writeln!(out, "[{}] {}", sources[i].name, rec);
    }
    out
}

/// Renders sources as Chrome-trace-event JSON (the `traceEvents` object
/// form), loadable in Perfetto / `chrome://tracing`.
pub fn chrome_trace(sources: &[ExportSource]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, line: &str, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };

    let mut by_rank: Vec<&ExportSource> = sources.iter().collect();
    by_rank.sort_by_key(|s| s.rank);
    for src in &by_rank {
        let mut name = String::new();
        escape(&src.name, &mut name);
        let line = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            src.rank, name
        );
        push(&mut out, &line, &mut first);
    }

    for (i, rec) in merge(sources) {
        let tid = sources[i].rank;
        let mut name = String::new();
        escape(&rec.event.to_string(), &mut name);
        let line = format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{}}}",
            name, tid, rec.t
        );
        push(&mut out, &line, &mut first);
        if let FlightEvent::CapUpdate { server, vm, resource, level } = rec.event {
            let line = format!(
                "{{\"name\":\"cap s{} vm{} {}\",\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\
                 \"args\":{{\"level\":{}}}}}",
                server,
                vm,
                resource,
                tid,
                rec.t,
                json_num(level)
            );
            push(&mut out, &line, &mut first);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders a registry in the Prometheus text exposition format.
///
/// Deterministic: metrics are emitted sorted by name with a `# TYPE` line
/// each, and values use the same shortest-round-trip `Display` as the
/// decision trace, so identical registries produce identical bytes.
/// Counters keep their registered type; gauges and flattened histogram
/// statistics (`_count`, `_min`, `_max`, `_mean`, `_p50`, `_p99`) are
/// exposed as gauges, matching how `metrics_snapshot()` consumers already
/// interpret them.
pub fn prometheus_text(reg: &MetricsRegistry) -> String {
    let mut entries: Vec<(String, String, f64)> = Vec::new();
    for (name, v) in reg.counters() {
        entries.push((name.to_string(), "counter".to_string(), v as f64));
    }
    for (name, v) in reg.gauges() {
        entries.push((name.to_string(), "gauge".to_string(), v as f64));
    }
    for (name, v) in reg.histogram_stats() {
        entries.push((name, "gauge".to_string(), v));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    for (name, kind, value) in entries {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {}", json_num(value));
    }
    out
}

/// Renders sources as JSONL: one JSON object per event, merged in
/// deterministic order.
pub fn jsonl(sources: &[ExportSource]) -> String {
    let mut out = String::new();
    for (i, rec) in merge(sources) {
        let mut track = String::new();
        escape(&sources[i].name, &mut track);
        let mut event = String::new();
        escape(&rec.event.to_string(), &mut event);
        let _ = writeln!(
            out,
            "{{\"ts\":{},\"track\":\"{}\",\"seq\":{},\"event\":\"{}\"}}",
            rec.t, track, rec.seq, event
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::Resource;

    fn sample_sources() -> Vec<ExportSource> {
        let mut a = FlightRecorder::with_capacity(8);
        a.record(10, FlightEvent::DetectOnset { server: 0, io: true, cpu: false });
        a.record(
            30,
            FlightEvent::CapUpdate { server: 0, vm: 7, resource: Resource::Io, level: 0.25 },
        );
        let mut b = FlightRecorder::with_capacity(8);
        b.record(20, FlightEvent::Election { replica: 1, round: 2 });
        b.record(10, FlightEvent::ReplicaDown { replica: 0 });
        vec![
            ExportSource::from_recorder(0, "server0", &a),
            ExportSource::from_recorder(1, "ctrl", &b),
        ]
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_ordered() {
        let json = chrome_trace(&sample_sources());
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("]}\n"));
        // Track metadata present for both sources.
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"server0\""));
        assert!(json.contains("\"ctrl\""));
        // Cap update also emits a counter event.
        assert!(json.contains("\"ph\":\"C\""));
        // Merge order: t=10 rank0 before t=10 rank1 before t=20 before t=30.
        let i_detect = json.find("detect-onset").unwrap();
        let i_down = json.find("down m0").unwrap();
        let i_elect = json.find("elect m1").unwrap();
        let i_cap = json.find("cap s0 vm7").unwrap();
        assert!(i_detect < i_down && i_down < i_elect && i_elect < i_cap);
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let text = jsonl(&sample_sources());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in lines {
            assert!(line.starts_with("{\"ts\":"));
            assert!(line.ends_with("\"}"));
        }
    }

    #[test]
    fn migration_events_render_in_both_exports() {
        let mut fr = FlightRecorder::with_capacity(8);
        fr.record(100, FlightEvent::MigrationStart { vm: 12, from: 0, to: 1 });
        fr.record(900, FlightEvent::MigrationStopCopy { vm: 12, from: 0, to: 1 });
        fr.record(950, FlightEvent::MigrationComplete { vm: 12, from: 0, to: 1 });
        let sources = vec![ExportSource::from_recorder(0, "ctrl", &fr)];
        let json = chrome_trace(&sources);
        for needle in [
            "migrate-start vm12 s0->s1",
            "migrate-stopcopy vm12 s0->s1",
            "migrate-done vm12 s0->s1",
        ] {
            assert!(json.contains(needle), "chrome trace missing {needle}");
            assert!(jsonl(&sources).contains(needle), "jsonl missing {needle}");
        }
        let i_start = json.find("migrate-start").unwrap();
        let i_stop = json.find("migrate-stopcopy").unwrap();
        let i_done = json.find("migrate-done").unwrap();
        assert!(i_start < i_stop && i_stop < i_done);
    }

    #[test]
    fn telemetry_events_render_in_both_exports() {
        let mut fr = FlightRecorder::with_capacity(8);
        fr.record(100, FlightEvent::FlushBatch { server: 0, count: 12 });
        fr.record(100, FlightEvent::SampleIngested { server: 0, vm: 3 });
        let sources = vec![ExportSource::from_recorder(0, "server0", &fr)];
        let json = chrome_trace(&sources);
        for needle in ["flush s0 n=12", "sample-ingest s0 vm3"] {
            assert!(json.contains(needle), "chrome trace missing {needle}");
            assert!(jsonl(&sources).contains(needle), "jsonl missing {needle}");
        }
    }

    #[test]
    fn prometheus_text_is_byte_stable() {
        let build = || {
            let mut m = MetricsRegistry::with_capacity(8);
            let c = m.counter("ingest_recorded");
            let c2 = m.counter("telemetry_teed_samples");
            let g = m.gauge("replicas");
            let h = m.histogram("flush_batch");
            m.inc(c, 41);
            m.inc(c2, 7);
            m.set(g, 4);
            m.observe(h, 12);
            m.observe(h, 12);
            m
        };
        let text = prometheus_text(&build());
        assert_eq!(
            text,
            "# TYPE flush_batch_count gauge\n\
             flush_batch_count 2\n\
             # TYPE flush_batch_max gauge\n\
             flush_batch_max 12\n\
             # TYPE flush_batch_mean gauge\n\
             flush_batch_mean 12\n\
             # TYPE flush_batch_min gauge\n\
             flush_batch_min 12\n\
             # TYPE flush_batch_p50 gauge\n\
             flush_batch_p50 13\n\
             # TYPE flush_batch_p99 gauge\n\
             flush_batch_p99 13\n\
             # TYPE ingest_recorded counter\n\
             ingest_recorded 41\n\
             # TYPE replicas gauge\n\
             replicas 4\n\
             # TYPE telemetry_teed_samples counter\n\
             telemetry_teed_samples 7\n"
        );
        assert_eq!(text, prometheus_text(&build()), "byte-stable across builds");
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace(&sample_sources());
        let b = chrome_trace(&sample_sources());
        assert_eq!(a, b);
        assert_eq!(jsonl(&sample_sources()), jsonl(&sample_sources()));
    }
}
