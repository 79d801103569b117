//! Property: record/replay is lossless for arbitrary runs.
//!
//! For *arbitrary* seeds, fault schedules, and recording formats — not just
//! the golden scenarios — teeing a run's counter stream and replaying the
//! serialized recording through a fresh build of the same experiment must
//! reproduce the [`ExperimentResult`], the canonical decision-trace bytes,
//! and the JSONL flight export exactly. Faults are evaluated from each
//! sample's own timestamp against a stateless injector, so the recording
//! (which tees *pre-fault* samples) replays faulted runs byte-identically.

use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
    TelemetrySpec,
};
use perfcloud_core::PerfCloudConfig;
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::{FaultKind, FaultRule, FaultScenario, SimTime};
use perfcloud_telemetry::{RecordingFormat, TelemetryReader, TelemetryRecording};
use proptest::prelude::*;
use std::sync::Arc;

/// One fuzzed fault rule: (kind tag, window start, window length, firing
/// probability). Times are in seconds, offset into the run.
type RuleSpec = (u8, u16, u16, f64);

fn decode_kind(tag: u8) -> FaultKind {
    match tag % 8 {
        0 => FaultKind::DropSample,
        1 => FaultKind::DelaySample { intervals: 1 + u32::from(tag) % 3 },
        2 => FaultKind::DuplicateSample,
        3 => FaultKind::CorruptNaN,
        4 => FaultKind::CorruptSpike { factor: 30.0 },
        5 => FaultKind::CorruptStuckAt,
        6 => FaultKind::StallManager { intervals: 2 },
        _ => FaultKind::CrashRestart,
    }
}

fn scenario(rules: &[RuleSpec]) -> Option<FaultScenario> {
    if rules.is_empty() {
        return None;
    }
    let mut s = FaultScenario::named("replay-roundtrip");
    for (i, &(tag, start, len, prob)) in rules.iter().enumerate() {
        let from = 10 + u64::from(start);
        let until = from + 5 + u64::from(len);
        s = s.rule(
            FaultRule::new(format!("r{i}"), decode_kind(tag))
                .window(SimTime::from_secs(from), SimTime::from_secs(until))
                .with_probability(prob),
        );
    }
    Some(s)
}

fn build(seed: u64, rules: &[RuleSpec], telemetry: TelemetrySpec) -> Experiment {
    let mut cfg = ExperimentConfig::new(
        ClusterSpec::small_scale(seed),
        Mitigation::PerfCloud(PerfCloudConfig::default()),
    );
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(8)));
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(15)),
    );
    cfg.max_sim_time = SimTime::from_secs(3_600);
    cfg.faults = scenario(rules);
    cfg.telemetry = telemetry;
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    e.enable_observability(1024);
    e
}

fn record(seed: u64, rules: &[RuleSpec], format: RecordingFormat) -> Run {
    let spec = TelemetrySpec { tee: Some(format), replay: None };
    finish(build(seed, rules, spec))
}

fn replay(seed: u64, rules: &[RuleSpec], rec: TelemetryRecording) -> Run {
    let spec = TelemetrySpec { tee: None, replay: Some(Arc::new(rec)) };
    finish(build(seed, rules, spec))
}

struct Run {
    result: perfcloud_cluster::ExperimentResult,
    trace: String,
    flight: String,
    recording: Option<Vec<u8>>,
}

fn finish(mut e: Experiment) -> Run {
    let result = e.run();
    Run {
        result,
        trace: e.decision_trace().expect("trace enabled").canonical(),
        flight: e.jsonl_trace(),
        recording: e.take_recording(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn replaying_a_recording_reproduces_the_run(
        seed in 0u64..1_000_000,
        rules in proptest::collection::vec((0u8..8, 0u16..120, 0u16..120, 0.05f64..0.9), 0..4),
        format_tag in 0u8..2,
    ) {
        let format =
            if format_tag == 0 { RecordingFormat::Binary } else { RecordingFormat::Jsonl };

        let reference = record(seed, &rules, format);
        let bytes = reference.recording.as_ref().expect("tee armed");

        // Replay: result, decision trace, and flight bytes must all
        // reproduce.
        let rec = TelemetryReader::parse(bytes).expect("own recording parses");
        prop_assert!(!rec.samples.is_empty());
        let replayed = replay(seed, &rules, rec);
        prop_assert_eq!(&reference.result, &replayed.result);
        prop_assert_eq!(&reference.trace, &replayed.trace);
        prop_assert_eq!(&reference.flight, &replayed.flight);
    }
}
