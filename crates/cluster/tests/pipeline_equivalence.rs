//! Property: the pipeline seam is wiring, not behaviour.
//!
//! Two invariants of the [`ExperimentConfig::pipeline`] plumbing, for
//! *arbitrary* seeds and fault schedules — not just the golden scenarios:
//!
//! 1. Spelling the default out loud changes nothing: a run with the
//!    implicit `PipelineSpec::default()` and a run with an explicit
//!    `PipelineSpec::paper()` produce the same [`ExperimentResult`] and the
//!    same canonical decision-trace bytes.
//! 2. The spec only applies under PerfCloud mitigation: under any other
//!    strategy the node managers are monitoring-only paper pipelines, so an
//!    exotic alioth/panda spec must leave those runs byte-identical too —
//!    an alternative detector must never leak into the baselines the
//!    figures compare against.
//!
//! Together with the per-step parity properties in
//! `perfcloud-core/tests/pipeline_parity.rs` and the byte-pinned golden
//! suite, this closes the refactor-equivalence argument at every level.

use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_core::{DetectorKind, IdentifierKind, PerfCloudConfig, PipelineSpec};
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::{FaultKind, FaultRule, FaultScenario, SimTime};
use proptest::prelude::*;

/// One fuzzed fault rule: (kind tag, window start, window length, firing
/// probability), as in the observability-purity suite.
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
    let mut s = FaultScenario::named("pipeline-equivalence");
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

fn run(
    seed: u64,
    rules: &[RuleSpec],
    mitigation: Mitigation,
    pipeline: PipelineSpec,
) -> (perfcloud_cluster::ExperimentResult, String) {
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(seed), mitigation);
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(8)));
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(15)),
    );
    cfg.max_sim_time = SimTime::from_secs(3_600);
    cfg.faults = scenario(rules);
    cfg.pipeline = pipeline;
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    let result = e.run();
    let trace = e.decision_trace().expect("trace enabled").canonical();
    (result, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn explicit_paper_spec_is_the_default(
        seed in 0u64..1_000_000,
        rules in proptest::collection::vec((0u8..8, 0u16..120, 0u16..120, 0.05f64..0.9), 0..4),
    ) {
        let mitigation = || Mitigation::PerfCloud(PerfCloudConfig::default());
        let implicit = run(seed, &rules, mitigation(), PipelineSpec::default());
        let explicit = run(seed, &rules, mitigation(), PipelineSpec::paper());
        prop_assert_eq!(&implicit.0, &explicit.0);
        prop_assert_eq!(implicit.1, explicit.1);
    }

    #[test]
    fn pipeline_spec_is_inert_outside_perfcloud(
        seed in 0u64..1_000_000,
        rules in proptest::collection::vec((0u8..8, 0u16..120, 0u16..120, 0.05f64..0.9), 0..4),
    ) {
        let exotic = PipelineSpec {
            detector: DetectorKind::Alioth,
            identifier: IdentifierKind::Panda,
        };
        let base = run(seed, &rules, Mitigation::Default, PipelineSpec::default());
        let with_spec = run(seed, &rules, Mitigation::Default, exotic);
        prop_assert_eq!(&base.0, &with_spec.0);
        prop_assert_eq!(base.1, with_spec.1);
    }
}
