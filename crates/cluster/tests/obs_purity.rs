//! Property: observability is pure observation.
//!
//! Observing the node managers (their collector, chaos and staleness
//! events join the decision trace), the control plane and its network must
//! not change a single decision — for *arbitrary* seeds and arbitrary fault
//! schedules, not just the golden scenarios. Each case runs the same
//! experiment twice, observation off and on, and requires the
//! [`ExperimentResult`], the canonical decision-trace bytes and the stored
//! enrolled and released lists to be identical. Any hook that
//! consumes randomness, perturbs iteration order, or mutates model state
//! fails here immediately.

use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_core::{PerfCloudConfig, Resource};
use perfcloud_frameworks::Benchmark;
use perfcloud_host::VmId;
use perfcloud_sim::{FaultKind, FaultRule, FaultScenario, SimTime};
use proptest::prelude::*;

/// Flight events each control-plane ring and exported track can hold.
const RING: usize = 1 << 14;

/// When the job is submitted, seconds.
const JOB_START_S: u64 = 5;

/// Window starts are drawn from the job's first this many seconds: the
/// 8-task terasort runs from 5 s to roughly 45–50 s, so every window opens
/// while the node managers still have work to protect.
const JOB_SPAN_S: u16 = 40;

/// One fuzzed fault rule: (kind tag, window start, window length, firing
/// probability). Times are in seconds, offset into the job.
type RuleSpec = (u8, u16, u16, f64);

fn decode_kind(tag: u8) -> FaultKind {
    match tag % 9 {
        0 => FaultKind::DropSample,
        1 => FaultKind::DelaySample { intervals: 1 + u32::from(tag) % 3 },
        2 => FaultKind::DuplicateSample,
        3 => FaultKind::CorruptNaN,
        4 => FaultKind::CorruptSpike { factor: 30.0 },
        5 => FaultKind::CorruptStuckAt,
        6 => FaultKind::StallManager { intervals: 2 },
        7 => FaultKind::DesyncPlacement { intervals: 1 + u32::from(tag) % 3 },
        _ => FaultKind::CrashRestart,
    }
}

fn scenario(rules: &[RuleSpec]) -> Option<FaultScenario> {
    if rules.is_empty() {
        return None;
    }
    let mut s = FaultScenario::named("obs-purity");
    for (i, &(tag, start, len, prob)) in rules.iter().enumerate() {
        let from = JOB_START_S + u64::from(start);
        let until = from + 5 + u64::from(len);
        s = s.rule(
            FaultRule::new(format!("r{i}"), decode_kind(tag))
                .window(SimTime::from_secs(from), SimTime::from_secs(until))
                .with_probability(prob),
        );
    }
    Some(s)
}

/// A small-scale PerfCloud run with a decision trace, one terasort job
/// and a fio antagonist on server 0; `observe` turns observability on.
fn build(seed: u64, faults: Option<FaultScenario>, observe: bool) -> Experiment {
    let mut cfg = ExperimentConfig::new(
        ClusterSpec::small_scale(seed),
        Mitigation::PerfCloud(PerfCloudConfig::default()),
    );
    cfg.jobs.push((SimTime::from_secs(JOB_START_S), Benchmark::Terasort.job(8)));
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(15)),
    );
    cfg.max_sim_time = SimTime::from_secs(3_600);
    cfg.faults = faults;
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    if observe {
        e.enable_observability(RING);
    }
    e
}

/// Every stored step's enrolled and released lists, I/O then CPU.
fn enrolled_and_released(e: &Experiment) -> Vec<[&[VmId]; 4]> {
    let trace = e.decision_trace().expect("trace enabled");
    let (io, cpu) = (Resource::Io, Resource::Cpu);
    trace
        .steps()
        .map(|s| [s.enrolled(io), s.enrolled(cpu), s.released(io), s.released(cpu)])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recorders_never_change_decisions(
        seed in 0u64..1_000_000,
        rules in proptest::collection::vec(
            (0u8..9, 0u16..JOB_SPAN_S, 0u16..120, 0.05f64..0.9),
            0..4,
        ),
    ) {
        let mut plain = build(seed, scenario(&rules), false);
        let r_plain = plain.run();
        let mut observed = build(seed, scenario(&rules), true);
        let r_obs = observed.run();
        prop_assert_eq!(&r_plain, &r_obs);
        prop_assert_eq!(
            plain.decision_trace().expect("trace enabled").canonical(),
            observed.decision_trace().expect("trace enabled").canonical()
        );
        // The enrolled and released lists, which the canonical line leaves
        // out, are equal too: only the events differ.
        prop_assert_eq!(enrolled_and_released(&plain), enrolled_and_released(&observed));
        // And the export itself is a pure function of the run.
        prop_assert_eq!(observed.chrome_trace(), observed.chrome_trace());
    }
}
