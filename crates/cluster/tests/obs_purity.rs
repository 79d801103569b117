//! Property: observability is pure observation.
//!
//! Attaching flight recorders to every node manager, the control plane and
//! its network must not change a single decision — for *arbitrary* seeds
//! and arbitrary fault schedules, not just the golden scenarios. Each case
//! runs the same experiment twice, recorders off and on, and requires the
//! [`ExperimentResult`] and the canonical decision-trace bytes to be
//! identical. Any recorder hook that consumes randomness, perturbs
//! iteration order, or mutates model state fails here immediately.
//!
//! The node manager's flight events are a rendering of the same reports
//! the decision trace stores, so each step row must also agree with its
//! server's recorder at that instant: the same caps in the same order, a
//! restart event exactly when the row says `R`, a staleness event exactly
//! when it says `P`.

use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_core::{PerfCloudConfig, Resource};
use perfcloud_frameworks::Benchmark;
use perfcloud_obs::FlightEvent;
use perfcloud_sim::{FaultKind, FaultRule, FaultScenario, SimTime};
use proptest::prelude::*;

/// Flight events each recorder can hold: more than any case records, so
/// the rings never overwrite (checked below).
const RING: usize = 1 << 14;

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
    let mut s = FaultScenario::named("obs-purity");
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

/// A small-scale PerfCloud run with a decision trace, one terasort job
/// and a fio antagonist on server 0; `observe` attaches the recorders.
fn build(seed: u64, faults: Option<FaultScenario>, observe: bool) -> Experiment {
    let mut cfg = ExperimentConfig::new(
        ClusterSpec::small_scale(seed),
        Mitigation::PerfCloud(PerfCloudConfig::default()),
    );
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(8)));
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

/// Checks every step row of `e`'s decision trace against the events its
/// server's recorder holds at that instant.
fn assert_flight_matches_trace(e: &Experiment) {
    for step in e.decision_trace().expect("trace enabled").steps() {
        let fl = e.node_managers[step.server].flight().expect("recorder attached");
        assert_eq!(fl.len() as u64, fl.total_recorded(), "ring overwrote events");
        let (mut caps, mut restarted, mut stale) = (Vec::new(), false, false);
        for r in fl.iter().filter(|r| r.t == step.now.as_micros()) {
            match r.event {
                FlightEvent::CapUpdate { vm, resource, level, .. } => {
                    caps.push((resource, vm, level));
                }
                FlightEvent::ManagerRestart { .. } => restarted = true,
                FlightEvent::PlacementStale { .. } => stale = true,
                _ => {}
            }
        }
        let row_caps: Vec<_> = [Resource::Io, Resource::Cpu]
            .into_iter()
            .flat_map(|res| step.caps(res).iter().map(move |&(vm, c)| (res, u64::from(vm.0), c)))
            .collect();
        assert_eq!(caps, row_caps, "caps at {step}");
        assert_eq!(restarted, step.restarted, "restart flag at {step}");
        assert_eq!(stale, step.placement_stale, "stale flag at {step}");
    }
}

#[test]
fn flight_matches_trace_through_a_crash_and_a_desync() {
    let at = SimTime::from_secs;
    let faults = FaultScenario::named("crash-then-desync")
        .rule(FaultRule::new("crash", FaultKind::CrashRestart).window(at(30), at(31)))
        .rule(
            FaultRule::new("desync", FaultKind::DesyncPlacement { intervals: 3 })
                .window(at(20), at(26)),
        );
    let mut e = build(7, Some(faults), true);
    e.run();
    let steps: Vec<_> = e.decision_trace().expect("trace enabled").steps().collect();
    assert!(steps.iter().any(|s| s.restarted), "no restart row");
    assert!(steps.iter().any(|s| s.placement_stale), "no stale row");
    assert_flight_matches_trace(&e);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recorders_never_change_decisions(
        seed in 0u64..1_000_000,
        rules in proptest::collection::vec((0u8..8, 0u16..120, 0u16..120, 0.05f64..0.9), 0..4),
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
        // And the export itself is a pure function of the run.
        prop_assert_eq!(observed.chrome_trace(), observed.chrome_trace());
        assert_flight_matches_trace(&observed);
    }
}
