//! Property: a forked experiment is byte-identical to a fresh one.
//!
//! [`Experiment::fork`] is only useful if it is *exact*: a run forked at
//! time `t` and then diverged (an antagonist arrival, a cap change) must
//! produce the same [`ExperimentResult`], the same canonical decision-trace
//! bytes, and the same merged flight-export bytes as a fresh run built with
//! the diverged configuration — for arbitrary seeds, arbitrary fault
//! schedules, and an arbitrary fork tick.
//! Any state the fork fails to deep-copy (an RNG stream position, a monitor
//! window, an in-flight control message) fails here immediately.

use perfcloud_baselines::StaticCapping;
use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_core::PerfCloudConfig;
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::{FaultKind, FaultRule, FaultScenario, SimTime};
use proptest::prelude::*;

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
    let mut s = FaultScenario::named("fork-equivalence");
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

/// Builds the standard scenario. The antagonist's start is the divergence
/// axis: `None` defers it past the horizon (the fork-parent shape), `Some`
/// pins the onset (the fresh-run shape).
fn build(seed: u64, rules: &[RuleSpec], antagonist_start: Option<SimTime>) -> Experiment {
    let mut cfg = ExperimentConfig::new(
        ClusterSpec::small_scale(seed),
        Mitigation::PerfCloud(PerfCloudConfig::default()),
    );
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(8)));
    let placement = AntagonistPlacement::pinned(AntagonistKind::Fio, 0);
    cfg.antagonists.push(match antagonist_start {
        Some(at) => placement.starting_at(at),
        None => placement.deferred(),
    });
    cfg.max_sim_time = SimTime::from_secs(3_600);
    cfg.faults = scenario(rules);
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    e.enable_observability(2048);
    e
}

/// Everything a run emits, for byte comparison.
fn fingerprint(e: &Experiment) -> (String, String) {
    (e.decision_trace().expect("trace enabled").canonical(), e.jsonl_trace())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fork at an arbitrary tick, schedule the antagonist onset, run to
    /// completion — must match a fresh run whose config pins that onset.
    #[test]
    fn forked_antagonist_arrival_matches_fresh_run(
        seed in 0u64..1_000_000,
        rules in proptest::collection::vec((0u8..8, 0u16..120, 0u16..120, 0.05f64..0.9), 0..3),
        fork_ticks in 0u64..120,
        onset_secs in 13u64..40,
    ) {
        let onset = SimTime::from_secs(onset_secs);
        // Fork strictly before the onset (ticks are 100 ms).
        let fork_ticks = fork_ticks.min(onset_secs * 10 - 1);

        let mut parent = build(seed, &rules, None);
        for _ in 0..fork_ticks {
            parent.step_tick();
        }
        let mut forked = parent.fork();
        forked.start_antagonist(0, onset);
        let r_forked = forked.run();

        let mut fresh = build(seed, &rules, Some(onset));
        let r_fresh = fresh.run();

        prop_assert_eq!(&r_fresh, &r_forked);
        prop_assert_eq!(fingerprint(&fresh), fingerprint(&forked));
    }

    /// Forking must not disturb the parent, and a mid-run cap change on a
    /// fork must match the same change applied to a fresh twin run to the
    /// same tick — the fork carries every RNG position and window forward.
    #[test]
    fn fork_is_independent_and_cap_change_is_exact(
        seed in 0u64..1_000_000,
        fork_ticks in 1u64..200,
        cap_pct in 1u32..10,
    ) {
        let run_to_fork = |e: &mut Experiment| {
            for _ in 0..fork_ticks {
                e.step_tick();
            }
        };
        let cap = |e: &mut Experiment| {
            let vm = e.antagonist_vms()[0].0;
            let caps = StaticCapping::new().cap_io(vm, f64::from(cap_pct) / 10.0, 3_000.0, 12e6);
            e.apply_static_caps(&caps);
        };

        let mut parent = build(seed, &[], Some(SimTime::ZERO));
        run_to_fork(&mut parent);
        let mut forked = parent.fork();
        cap(&mut forked);
        let r_forked = forked.run();

        // The parent, continued untouched, matches a never-forked run.
        let r_parent = parent.run();
        let mut solo = build(seed, &[], Some(SimTime::ZERO));
        let r_solo = solo.run();
        prop_assert_eq!(&r_solo, &r_parent);
        prop_assert_eq!(fingerprint(&solo), fingerprint(&parent));

        // A fresh twin run to the same tick with the same cap change
        // matches the fork byte-for-byte.
        let mut twin = build(seed, &[], Some(SimTime::ZERO));
        run_to_fork(&mut twin);
        cap(&mut twin);
        let r_twin = twin.run();
        prop_assert_eq!(&r_twin, &r_forked);
        prop_assert_eq!(fingerprint(&twin), fingerprint(&forked));
    }
}

/// Two forks of one parent share no RNG stream: running one to completion
/// must not perturb the other, and identical divergences replay
/// identically.
#[test]
fn sibling_forks_have_independent_rng_streams() {
    let mut parent = build(7, &[], None);
    for _ in 0..50 {
        parent.step_tick();
    }
    let onset = SimTime::from_secs(15);
    let mut a = parent.fork();
    let mut b = parent.fork();
    a.start_antagonist(0, onset);
    b.start_antagonist(0, onset);
    // Run `a` fully before touching `b`: if the siblings shared any RNG or
    // buffer, `a`'s draws would shift `b`'s replay.
    let r_a = a.run();
    let r_b = b.run();
    assert_eq!(r_a, r_b);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

/// A job pushed into a pre-submission fork matches a fresh run whose
/// config carried the job from the start — the pattern the figure
/// harnesses use to share an antagonist-only warm-up across benchmarks.
#[test]
fn pushed_job_matches_fresh_build() {
    let base = |with_job: bool| {
        let mut cfg = ExperimentConfig::new(
            ClusterSpec::small_scale(3),
            Mitigation::PerfCloud(PerfCloudConfig::default()),
        );
        if with_job {
            cfg.jobs.push((SimTime::from_secs(5), Benchmark::Wordcount.job(6)));
        }
        cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Fio, 0));
        cfg.max_sim_time = SimTime::from_secs(3_600);
        let mut e = Experiment::build(cfg);
        e.enable_decision_trace();
        e.enable_observability(2048);
        e
    };
    let mut parent = base(false);
    // 4.9 s: strictly before the 5 s submission instant.
    for _ in 0..49 {
        parent.step_tick();
    }
    let mut forked = parent.fork();
    forked.push_job(SimTime::from_secs(5), Benchmark::Wordcount.job(6));
    let r_forked = forked.run();

    let mut fresh = base(true);
    let r_fresh = fresh.run();
    assert_eq!(r_fresh, r_forked);
    assert_eq!(fingerprint(&fresh), fingerprint(&forked));
}

/// A fork taken before the first sampling instant can swap the whole
/// mitigation stack and still match a fresh build with that mitigation.
#[test]
fn premonitoring_mitigation_swap_matches_fresh_build() {
    let build_with = |mitigation: Mitigation| {
        let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(11), mitigation);
        cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(8)));
        cfg.antagonists.push(
            AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(15)),
        );
        cfg.max_sim_time = SimTime::from_secs(3_600);
        let mut e = Experiment::build(cfg);
        e.enable_decision_trace();
        e.enable_observability(2048);
        e
    };
    let mut parent = build_with(Mitigation::Default);
    // 4 s: past real work, still before the first 5 s sampling instant.
    for _ in 0..40 {
        parent.step_tick();
    }
    let mut forked = parent.fork();
    forked.set_mitigation(Mitigation::PerfCloud(PerfCloudConfig::default()));
    let r_forked = forked.run();

    let mut fresh = build_with(Mitigation::PerfCloud(PerfCloudConfig::default()));
    let r_fresh = fresh.run();
    assert_eq!(r_fresh, r_forked);
    assert_eq!(fingerprint(&fresh), fingerprint(&forked));
}

/// The migration testbed: migrate-only or hybrid placement over two
/// populated servers plus a spare, with the fio antagonist identified
/// around t=20 s and live-migrated right after.
fn build_migration(seed: u64, hybrid: bool) -> Experiment {
    use perfcloud_place::PlacementConfig;
    let mitigation = if hybrid {
        Mitigation::Hybrid(PerfCloudConfig::default(), PlacementConfig)
    } else {
        Mitigation::MigrateOnly(PlacementConfig)
    };
    let mut cluster = ClusterSpec::small_scale(seed);
    cluster.servers = 3;
    cluster.spare_servers = 1;
    let mut cfg = ExperimentConfig::new(cluster, mitigation);
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(8)));
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(15)),
    );
    cfg.max_sim_time = SimTime::from_secs(3_600);
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    e.enable_observability(2048);
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fork taken at an arbitrary tick — before the migration epoch,
    /// mid-pre-copy, inside the stop-and-copy stall, or after completion —
    /// must reproduce the fresh run byte for byte: the penalty ledger,
    /// in-flight `ActiveMigration` deadlines, paused flags, migration CPU
    /// taxes and cooldown stamps all have to survive the deep copy.
    #[test]
    fn fork_around_migration_epoch_matches_fresh_run(
        seed in 0u64..1_000_000,
        fork_ticks in 1u64..350,
        hybrid_tag in 0u8..2,
    ) {
        let hybrid = hybrid_tag == 1;
        let mut parent = build_migration(seed, hybrid);
        for _ in 0..fork_ticks {
            parent.step_tick();
        }
        let mut forked = parent.fork();
        let r_forked = forked.run();

        let mut fresh = build_migration(seed, hybrid);
        let r_fresh = fresh.run();

        prop_assert_eq!(&r_fresh, &r_forked);
        prop_assert_eq!(fingerprint(&fresh), fingerprint(&forked));
        let migrations = |e: &Experiment| {
            e.placement().expect("placement runtime active").migrations_started()
        };
        prop_assert_eq!(migrations(&fresh), migrations(&forked));
    }
}
