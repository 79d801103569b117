//! Cross-crate integration tests: the full PerfCloud pipeline driven through
//! the umbrella crate's public API.

use perfcloud::baselines::{Dolly, LatePolicy};
use perfcloud::cluster::{
    mean_efficiency, AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment,
    ExperimentConfig, Mitigation, StepView,
};
use perfcloud::core::{PerfCloudConfig, Resource};
use perfcloud::frameworks::Benchmark;
use perfcloud::host::VmId;
use perfcloud::prelude::*;

fn one_job(
    bench: Benchmark,
    tasks: usize,
    mitigation: Mitigation,
    antagonists: Vec<AntagonistPlacement>,
    seed: u64,
) -> Experiment {
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(seed), mitigation);
    cfg.jobs.push((SimTime::from_secs(5), bench.job(tasks)));
    cfg.antagonists = antagonists;
    cfg.max_sim_time = SimTime::from_secs(3_600);
    Experiment::build(cfg)
}

fn fio_at(secs: u64) -> Vec<AntagonistPlacement> {
    vec![AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(secs))]
}

#[test]
fn full_pipeline_protects_an_io_bound_job() {
    let clean = one_job(Benchmark::Terasort, 20, Mitigation::Default, vec![], 42).run().sole_jct();
    let contended =
        one_job(Benchmark::Terasort, 20, Mitigation::Default, fio_at(15), 42).run().sole_jct();
    let protected = one_job(
        Benchmark::Terasort,
        20,
        Mitigation::PerfCloud(PerfCloudConfig::default()),
        fio_at(15),
        42,
    )
    .run()
    .sole_jct();

    assert!(contended > 1.2 * clean, "antagonist must hurt: {clean} -> {contended}");
    assert!(protected < contended, "PerfCloud must help: {protected} !< {contended}");
    let recovered = (contended - protected) / (contended - clean);
    assert!(recovered > 0.3, "recovered only {:.0}%", recovered * 100.0);
}

#[test]
fn perfcloud_throttles_only_under_contention() {
    // No antagonist: no VM must end the run throttled.
    let mut e = one_job(
        Benchmark::Terasort,
        10,
        Mitigation::PerfCloud(PerfCloudConfig::default()),
        vec![],
        11,
    );
    let _ = e.run();
    for server in &e.servers {
        for vm in server.vm_ids() {
            assert!(
                !server.io_throttle(vm).unwrap().is_throttled(),
                "{vm} is throttled on a clean cluster"
            );
            assert!(!server.cpu_cap(vm).unwrap().is_capped());
        }
    }
}

#[test]
fn late_speculation_spends_extra_work() {
    // LATE must never be *less* efficient than 100%; with stragglers it
    // speculates and pays some duplicated work.
    let mut e =
        one_job(Benchmark::Terasort, 20, Mitigation::Late(LatePolicy::default()), fio_at(0), 3);
    let r = e.run();
    let eff = mean_efficiency(&r.outcomes);
    assert!((0.3..=1.0).contains(&eff), "implausible efficiency {eff}");
}

#[test]
fn dolly_first_clone_wins_and_wastes_the_rest() {
    let mut e = one_job(Benchmark::Wordcount, 4, Mitigation::Dolly(Dolly::new(3)), vec![], 5);
    let r = e.run();
    assert_eq!(r.outcomes.len(), 1, "a clone group reports one logical job");
    assert_eq!(r.outcomes[0].clones, 3);
    let eff = r.outcomes[0].efficiency();
    assert!(eff < 0.7, "three clones must waste work: {eff}");
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        one_job(Benchmark::InvertedIndex, 10, Mitigation::Default, fio_at(10), 9).run().sole_jct()
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let jct = |seed| {
        one_job(Benchmark::InvertedIndex, 10, Mitigation::Default, fio_at(10), seed)
            .run()
            .sole_jct()
    };
    assert_ne!(jct(1), jct(2));
}

#[test]
fn multi_server_cluster_spreads_the_job() {
    let mut cluster = ClusterSpec::large_scale(21);
    cluster.servers = 3;
    let mut cfg = ExperimentConfig::new(cluster, Mitigation::Default);
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(30)));
    cfg.max_sim_time = SimTime::from_secs(3_600);
    let mut e = Experiment::build(cfg);
    let r = e.run();
    assert_eq!(r.outcomes.len(), 1);
    // Every server must have executed some instructions (tasks spread out).
    for server in &e.servers {
        let total: f64 = server
            .vm_ids()
            .iter()
            .map(|&vm| server.counters(vm).unwrap().counters.instructions)
            .sum();
        assert!(total > 0.0, "a server did no work");
    }
}

#[test]
fn crash_restart_redetects_within_bounded_intervals() {
    // A node-manager crash mid-mitigation loses the rolling windows and
    // releases all caps; the restarted manager must rebuild its evidence
    // and re-throttle the antagonist within a bounded number of sampling
    // intervals (window backfill makes re-identification fast).
    use perfcloud::sim::{FaultKind, FaultRule, FaultScenario};
    let mut cfg = ExperimentConfig::new(
        ClusterSpec::small_scale(42),
        Mitigation::PerfCloud(PerfCloudConfig::default()),
    );
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(60)));
    cfg.antagonists = fio_at(15);
    cfg.max_sim_time = SimTime::from_secs(3_600);
    cfg.faults = Some(
        FaultScenario::named("crash").rule(
            FaultRule::new("crash-once", FaultKind::CrashRestart)
                .window(SimTime::from_secs(35), SimTime::from_secs(40)),
        ),
    );
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    let r = e.run();
    assert_eq!(r.outcomes.len(), 1, "job must still complete under the crash");

    let trace = e.decision_trace().expect("trace enabled");
    let steps: Vec<StepView<'_>> = trace.steps().collect();
    let throttles_fio =
        |s: &StepView<'_>| s.caps(Resource::Io).first().is_some_and(|&(vm, _)| vm == VmId(10));
    let restart = steps.iter().position(|s| s.restarted).expect("crash-restart step recorded");
    assert!(
        steps[..restart].iter().any(throttles_fio),
        "antagonist was never throttled before the crash:\n{}",
        trace.canonical()
    );
    // The restart step reports a clean slate: every cap was released.
    assert!(steps[restart].caps(Resource::Io).is_empty(), "restart step must carry no caps");
    // Re-detection within 8 intervals of the restart.
    let horizon = &steps[restart + 1..steps.len().min(restart + 9)];
    assert!(
        horizon.iter().any(throttles_fio),
        "no re-throttle within {} intervals after restart:\n{}",
        horizon.len(),
        trace.canonical()
    );
}

#[test]
fn antagonist_keeps_most_throughput_when_victims_are_idle() {
    // PerfCloud with no high-priority job running: the antagonist is never
    // throttled, so its throughput matches the default run's.
    let run = |mitigation| {
        let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(33), mitigation);
        cfg.antagonists = fio_at(0);
        cfg.max_sim_time = SimTime::from_secs(60);
        Experiment::build(cfg).run().antagonists[0].io_ops
    };
    let default_ops = run(Mitigation::Default);
    let pc_ops = run(Mitigation::PerfCloud(PerfCloudConfig::default()));
    assert!(
        (pc_ops / default_ops - 1.0).abs() < 0.01,
        "idle-cluster PerfCloud must not touch the antagonist: {default_ops} vs {pc_ops}"
    );
}

/// The placement testbed: two servers with the second held spare, one
/// 40-task terasort on the populated server, and the accuracy suite's
/// low-signal rate-limited fio antagonist — heavy enough to hurt the
/// victims, too quiet for the paper's deviation thresholds.
fn low_signal_placement_run(
    mitigation: Mitigation,
    pipeline: perfcloud::core::PipelineSpec,
) -> Experiment {
    let mut cluster = ClusterSpec::small_scale(42);
    cluster.servers = 2;
    cluster.spare_servers = 1;
    let mut cfg = ExperimentConfig::new(cluster, mitigation);
    cfg.pipeline = pipeline;
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(40)));
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::FioRate(10_000.0), 0)
            .starting_at(SimTime::from_secs(15))
            .lasting(SimDuration::from_secs(150.0)),
    );
    cfg.max_sim_time = SimTime::from_secs(3_600);
    Experiment::build(cfg)
}

#[test]
fn migration_beats_throttling_on_low_signal_antagonist() {
    use perfcloud::core::{DetectorKind, IdentifierKind, PipelineSpec};
    use perfcloud::place::PlacementConfig;
    // The adversarial scenario is engineered at the paper's documented
    // weakness: the across-VM deviation never crosses ℋ_io, so the paper
    // pipeline is blind and throttle-only — the system as shipped — never
    // caps anything.
    let paper = PipelineSpec::default();
    let mut throttle =
        low_signal_placement_run(Mitigation::PerfCloud(PerfCloudConfig::default()), paper);
    let throttle_jct = throttle.run().sole_jct();

    // The placement loop paired with the learned detector (the accuracy
    // scoreboard's alioth/paper cell, which does catch the low-signal
    // antagonist) migrates it to the spare server and recovers the victim.
    let alioth = PipelineSpec { detector: DetectorKind::Alioth, identifier: IdentifierKind::Paper };
    let mut migrate = low_signal_placement_run(Mitigation::MigrateOnly(PlacementConfig), alioth);
    let migrate_jct = migrate.run().sole_jct();
    let rt = migrate.placement().expect("migrate-only runs the placement runtime");
    let vm = migrate.antagonist_vms()[0].0;
    assert_eq!(rt.starts_of(vm), 1, "the low-signal antagonist must be migrated exactly once");

    // The antagonist is calibrated to stay under the detection threshold,
    // so its damage is mild by construction — but it is real, and the
    // migration claws it back. Runs are deterministic, so a strict >1%
    // improvement is a stable assertion.
    assert!(
        migrate_jct < 0.99 * throttle_jct,
        "migrating the low-signal antagonist must beat blind throttle-only: \
         migrate {migrate_jct} !< 0.99 * {throttle_jct}"
    );
}

#[test]
fn flapping_antagonist_does_not_ping_pong() {
    use perfcloud::place::PlacementConfig;
    // Three short fio episodes flapping on the protected server: each
    // burst re-triggers identification from scratch. The hysteresis bound:
    // a VM is migrated at most once (after the move it sits on an
    // unprotected server and is never proposed again), and nothing ever
    // migrates *back* — so total starts are bounded by the episode count
    // even though verdicts keep re-firing.
    let mut cluster = ClusterSpec::small_scale(42);
    cluster.servers = 2;
    cluster.spare_servers = 1;
    let mut cfg = ExperimentConfig::new(cluster, Mitigation::MigrateOnly(PlacementConfig));
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(40)));
    for onset in [15u64, 45, 75] {
        cfg.antagonists.push(
            AntagonistPlacement::pinned(AntagonistKind::Fio, 0)
                .starting_at(SimTime::from_secs(onset))
                .lasting(SimDuration::from_secs(12.0)),
        );
    }
    cfg.max_sim_time = SimTime::from_secs(3_600);
    let mut e = Experiment::build(cfg);
    e.run();
    // The job can drain while the last episode's migration is mid-flight;
    // give it a minute of sim time to land before asserting quiescence.
    e.run_for(SimDuration::from_secs(60.0));
    let rt = e.placement().expect("placement runtime active");
    let vms: Vec<_> = e.antagonist_vms().iter().map(|(vm, _)| *vm).collect();
    for vm in &vms {
        assert!(
            rt.starts_of(*vm) <= 1,
            "vm{} migrated {} times — ping-pong",
            vm.0,
            rt.starts_of(*vm)
        );
    }
    assert!(
        rt.migrations_started() <= vms.len() as u64,
        "{} migrations for {} flapping episodes",
        rt.migrations_started(),
        vms.len()
    );
    assert_eq!(rt.active_count(), 0, "no migration may be left in flight at the end");
}
