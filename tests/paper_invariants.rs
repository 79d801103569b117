//! The paper's calibration claims as executable invariants.
//!
//! These are miniature versions of the Figs. 3–7 checks, small enough to
//! run in the test suite: detection thresholds separate clean from
//! contended runs, identification picks the true antagonist, the
//! controller follows Eq. 1, and the §VI placement loop migrates once and
//! does not lose to throttling.

use perfcloud::cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
    TelemetrySpec,
};
use perfcloud::core::antagonist::Resource;
use perfcloud::core::cubic::{CubicController, CubicState, GrowthRegion};
use perfcloud::core::PerfCloudConfig;
use perfcloud::frameworks::Benchmark;
use perfcloud::place::PlacementConfig;
use perfcloud::prelude::*;
use perfcloud_bench::golden::build_placement;

const SEED: u64 = 42;

fn deviation_peak(bench: Benchmark, antagonist: Option<AntagonistKind>, resource: Resource) -> f64 {
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(SEED), Mitigation::Default);
    cfg.jobs.push((SimTime::from_secs(5), bench.job(20)));
    if let Some(kind) = antagonist {
        cfg.antagonists.push(AntagonistPlacement::pinned(kind, 0));
    }
    cfg.max_sim_time = SimTime::from_secs(3_600);
    let mut e = Experiment::build(cfg);
    let _ = e.run();
    e.node_managers[0]
        .identifier()
        .deviation_series(resource)
        .values()
        .flatten()
        .fold(0.0, f64::max)
}

#[test]
fn iowait_threshold_separates_clean_from_contended() {
    let alone = deviation_peak(Benchmark::Terasort, None, Resource::Io);
    let contended = deviation_peak(Benchmark::Terasort, Some(AntagonistKind::Fio), Resource::Io);
    assert!(alone < 10.0, "alone peak {alone} must stay under H=10");
    assert!(contended > 10.0, "contended peak {contended} must exceed H=10");
    assert!(contended > 4.0 * alone, "the separation must be wide");
}

#[test]
fn cpi_threshold_separates_clean_from_contended() {
    let alone = deviation_peak(Benchmark::LogisticRegression, None, Resource::Cpu);
    let contended =
        deviation_peak(Benchmark::LogisticRegression, Some(AntagonistKind::Stream), Resource::Cpu);
    assert!(alone < 1.0, "alone CPI deviation {alone} must stay under H=1");
    assert!(contended > 1.0, "contended CPI deviation {contended} must exceed H=1");
}

#[test]
fn identification_flags_fio_not_the_cpu_decoy() {
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(SEED), Mitigation::Default);
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(20)));
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(15)),
    );
    cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::SysbenchCpu, 0));
    cfg.max_sim_time = SimTime::from_secs(3_600);
    let mut e = Experiment::build(cfg);
    let fio_vm = e.antagonist_vms()[0].0;
    let decoy_vm = e.antagonist_vms()[1].0;
    // Identification is an online process: the node manager evaluates the
    // correlation every interval and acts the moment it crosses 0.8. Track
    // the per-interval correlations over the contended phase.
    let mut r_fio_max: f64 = 0.0;
    let mut r_decoy_max: f64 = 0.0;
    for _ in 0..14 {
        e.run_for(SimDuration::from_secs(5.0));
        let nm = &e.node_managers[0];
        r_fio_max = r_fio_max.max(nm.identifier().correlation(fio_vm, Resource::Io).unwrap_or(0.0));
        r_decoy_max =
            r_decoy_max.max(nm.identifier().correlation(decoy_vm, Resource::Io).unwrap_or(0.0));
    }
    assert!(r_fio_max >= 0.8, "fio correlation must cross 0.8 at some interval, peak {r_fio_max}");
    assert!(r_decoy_max < 0.8, "the CPU decoy must never cross 0.8, peak {r_decoy_max}");
}

#[test]
fn cubic_regions_appear_in_order() {
    let c = CubicController::paper();
    let mut s = CubicState::new();
    c.step(&mut s, true);
    assert!((s.cap - 0.2).abs() < 1e-12, "decrease to 1-beta of usage");
    let mut seen = vec![GrowthRegion::InitialGrowth];
    for _ in 0..40 {
        c.step(&mut s, false);
        if seen.last() != Some(&s.region()) {
            seen.push(s.region());
        }
    }
    assert_eq!(
        seen,
        vec![GrowthRegion::InitialGrowth, GrowthRegion::Plateau, GrowthRegion::Probing],
        "the three regions of Fig. 7 must appear in order"
    );
}

#[test]
fn spark_is_more_memory_sensitive_than_mapreduce() {
    let jct = |bench: Benchmark, antagonist: bool| {
        let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(SEED), Mitigation::Default);
        cfg.jobs.push((SimTime::from_secs(5), bench.job(10)));
        if antagonist {
            cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Stream, 0));
        }
        cfg.max_sim_time = SimTime::from_secs(3_600);
        Experiment::build(cfg).run().sole_jct()
    };
    let mr = jct(Benchmark::Wordcount, true) / jct(Benchmark::Wordcount, false);
    let spark =
        jct(Benchmark::LogisticRegression, true) / jct(Benchmark::LogisticRegression, false);
    assert!(
        spark > mr,
        "Spark ({spark:.2}x) must degrade more than MapReduce ({mr:.2}x) under STREAM"
    );
}

#[test]
fn placement_arms_migrate_once_and_hybrid_beats_throttling() {
    // (victim JCT, migrations started) of one arm on the placement golden
    // testbed: two servers, the second held spare, fio onto the first.
    let arm = |mitigation: Mitigation| {
        let mut e = build_placement(mitigation, TelemetrySpec::default());
        let jct = e.run().sole_jct();
        (jct, e.placement().map_or(0, |rt| rt.migrations_started()))
    };
    let (throttle_jct, _) = arm(Mitigation::PerfCloud(PerfCloudConfig::default()));
    let (_, migrate_moves) = arm(Mitigation::MigrateOnly(PlacementConfig));
    let (hybrid_jct, hybrid_moves) =
        arm(Mitigation::Hybrid(PerfCloudConfig::default(), PlacementConfig));
    assert_eq!(migrate_moves, 1, "migrate-only must move the antagonist exactly once");
    assert_eq!(hybrid_moves, 1, "hybrid must move the antagonist exactly once");
    assert!(
        hybrid_jct <= throttle_jct,
        "hybrid victim JCT {hybrid_jct} lost to throttle-only {throttle_jct}"
    );
}
