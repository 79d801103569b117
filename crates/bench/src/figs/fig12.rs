//! Figure 12 — performance variability under randomly placed antagonists.
//!
//! Scenario (paper §IV-C): a terasort job with 50 tasks and a Spark
//! logistic-regression job with 50 tasks per stage run on the 15-server
//! cluster; on every repetition the fio and STREAM antagonist VMs land on
//! random servers. 30 repetitions per system (LATE, Dolly, PerfCloud).
//!
//! Paper anchors: "the median and the spread of the normalized job
//! completion time is much smaller in case of PerfCloud" — LATE's and
//! Dolly's effectiveness depends on where the antagonists landed (a clone
//! placed next to another antagonist still straggles), while PerfCloud
//! throttles antagonists wherever they are.
//!
//! The three systems see *identical* repetitions (same cluster seed, same
//! antagonist placements), so each repetition builds one neutral parent,
//! runs the shared prefix once — up to just before the job submission and
//! the first monitoring sample — and forks it three times, swapping in one
//! mitigation per fork. [`Experiment::fork`] guarantees each fork is
//! byte-identical to a fresh run of that system, so this is purely a
//! wall-clock optimization.
//!
//! Flags: `--reps <n>` (default 30), `--scale-servers <n>` (default 15).

use crate::report::{f2, shape_check, Table};
use crate::scenarios::PREFIX_TICKS;
use crate::sweep;
use perfcloud_baselines::{Dolly, LatePolicy};
use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_core::PerfCloudConfig;
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::{RngFactory, SimTime};
use perfcloud_stats::BoxplotSummary;
use rand::Rng;
use std::fmt::Write;

/// Random antagonist placement for one repetition: one fio and one STREAM
/// VM per third of the servers, on seed-chosen servers. The antagonist VMs
/// are booted during the run (the paper redistributes them "on each job
/// execution"), at random times early in the job.
fn random_antagonists(rng: &RngFactory, servers: usize) -> Vec<AntagonistPlacement> {
    let mut r = rng.stream("fig12/placement");
    let mut out = Vec::new();
    for _ in 0..(servers / 3).max(1) {
        for kind in [AntagonistKind::Fio, AntagonistKind::Stream] {
            let start = SimTime::from_secs_f64(10.0 + 30.0 * r.gen::<f64>());
            out.push(AntagonistPlacement::pinned(kind, r.gen_range(0..servers)).starting_at(start));
        }
    }
    out
}

/// Runs Figure 12 at `seed` with `reps` repetitions on `servers` servers;
/// returns the text.
pub fn run(seed: u64, reps: usize, servers: usize) -> String {
    super::report(|out| {
        writeln!(
            out,
            "=== Figure 12: variability over {reps} repetitions, {servers} servers ===\n"
        )?;

        type MitigationFactory = fn() -> Mitigation;
        let systems: Vec<(&str, MitigationFactory)> = vec![
            ("late", || Mitigation::Late(LatePolicy::default())),
            ("dolly-4", || Mitigation::Dolly(Dolly::new(4))),
            ("perfcloud", || Mitigation::PerfCloud(PerfCloudConfig::default())),
        ];

        for (bench, label) in [
            (Benchmark::Terasort, "a) MapReduce terasort, 50 tasks"),
            (Benchmark::LogisticRegression, "b) Spark logistic regression, 50 tasks/stage"),
        ] {
            // Interference-free baseline for normalization. No antagonist VMs
            // are booted here, so the topology differs from the repetitions and
            // this run cannot share their parent.
            let mut cluster = ClusterSpec::large_scale(seed);
            cluster.servers = servers;
            let mut cfg = ExperimentConfig::new(cluster, Mitigation::Default);
            cfg.jobs.push((SimTime::from_secs(5), bench.job(50)));
            cfg.max_sim_time = SimTime::from_secs(7_200);
            let solo = Experiment::build(cfg).run().sole_jct();

            // One parent per repetition; the three systems run as forks of it.
            let per_rep: Vec<[f64; 3]> = sweep::run(reps, |rep| {
                let rep_rng = sweep::rep_factory(seed, rep);
                let mut cluster = ClusterSpec::large_scale(seed ^ (rep as u64) << 8);
                cluster.servers = servers;
                let mut cfg = ExperimentConfig::new(cluster, Mitigation::Default);
                cfg.jobs.push((SimTime::from_secs(5), bench.job(50)));
                cfg.antagonists = random_antagonists(&rep_rng, servers);
                cfg.max_sim_time = SimTime::from_secs(7_200);
                let mut parent = Experiment::build(cfg);
                for _ in 0..PREFIX_TICKS {
                    parent.step_tick();
                }
                let mut row = [0.0; 3];
                for (slot, (_, make)) in row.iter_mut().zip(&systems) {
                    let mut fork = parent.fork();
                    fork.set_mitigation(make());
                    *slot = fork.run().sole_jct() / solo;
                }
                row
            });

            writeln!(out, "Fig 12({label}); solo JCT = {solo:.1}s")?;
            let mut t = Table::new(vec!["system", "median", "q1", "q3", "whisker span", "max"]);
            let mut spreads = Vec::new();
            for (si, (name, _)) in systems.iter().enumerate() {
                let jcts: Vec<f64> = per_rep.iter().map(|r| r[si]).collect();
                let b = BoxplotSummary::from_data(&jcts).expect("non-empty");
                spreads.push((name.to_string(), b.median, b.whisker_spread()));
                t.row(vec![
                    name.to_string(),
                    f2(b.median),
                    f2(b.q1),
                    f2(b.q3),
                    f2(b.whisker_spread()),
                    f2(b.max),
                ]);
            }
            out.push_str(&t.render());

            let pc = spreads.iter().find(|s| s.0 == "perfcloud").expect("perfcloud row");
            let others: Vec<_> = spreads.iter().filter(|s| s.0 != "perfcloud").collect();
            let median_ok = others.iter().all(|o| pc.1 <= o.1 + 1e-9);
            let spread_ok = others.iter().all(|o| pc.2 <= o.2 + 1e-9);
            shape_check(out, "PerfCloud has the smallest median", median_ok)?;
            shape_check(out, "PerfCloud has the smallest spread", spread_ok)?;
            writeln!(out)?;
        }
        Ok(())
    })
}
