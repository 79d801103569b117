//! The paper's future-work scenario (§IV-D.2): heterogeneous servers.
//!
//! "Due to its decentralized design, PerfCloud does not take into account
//! the hardware heterogeneity of physical servers. As a result, VMs running
//! on slower machines may still cause some tasks to straggle. In such
//! cases, application-level approaches such as speculative execution can
//! complement PerfCloud."
//!
//! A 6-server cluster where two servers run at 0.4× speed, with a fio and
//! a STREAM antagonist, executes a batch of jobs under: LATE alone,
//! PerfCloud alone, and the PerfCloud + LATE hybrid. Expected shape: LATE
//! helps with slow-server stragglers but not contention; PerfCloud helps
//! with contention but not slow servers; the hybrid beats both.

use crate::report::{f2, shape_check, Table};
use perfcloud_baselines::LatePolicy;
use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_core::PerfCloudConfig;
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::SimTime;
use std::fmt::Write;

fn cluster(seed: u64) -> ClusterSpec {
    let mut c = ClusterSpec::large_scale(seed);
    c.servers = 6;
    c.speed_factors = vec![1.0, 1.0, 0.4, 1.0, 0.4, 1.0];
    c
}

fn run_system(mitigation: Mitigation, seed: u64) -> f64 {
    let mut cfg = ExperimentConfig::new(cluster(seed), mitigation);
    for (i, bench) in [Benchmark::Terasort, Benchmark::InvertedIndex, Benchmark::Wordcount]
        .into_iter()
        .enumerate()
    {
        cfg.jobs.push((SimTime::from_secs(5 + 10 * i as u64), bench.job(24)));
    }
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(20)),
    );
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Stream, 3).starting_at(SimTime::from_secs(20)),
    );
    cfg.max_sim_time = SimTime::from_secs(7_200);
    let r = Experiment::build(cfg).run();
    r.outcomes.iter().map(|o| o.jct).sum::<f64>() / r.outcomes.len() as f64
}

/// Runs the heterogeneous-servers scenario at `seed` and returns its text.
pub fn run(seed: u64) -> String {
    super::report(|out| {
        writeln!(
            out,
            "=== Future work: heterogeneous servers (2 of 6 at 0.4x) + antagonists ===\n"
        )?;

        let rows = vec![
            ("default", run_system(Mitigation::Default, seed)),
            ("late", run_system(Mitigation::Late(LatePolicy::default()), seed)),
            ("perfcloud", run_system(Mitigation::PerfCloud(PerfCloudConfig::default()), seed)),
            (
                "perfcloud+late",
                run_system(
                    Mitigation::PerfCloudWithLate(
                        PerfCloudConfig::default(),
                        LatePolicy::default(),
                    ),
                    seed,
                ),
            ),
        ];
        let default_jct = rows[0].1;
        let mut t = Table::new(vec!["system", "mean JCT (s)", "vs default"]);
        for (name, jct) in &rows {
            t.row(vec![name.to_string(), format!("{jct:.1}"), f2(jct / default_jct)]);
        }
        out.push_str(&t.render());

        let late = rows[1].1;
        let pc = rows[2].1;
        let hybrid = rows[3].1;
        writeln!(out)?;
        shape_check(out, "the hybrid beats both constituents", hybrid <= pc && hybrid <= late)?;
        shape_check(
            out,
            "each constituent beats the default",
            pc < default_jct && late < default_jct,
        )?;
        Ok(())
    })
}
