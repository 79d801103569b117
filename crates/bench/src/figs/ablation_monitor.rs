//! Ablation — monitor tuning (DESIGN.md §5): EWMA smoothing weight and
//! sampling interval vs. detection latency and false positives.
//!
//! For each (α, interval) pair, runs the Fig. 3 terasort scenario twice —
//! alone and with a fio antagonist arriving mid-run — and reports:
//!
//! * detection latency: seconds from the fio onset until the smoothed
//!   iowait-ratio deviation first exceeds ℋ = 10;
//! * false positives: intervals in the *alone* run whose deviation exceeds
//!   ℋ (should be zero).
//!
//! Expected shape: heavier smoothing (small α) suppresses false positives
//! but delays detection; coarser sampling delays detection roughly by the
//! interval length. The paper's 5 s / EWMA choice sits in the corner with
//! zero false positives and single-interval latency.
//!
//! Grid points cannot share a parent (each builds its monitors with a
//! different α/interval), but within a grid point the alone and contended
//! twins diverge only at the fio onset: one parent per point runs the
//! pre-onset prefix, then each twin is a fork (the alone fork simply never
//! starts the booted, inert antagonist VM).

use crate::report::Table;
use crate::scenarios::*;
use crate::sweep;
use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_core::antagonist::Resource;
use perfcloud_core::PerfCloudConfig;
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::{SimDuration, SimTime};
use std::fmt::Write;

type Series = Vec<(f64, f64)>;

/// Runs one grid point's alone/contended twins off a shared parent.
/// Returns (alone series, contended series).
fn grid_point(alpha: f64, interval: f64, seed: u64) -> (Series, Series) {
    let pc = PerfCloudConfig {
        ewma_alpha: alpha,
        sample_interval: SimDuration::from_secs(interval),
        h_io: f64::INFINITY, // monitoring only
        h_cpi: f64::INFINITY,
        ..Default::default()
    };
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(seed), Mitigation::PerfCloud(pc));
    cfg.jobs.push((JOB_START, Benchmark::Terasort.job(20)));
    cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Fio, 0).deferred());
    cfg.max_sim_time = SimTime::from_secs(3_600);
    let mut parent = Experiment::build(cfg);
    let tick = SimDuration::from_secs(0.1);
    while parent.now() + tick < ANTAGONIST_ONSET {
        parent.step_tick();
    }
    let finish = |mut e: Experiment| {
        let _ = e.run();
        deviation_points(&e, Resource::Io)
    };
    let alone = parent.fork();
    let mut contended = parent.fork();
    contended.start_antagonist(0, ANTAGONIST_ONSET);
    (finish(alone), finish(contended))
}

/// Runs the monitor-tuning grid at `seed` and returns its text.
pub fn run(seed: u64) -> String {
    super::report(|out| {
        const H: f64 = 10.0;
        writeln!(out, "=== Ablation: EWMA weight x sampling interval ===")?;
        writeln!(
            out,
            "(terasort-20; fio onset at t = {}s; H = {H})\n",
            ANTAGONIST_ONSET.as_secs_f64()
        )?;

        let mut t = Table::new(vec![
            "alpha",
            "interval (s)",
            "detection latency (s)",
            "false positives (alone)",
        ]);
        // 3×3 grid, each point an alone/contended fork pair off one parent.
        let grid: Vec<(f64, f64)> = [0.2, 0.5, 1.0]
            .iter()
            .flat_map(|&alpha| [2.5, 5.0, 10.0].iter().map(move |&interval| (alpha, interval)))
            .collect();
        let runs = sweep::run(grid.len(), |k| {
            let (alpha, interval) = grid[k];
            grid_point(alpha, interval, seed)
        });
        for (k, &(alpha, interval)) in grid.iter().enumerate() {
            let (alone, contended) = &runs[k];
            let fp = alone.iter().filter(|&&(_, v)| v > H).count();
            let onset = ANTAGONIST_ONSET.as_secs_f64();
            let latency = contended
                .iter()
                .find(|&&(time, v)| time > onset && v > H)
                .map(|&(time, _)| time - onset);
            t.row(vec![
                format!("{alpha}"),
                format!("{interval}"),
                latency.map(|l| format!("{l:.0}")).unwrap_or_else(|| "none".into()),
                fp.to_string(),
            ]);
        }
        out.push_str(&t.render());
        writeln!(
            out,
            "\n(the paper's operating point is alpha-smoothed sampling at 5 s: detection within\n\
 \"a few seconds\" and no false positives when running alone)"
        )?;
        Ok(())
    })
}
