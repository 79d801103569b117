//! Ablation — the detection threshold ℋ (DESIGN.md §5).
//!
//! Sweeps ℋ for the iowait-ratio deviation over the Fig. 3 scenario and
//! reports, per candidate threshold, the false-positive intervals when the
//! application runs alone and the detection latency when fio arrives. The
//! paper sets ℋ = 10 "determined by the peak standard deviation … observed
//! when there is no resource contention"; the sweep shows the usable window
//! between the alone-peak and the contended plateau.
//!
//! The alone and contended legs differ only in whether the fio workload
//! ever starts, so both run as forks of one parent whose antagonist VM is
//! booted but deferred: the parent executes the shared pre-onset prefix
//! once, the contended fork schedules the onset, the alone fork never does
//! (a booted, idle VM is inert — it issues no I/O and draws no luck RNG).

use crate::forked;
use crate::report::{shape_check, Table};
use crate::scenarios::*;
use perfcloud_cluster::{AntagonistKind, AntagonistPlacement, Mitigation};
use perfcloud_core::antagonist::Resource;
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::SimDuration;
use std::fmt::Write;

/// Runs the threshold sweep at `seed` and returns its text.
pub fn run(seed: u64) -> String {
    super::report(|out| {
        writeln!(out, "=== Ablation: detection threshold sweep (iowait-ratio deviation) ===\n")?;
        let mut parent = small_scale(
            Benchmark::Terasort,
            20,
            vec![AntagonistPlacement::pinned(AntagonistKind::Fio, 0).deferred()],
            Mitigation::Default,
            seed,
        );
        let tick = SimDuration::from_secs(0.1);
        while parent.now() + tick < ANTAGONIST_ONSET {
            parent.step_tick();
        }
        let mut runs = forked::sweep(&parent, 2, |i, mut e| {
            if i == 1 {
                e.start_antagonist(0, ANTAGONIST_ONSET);
            }
            let _ = e.run();
            e.run_for(SimDuration::from_secs(5.0));
            deviation_points(&e, Resource::Io)
        });
        let contended = runs.pop().unwrap();
        let alone = runs.pop().unwrap();
        let alone_peak = alone.iter().map(|x| x.1).fold(0.0f64, f64::max);
        let contended_peak = contended.iter().map(|x| x.1).fold(0.0f64, f64::max);
        writeln!(out, "alone peak = {alone_peak:.2}; contended peak = {contended_peak:.2}\n")?;

        let onset = ANTAGONIST_ONSET.as_secs_f64();
        let mut t = Table::new(vec!["H", "false positives (alone)", "detection latency (s)"]);
        for &h in &[0.25, 1.0, 5.0, 10.0, 20.0, 40.0, 80.0] {
            let fp = alone.iter().filter(|&&(_, v)| v > h).count();
            let latency = contended
                .iter()
                .find(|&&(time, v)| time > onset && v > h)
                .map(|&(time, _)| format!("{:.0}", time - onset))
                .unwrap_or_else(|| "none".into());
            t.row(vec![format!("{h}"), fp.to_string(), latency]);
        }
        out.push_str(&t.render());
        let fp10 = alone.iter().filter(|&&(_, v)| v > 10.0).count();
        let lat10 = contended.iter().any(|&(time, v)| time > onset && v > 10.0);
        writeln!(out)?;
        shape_check(
            out,
            "H = 10 sits in the zero-false-positive, fast-detection window",
            fp10 == 0 && lat10,
        )?;
        Ok(())
    })
}
