//! Figure 1 — performance degradation due to a colocated I/O-intensive
//! workload, and the effect of static I/O caps on the antagonist.
//!
//! * (a) MapReduce terasort: normalized JCT and normalized fio IOPS as the
//!   fio VM's I/O cap sweeps {uncapped, 50%, 40%, 30%, 20%, 10%}.
//! * (b) the same sweep for Spark logistic regression.
//! * (c) normalized JCT of all six benchmarks with the uncapped fio VM.
//!
//! Paper anchors: terasort degrades by ~72% and Spark LR by ~44% under the
//! uncapped fio; MR/Spark performance improves as the cap tightens, while
//! fio's own throughput falls roughly with the cap; capping below ~20%
//! stops helping Spark (disk no longer its bottleneck).
//!
//! Sweep structure: the cap sweeps (a)/(b) fork one uncapped parent before
//! its first tick and apply each cap to a fork
//! ([`Experiment::apply_static_caps`](perfcloud_cluster::Experiment::apply_static_caps)
//! at tick zero is byte-identical to building with the static-cap
//! mitigation); caps bind from t = 0, so there is no shared prefix to save
//! there. Panel (c) varies only the job, so [`colocated_jcts`] runs the
//! fio-only warm-up once and forks each benchmark off it.

use crate::forked;
use crate::report::{f2, Table};
use crate::scenarios::*;
use perfcloud_baselines::StaticCapping;
use perfcloud_cluster::{AntagonistKind, AntagonistPlacement, Mitigation};
use perfcloud_frameworks::Benchmark;
use perfcloud_host::VmId;
use std::fmt::{self, Write};

fn cap_sweep(
    out: &mut String,
    bench: Benchmark,
    tasks: usize,
    label: &str,
    seed: u64,
) -> fmt::Result {
    let (solo_iops, solo_bps) = fio_solo_reference(seed);
    let solo = solo_jct(bench, tasks, seed);
    writeln!(
        out,
        "\nFig 1({label}): {} ({} tasks); solo JCT = {:.1}s, fio solo = {:.0} IOPS",
        bench.name(),
        tasks,
        solo,
        solo_iops
    )?;
    let caps = [None, Some(0.5), Some(0.4), Some(0.3), Some(0.2), Some(0.1)];
    // The antagonist VM is the first VM added after the 10 workers => id 10.
    let fio_vm = VmId(10);
    let parent = small_scale(
        bench,
        tasks,
        vec![AntagonistPlacement::pinned(AntagonistKind::Fio, 0)],
        Mitigation::Default,
        seed,
    );
    let results = forked::sweep(&parent, caps.len(), |i, mut e| {
        if let Some(frac) = caps[i] {
            e.apply_static_caps(&StaticCapping::new().cap_io(fio_vm, frac, solo_iops, solo_bps));
        }
        let r = e.run();
        let secs = r.duration.as_secs_f64();
        (r.sole_jct(), r.antagonists[0].io_ops / secs)
    });
    let mut t = Table::new(vec!["fio I/O cap", "norm JCT", "norm fio IOPS"]);
    for (cap, &(jct, iops)) in caps.iter().zip(&results) {
        let cap_label = match cap {
            None => "uncapped".to_string(),
            Some(c) => format!("{:.0}%", c * 100.0),
        };
        t.row(vec![cap_label, f2(jct / solo), f2(iops / solo_iops)]);
    }
    out.push_str(&t.render());
    Ok(())
}

/// Runs Figure 1's cap sweeps and benchmark panel at `seed`; returns the text.
pub fn run(seed: u64) -> String {
    super::report(|out| {
        writeln!(out, "=== Figure 1: degradation under a colocated fio random-read VM ===")?;

        cap_sweep(out, Benchmark::Terasort, 10, "a", seed)?;
        cap_sweep(out, Benchmark::LogisticRegression, 40, "b", seed)?;

        writeln!(out, "\nFig 1(c): normalized JCT of each benchmark with uncapped fio")?;
        writeln!(out, "(paper anchors: terasort ≈ 1.72, logistic-regression ≈ 1.44)")?;
        let mut t = Table::new(vec!["benchmark", "solo JCT (s)", "with fio", "norm JCT"]);
        let jcts = colocated_jcts(AntagonistKind::Fio, seed);
        for (bench, (solo, jct)) in Benchmark::ALL.iter().zip(jcts) {
            t.row(vec![
                bench.name().to_string(),
                format!("{solo:.1}"),
                format!("{jct:.1}"),
                f2(jct / solo),
            ]);
        }
        out.push_str(&t.render());
        Ok(())
    })
}
