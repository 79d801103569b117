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
//! its first tick and apply each cap to a fork ([`Experiment::apply_static_caps`]
//! at tick zero is byte-identical to building with the static-cap
//! mitigation); caps bind from t = 0, so there is no shared prefix to save
//! there. Panel (c) varies only the job, so its parent runs the
//! fio-only warm-up once and each benchmark forks off it.

use perfcloud_baselines::StaticCapping;
use perfcloud_bench::report::{f2, Table};
use perfcloud_bench::scenarios::*;
use perfcloud_bench::{forked, sweep};
use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_frameworks::Benchmark;
use perfcloud_host::VmId;
use perfcloud_sim::SimTime;

/// Shared-prefix ticks for panel (c): 4.9 s, strictly before the 5 s job
/// submission (ticks are 100 ms).
const PREFIX_TICKS: u64 = 49;

fn cap_sweep(bench: Benchmark, tasks: usize, label: &str, seed: u64) {
    let (solo_iops, solo_bps) = fio_solo_reference(seed);
    let solo = solo_jct(bench, tasks, seed);
    println!(
        "\nFig 1({label}): {} ({} tasks); solo JCT = {:.1}s, fio solo = {:.0} IOPS",
        bench.name(),
        tasks,
        solo,
        solo_iops
    );
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
    t.print();
}

fn main() {
    let seed = base_seed();
    println!("=== Figure 1: degradation under a colocated fio random-read VM ===");

    cap_sweep(Benchmark::Terasort, 10, "a", seed);
    cap_sweep(Benchmark::LogisticRegression, 40, "b", seed);

    println!("\nFig 1(c): normalized JCT of each benchmark with uncapped fio");
    println!("(paper anchors: terasort ≈ 1.72, logistic-regression ≈ 1.44)");
    // One fio-contended parent runs the pre-submission warm-up; each
    // benchmark is a fork with its job pushed in at the usual 5 s.
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(seed), Mitigation::Default);
    cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Fio, 0));
    cfg.max_sim_time = SimTime::from_secs(7_200);
    let mut parent = Experiment::build(cfg);
    for _ in 0..PREFIX_TICKS {
        parent.step_tick();
    }
    let runs = forked::sweep(&parent, Benchmark::ALL.len(), |i, mut e| {
        e.push_job(JOB_START, Benchmark::ALL[i].job(10));
        e.run()
    });
    let solos: Vec<f64> =
        sweep::run(Benchmark::ALL.len(), |i| solo_jct(Benchmark::ALL[i], 10, seed));
    let mut t = Table::new(vec!["benchmark", "solo JCT (s)", "with fio", "norm JCT"]);
    for ((bench, r), solo) in Benchmark::ALL.iter().zip(&runs).zip(&solos) {
        t.row(vec![
            bench.name().to_string(),
            format!("{solo:.1}"),
            format!("{:.1}", r.sole_jct()),
            f2(r.sole_jct() / solo),
        ]);
    }
    t.print();
}
