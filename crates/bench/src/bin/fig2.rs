//! Figure 2 — performance degradation due to a colocated memory-intensive
//! (STREAM) workload.
//!
//! Paper anchor: all six benchmarks degrade significantly, and the Spark
//! benchmarks are hit harder than MapReduce because they "frequently reuse
//! intermediate results residing in memory" — LLC and memory-bandwidth
//! contention inflates exactly the phases Spark spends most time in.
//!
//! The six contended runs differ only in which job arrives at 5 s, so one
//! STREAM-contended parent runs the pre-submission warm-up once and each
//! benchmark forks off it.

use perfcloud_bench::report::{f2, Table};
use perfcloud_bench::scenarios::*;
use perfcloud_bench::{forked, sweep};
use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::SimTime;

/// Shared-prefix ticks: 4.9 s, strictly before the 5 s job submission
/// (ticks are 100 ms).
const PREFIX_TICKS: u64 = 49;

fn main() {
    let seed = base_seed();
    println!("=== Figure 2: degradation under a colocated STREAM VM ===");
    println!("(paper shape: every benchmark degrades; Spark > MapReduce)\n");

    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(seed), Mitigation::Default);
    cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Stream, 0));
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

    let mut t = Table::new(vec!["benchmark", "family", "solo JCT (s)", "with STREAM", "norm JCT"]);
    let mut mr_norm = Vec::new();
    let mut spark_norm = Vec::new();
    for ((bench, r), solo) in Benchmark::ALL.iter().zip(&runs).zip(&solos) {
        let norm = r.sole_jct() / solo;
        if bench.is_spark() {
            spark_norm.push(norm);
        } else {
            mr_norm.push(norm);
        }
        t.row(vec![
            bench.name().to_string(),
            if bench.is_spark() { "spark" } else { "mapreduce" }.to_string(),
            format!("{solo:.1}"),
            format!("{:.1}", r.sole_jct()),
            f2(norm),
        ]);
    }
    t.print();

    let mr = mr_norm.iter().sum::<f64>() / mr_norm.len() as f64;
    let spark = spark_norm.iter().sum::<f64>() / spark_norm.len() as f64;
    println!("\nmean normalized JCT: mapreduce {mr:.2}, spark {spark:.2}");
    println!(
        "shape check (Spark hit harder than MapReduce): {}",
        if spark > mr { "HOLDS" } else { "VIOLATED" }
    );
}
