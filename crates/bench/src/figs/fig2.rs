//! Figure 2 — performance degradation due to a colocated memory-intensive
//! (STREAM) workload.
//!
//! Paper anchor: all six benchmarks degrade significantly, and the Spark
//! benchmarks are hit harder than MapReduce because they "frequently reuse
//! intermediate results residing in memory" — LLC and memory-bandwidth
//! contention inflates exactly the phases Spark spends most time in.
//!
//! The six contended runs differ only in which job arrives at 5 s, so
//! [`colocated_jcts`] runs the STREAM-contended warm-up once and forks each
//! benchmark off it.

use crate::report::{f2, shape_check, Table};
use crate::scenarios::*;
use perfcloud_cluster::AntagonistKind;
use perfcloud_frameworks::Benchmark;
use std::fmt::Write;

/// Runs Figure 2 at `seed` and returns its text.
pub fn run(seed: u64) -> String {
    super::report(|out| {
        writeln!(out, "=== Figure 2: degradation under a colocated STREAM VM ===")?;
        writeln!(out, "(paper shape: every benchmark degrades; Spark > MapReduce)\n")?;

        let mut t =
            Table::new(vec!["benchmark", "family", "solo JCT (s)", "with STREAM", "norm JCT"]);
        let mut mr_norm = Vec::new();
        let mut spark_norm = Vec::new();
        let jcts = colocated_jcts(AntagonistKind::Stream, seed);
        for (bench, (solo, jct)) in Benchmark::ALL.iter().zip(jcts) {
            let norm = jct / solo;
            if bench.is_spark() {
                spark_norm.push(norm);
            } else {
                mr_norm.push(norm);
            }
            t.row(vec![
                bench.name().to_string(),
                if bench.is_spark() { "spark" } else { "mapreduce" }.to_string(),
                format!("{solo:.1}"),
                format!("{jct:.1}"),
                f2(norm),
            ]);
        }
        out.push_str(&t.render());

        let mr = mr_norm.iter().sum::<f64>() / mr_norm.len() as f64;
        let spark = spark_norm.iter().sum::<f64>() / spark_norm.len() as f64;
        writeln!(out, "\nmean normalized JCT: mapreduce {mr:.2}, spark {spark:.2}")?;
        shape_check(out, "Spark hit harder than MapReduce", spark > mr)?;
        Ok(())
    })
}
