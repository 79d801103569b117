//! Figure 4 — the standard deviation of CPI across the application's VMs as
//! a shared-processor-contention indicator.
//!
//! Paper anchors: the peak CPI deviation never exceeds ℋ = 1 when the
//! benchmarks run alone; with a colocated STREAM VM it is "much higher than
//! 1" for every benchmark, and the deviation correlates with the amount of
//! degradation (Spark benchmarks suffer more).

use crate::report::{f2, shape_check, Table};
use crate::scenarios::*;
use perfcloud_cluster::{AntagonistKind, AntagonistPlacement, Mitigation};
use perfcloud_core::antagonist::Resource;
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::SimDuration;
use std::fmt::Write;

fn cpi_deviation_peak(bench: Benchmark, with_stream: bool, seed: u64) -> f64 {
    let antagonists = if with_stream {
        vec![AntagonistPlacement::pinned(AntagonistKind::Stream, 0).starting_at(ANTAGONIST_ONSET)]
    } else {
        Vec::new()
    };
    let mut e = small_scale(bench, 10, antagonists, Mitigation::Default, seed);
    let _ = e.run();
    e.run_for(SimDuration::from_secs(10.0));
    let s = e.node_managers[0].identifier().deviation_series(Resource::Cpu);
    s.values().iter().filter_map(|v| *v).fold(0.0, f64::max)
}

/// Runs Figure 4 at `seed` and returns its text.
pub fn run(seed: u64) -> String {
    super::report(|out| {
        const H_CPI: f64 = 1.0;
        writeln!(out, "=== Figure 4: stddev of CPI across application VMs ===")?;
        writeln!(out, "(paper: peaks < 1 alone, > 1 with a colocated STREAM VM)\n")?;

        let mut t = Table::new(vec![
            "benchmark",
            "family",
            "peak alone",
            "peak with STREAM",
            "alone < H",
            "stream > H",
        ]);
        let mut all_hold = true;
        let mut spark_peaks = Vec::new();
        let mut mr_peaks = Vec::new();
        for bench in Benchmark::ALL {
            let pa = cpi_deviation_peak(bench, false, seed);
            let ps = cpi_deviation_peak(bench, true, seed);
            let ok = pa < H_CPI && ps > H_CPI;
            all_hold &= ok;
            if bench.is_spark() {
                spark_peaks.push(ps);
            } else {
                mr_peaks.push(ps);
            }
            t.row(vec![
                bench.name().to_string(),
                if bench.is_spark() { "spark" } else { "mapreduce" }.to_string(),
                f2(pa),
                f2(ps),
                (pa < H_CPI).to_string(),
                (ps > H_CPI).to_string(),
            ]);
        }
        out.push_str(&t.render());

        writeln!(out)?;
        shape_check(out, "H = 1 separates alone from contended for all benchmarks", all_hold)?;
        let spark = spark_peaks.iter().sum::<f64>() / spark_peaks.len() as f64;
        let mr = mr_peaks.iter().sum::<f64>() / mr_peaks.len() as f64;
        writeln!(out, "mean contended peak: spark {spark:.2} vs mapreduce {mr:.2}")?;
        Ok(())
    })
}
