//! Figure 3 — the standard deviation of the block-iowait ratio across the
//! Hadoop VMs as an early I/O-contention indicator.
//!
//! * (a) time series for a terasort job (10 maps + 10 reduces) running
//!   alone vs. colocated with fio random read.
//! * (b) peak deviation for every benchmark, alone vs. colocated.
//!
//! Paper anchors: alone, the deviation never exceeds the threshold ℋ = 10;
//! with fio, the peak grows by ≈ 8.2× for terasort; the pattern holds for
//! all benchmarks; detection is possible "within a few seconds" (here: one
//! 5-second sampling interval after the antagonist arrives).

use crate::report::{f2, shape_check, Table};
use crate::scenarios::*;
use perfcloud_cluster::{AntagonistKind, AntagonistPlacement, Mitigation};
use perfcloud_core::antagonist::Resource;
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::SimDuration;
use std::fmt::Write;

/// Runs a job spec and returns the io-deviation series (time, value).
/// `fio_at` is the antagonist onset (the motivation experiments colocate it
/// from t = 0; the Fig. 3a time series shows a mid-run onset).
fn deviation_series(
    spec: perfcloud_frameworks::JobSpec,
    fio_at: Option<perfcloud_sim::SimTime>,
    seed: u64,
) -> Vec<(f64, f64)> {
    let antagonists = if let Some(at) = fio_at {
        vec![AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(at)]
    } else {
        Vec::new()
    };
    let mut e = small_scale_spec(spec, antagonists, Mitigation::Default, seed);
    let _ = e.run();
    // Keep sampling a little past completion for a clean tail.
    e.run_for(SimDuration::from_secs(10.0));
    deviation_points(&e, Resource::Io)
}

fn peak(series: &[(f64, f64)]) -> f64 {
    series.iter().map(|&(_, v)| v).fold(0.0, f64::max)
}

/// Runs Figure 3 at `seed` and returns its text.
pub fn run(seed: u64) -> String {
    super::report(|out| {
        const H_IO: f64 = 10.0;
        writeln!(out, "=== Figure 3: stddev of block iowait ratio across Hadoop VMs ===\n")?;

        // (a) terasort 10 maps + 10 reduces, time series.
        let spec = Benchmark::Terasort.mapreduce_job(10 * (64 << 20), 10);
        let alone = deviation_series(spec.clone(), None, seed);
        let with_fio = deviation_series(spec, Some(ANTAGONIST_ONSET), seed);
        writeln!(
            out,
            "Fig 3(a): terasort 10m+10r — stddev(block iowait ratio) [ms/op] time series"
        )?;
        let mut t = Table::new(vec!["t (s)", "alone", "with fio"]);
        let n = alone.len().max(with_fio.len());
        for i in 0..n {
            let ta = alone.get(i);
            let tf = with_fio.get(i);
            t.row(vec![
                format!("{:.0}", ta.or(tf).map(|x| x.0).unwrap_or_default()),
                ta.map(|x| f2(x.1)).unwrap_or_default(),
                tf.map(|x| f2(x.1)).unwrap_or_default(),
            ]);
        }
        out.push_str(&t.render());
        let pa = peak(&alone);
        let pf = peak(&with_fio);
        writeln!(
            out,
            "\npeak alone = {pa:.2}, peak with fio = {pf:.2}, ratio = {:.1}x (paper: 8.2x)",
            pf / pa.max(1e-9)
        )?;

        // (b) all benchmarks: peak deviation alone vs. colocated.
        writeln!(out, "\nFig 3(b): peak deviation per benchmark vs threshold H = {H_IO}")?;
        let mut t =
            Table::new(vec!["benchmark", "peak alone", "peak with fio", "alone < H", "fio > H"]);
        let mut all_hold = true;
        for bench in Benchmark::ALL {
            // 20 tasks: long enough that the contended phase spans several
            // sampling intervals for every benchmark.
            let spec = bench.job(20);
            let pa = peak(&deviation_series(spec.clone(), None, seed));
            let pf = peak(&deviation_series(spec, Some(perfcloud_sim::SimTime::ZERO), seed));
            let ok_alone = pa < H_IO;
            let ok_fio = pf > H_IO;
            all_hold &= ok_alone && ok_fio;
            t.row(vec![
                bench.name().to_string(),
                f2(pa),
                f2(pf),
                ok_alone.to_string(),
                ok_fio.to_string(),
            ]);
        }
        out.push_str(&t.render());
        writeln!(out)?;
        shape_check(out, "threshold separates alone from contended for all benchmarks", all_hold)?;
        Ok(())
    })
}
