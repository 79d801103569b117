//! Figure 10 — resource caps applied by PerfCloud over time.
//!
//! Runs the Fig. 9 PerfCloud scenario and prints the normalized I/O cap on
//! the fio VM and the normalized CPU cap on the STREAM VM per control
//! interval, annotated with the CUBIC region each cap value falls in.
//!
//! Paper anchors: caps drop multiplicatively when contention is detected
//! shortly after the antagonists arrive, stay low through the initial
//! growth and plateau (~15–40 s in the paper), then probe upward
//! aggressively; a later deviation spike re-throttles the fio VM.

use crate::report::{f3, shape_check, Table};
use crate::scenarios::*;
use perfcloud_cluster::Mitigation;
use perfcloud_core::PerfCloudConfig;
use perfcloud_frameworks::Benchmark;
use perfcloud_host::VmId;
use perfcloud_sim::SimDuration;
use std::fmt::Write;

/// Runs Figure 10 at `seed` and returns its text.
pub fn run(seed: u64) -> String {
    super::report(|out| {
        writeln!(out, "=== Figure 10: PerfCloud resource caps over time ===\n")?;

        let mut e = small_scale(
            Benchmark::LogisticRegression,
            40,
            four_antagonists(),
            Mitigation::PerfCloud(PerfCloudConfig::default()),
            seed,
        );
        let _ = e.run();
        e.run_for(SimDuration::from_secs(30.0)); // watch the caps release

        let nm = &e.node_managers[0];
        let io = nm.io_cap_trace(VmId(10));
        let cpu = nm.cpu_cap_trace(VmId(11));

        writeln!(
            out,
            "normalized caps (1.0 = antagonist's usage when control began; blank = uncapped)"
        )?;
        let mut t = Table::new(vec!["t (s)", "fio I/O cap", "STREAM CPU cap"]);
        let times: Vec<_> = {
            let mut all: Vec<u64> = io
                .map(|s| s.times().iter().map(|t| t.as_micros()).collect::<Vec<_>>())
                .unwrap_or_default();
            if let Some(c) = cpu {
                all.extend(c.times().iter().map(|t| t.as_micros()));
            }
            all.sort_unstable();
            all.dedup();
            all
        };
        let lookup = |trace: Option<&perfcloud_stats::TimeSeries>, us: u64| -> String {
            trace
                .and_then(|s| {
                    s.times().iter().position(|t| t.as_micros() == us).and_then(|k| s.values()[k])
                })
                .map(f3)
                .unwrap_or_default()
        };
        for us in &times {
            t.row(vec![format!("{:.0}", *us as f64 / 1e6), lookup(io, *us), lookup(cpu, *us)]);
        }
        out.push_str(&t.render());

        // Shape checks.
        let io_caps: Vec<f64> =
            io.map(|s| s.values().iter().filter_map(|v| *v).collect()).unwrap_or_default();
        let cpu_caps: Vec<f64> =
            cpu.map(|s| s.values().iter().filter_map(|v| *v).collect()).unwrap_or_default();
        let drop_to_20 = |caps: &[f64]| caps.first().is_some_and(|&c| c <= 0.21);
        let drop_ok = (!io_caps.is_empty() || !cpu_caps.is_empty())
            && (io_caps.is_empty() || drop_to_20(&io_caps))
            && (cpu_caps.is_empty() || drop_to_20(&cpu_caps));
        writeln!(out)?;
        shape_check(out, "first applied cap = multiplicative decrease to 20%", drop_ok)?;
        let recovers = io_caps.iter().any(|&c| c > 0.8) || cpu_caps.iter().any(|&c| c > 0.8);
        shape_check(out, "caps recover via cubic growth / probing", recovers)?;
        let rethrottle = |caps: &[f64]| caps.windows(2).any(|w| w[1] < w[0] * 0.5 && w[0] > 0.3);
        writeln!(
            out,
            "observation (a later re-throttle occurred, as in the paper's t=65s event): {}",
            if rethrottle(&io_caps) || rethrottle(&cpu_caps) { "yes" } else { "no" }
        )?;
        Ok(())
    })
}
