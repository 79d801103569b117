//! Figure 9 — impact of PerfCloud's dynamic resource control.
//!
//! Scenario (paper §IV-B): Spark logistic regression (≤ 40 tasks per stage)
//! on the 12-node single-server cluster, colocated with fio random read,
//! STREAM, sysbench oltp and sysbench cpu. Compared systems: the default
//! (no control), a static capping policy (20% I/O cap on the fio VM, 20%
//! CPU cap on the STREAM VM) and PerfCloud.
//!
//! Output: (a) iowait-ratio deviation time series, (b) CPI deviation time
//! series — both default vs PerfCloud; (c) job completion times and
//! antagonist throughput.
//!
//! Paper anchors: PerfCloud sharply reduces both deviations; PerfCloud and
//! static capping beat the default by ~31% and ~33%; PerfCloud costs the
//! antagonists less than permanent static caps.

use crate::report::{f2, shape_check, Table};
use crate::scenarios::*;
use perfcloud_baselines::StaticCapping;
use perfcloud_cluster::{Experiment, ExperimentResult, Mitigation};
use perfcloud_core::antagonist::Resource;
use perfcloud_core::PerfCloudConfig;
use perfcloud_frameworks::Benchmark;
use perfcloud_host::VmId;
use std::fmt::Write;

const TASKS: usize = 40;

/// Runs one compared system, recording its decision trace when `trace`.
fn run_system(mitigation: Mitigation, seed: u64, trace: bool) -> (Experiment, ExperimentResult) {
    let mut e =
        small_scale(Benchmark::LogisticRegression, TASKS, four_antagonists(), mitigation, seed);
    if trace {
        e.enable_decision_trace();
    }
    let r = e.run();
    (e, r)
}

/// Runs Figure 9 at `seed` and returns its text.
pub fn run(seed: u64) -> String {
    super::report(|out| {
        writeln!(out, "=== Figure 9: dynamic resource control on Spark logistic regression ===\n")?;

        let solo = solo_jct(Benchmark::LogisticRegression, TASKS, seed);
        let (fio_iops, fio_bps) = fio_solo_reference(seed);
        let stream_cores = stream_solo_cores(seed);

        let (e_def, r_def) = run_system(Mitigation::Default, seed, false);
        let static_policy = StaticCapping::new().cap_io(VmId(10), 0.2, fio_iops, fio_bps).cap_cpu(
            VmId(11),
            0.2,
            stream_cores,
        );
        let (_e_static, r_static) = run_system(Mitigation::StaticCap(static_policy), seed, false);
        let (e_pc, r_pc) =
            run_system(Mitigation::PerfCloud(PerfCloudConfig::default()), seed, true);

        // (a) + (b): deviation series.
        for (label, resource, threshold) in [
            ("a) stddev of block iowait ratio [ms/op]", Resource::Io, 10.0),
            ("b) stddev of CPI", Resource::Cpu, 1.0),
        ] {
            writeln!(out, "Fig 9({label}); threshold H = {threshold}")?;
            let d = deviation_points(&e_def, resource);
            let p = deviation_points(&e_pc, resource);
            let mut t = Table::new(vec!["t (s)", "default", "perfcloud"]);
            let n = d.len().max(p.len());
            for i in 0..n {
                t.row(vec![
                    d.get(i).or(p.get(i)).map(|x| format!("{:.0}", x.0)).unwrap_or_default(),
                    d.get(i).map(|x| f2(x.1)).unwrap_or_default(),
                    p.get(i).map(|x| f2(x.1)).unwrap_or_default(),
                ]);
            }
            out.push_str(&t.render());
            let mean = |xs: &[(f64, f64)]| {
                let tail: Vec<f64> = xs
                    .iter()
                    .filter(|x| x.0 > ANTAGONIST_ONSET.as_secs_f64())
                    .map(|x| x.1)
                    .collect();
                tail.iter().sum::<f64>() / tail.len().max(1) as f64
            };
            writeln!(
                out,
                "mean post-onset deviation: default {:.2}, perfcloud {:.2}\n",
                mean(&d),
                mean(&p)
            )?;
        }

        // (c): JCT comparison.
        writeln!(
            out,
            "Fig 9(c): job completion time (paper: PerfCloud and static beat default by ~31-33%)"
        )?;
        let mut t = Table::new(vec!["system", "JCT (s)", "norm vs solo", "vs default"]);
        for (name, r) in [("default", &r_def), ("static-cap-20%", &r_static), ("perfcloud", &r_pc)]
        {
            let jct = r.sole_jct();
            t.row(vec![
                name.to_string(),
                format!("{jct:.1}"),
                f2(jct / solo),
                format!("{:+.0}%", (jct / r_def.sole_jct() - 1.0) * 100.0),
            ]);
        }
        out.push_str(&t.render());

        // Antagonist cost: how much throughput the low-priority VMs retain.
        writeln!(
            out,
            "\nAntagonist throughput retained (vs default run; higher is better for tenants)"
        )?;
        let mut t = Table::new(vec!["antagonist", "static-cap", "perfcloud"]);
        let horizon = |r: &ExperimentResult| r.duration.as_secs_f64();
        for (label, pick) in [("fio IOPS", 0usize), ("STREAM instr/s", 1)] {
            let rate = |r: &ExperimentResult| {
                let a = &r.antagonists[pick];
                match pick {
                    0 => a.io_ops / horizon(r),
                    _ => a.instructions / horizon(r),
                }
            };
            let d = rate(&r_def);
            t.row(vec![label.to_string(), f2(rate(&r_static) / d), f2(rate(&r_pc) / d)]);
        }
        out.push_str(&t.render());

        let improve_pc = 1.0 - r_pc.sole_jct() / r_def.sole_jct();
        let improve_st = 1.0 - r_static.sole_jct() / r_def.sole_jct();
        writeln!(
            out,
            "\nimprovement over default: perfcloud {:.0}%, static {:.0}% (paper: 31% / 33%)",
            improve_pc * 100.0,
            improve_st * 100.0
        )?;
        shape_check(
            out,
            "both improve over default substantially",
            improve_pc > 0.1 && improve_st > 0.1,
        )?;

        let capped = |caps: &[(VmId, f64)], vm: VmId| caps.iter().any(|&(v, _)| v == vm);
        let any_caps = e_pc.decision_trace().expect("trace enabled").steps().any(|s| {
            s.server == 0
                && (capped(s.caps(Resource::Io), VmId(10))
                    || capped(s.caps(Resource::Cpu), VmId(11)))
        });
        shape_check(out, "PerfCloud actually throttled an antagonist", any_caps)?;
        Ok(())
    })
}
