//! Figure 5 — identifying an I/O antagonist by cross-correlation.
//!
//! Scenario (paper §III-B): terasort VMs colocated with a fio random-read
//! VM, a sysbench-oltp VM (8 threads, read-only) and a sysbench-cpu VM
//! (4 threads, primes). Output:
//!
//! * (a) the victim's normalized iowait-ratio deviation series;
//! * (b) each suspect's normalized I/O throughput series;
//! * (c) Pearson correlation vs. dataset size.
//!
//! Paper anchors: fio correlates strongly (≥ 0.8) from a dataset as small
//! as 3 samples; oltp and cpu stay well below the threshold.

use crate::report::{f3, shape_check, Table};
use crate::scenarios::*;
use perfcloud_cluster::{AntagonistKind, AntagonistPlacement, Mitigation};
use perfcloud_core::antagonist::Resource;
use perfcloud_core::VmMetricKind;
use perfcloud_frameworks::Benchmark;
use perfcloud_host::VmId;
use perfcloud_sim::SimDuration;
use perfcloud_stats::pearson::pearson_missing_as_zero;
use perfcloud_stats::timeseries::align_tail;
use std::fmt::Write;

/// Runs Figure 5 at `seed` and returns its text.
pub fn run(seed: u64) -> String {
    super::report(|out| {
        writeln!(out, "=== Figure 5: I/O antagonist identification ===\n")?;

        let antagonists = vec![
            AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(ANTAGONIST_ONSET),
            AntagonistPlacement::pinned(AntagonistKind::SysbenchOltp, 0),
            AntagonistPlacement::pinned(AntagonistKind::SysbenchCpu, 0),
        ];
        let spec = Benchmark::Terasort.mapreduce_job(10 * (64 << 20), 10);
        let mut e = small_scale_spec(spec, antagonists, Mitigation::Default, seed);
        let _ = e.run();
        e.run_for(SimDuration::from_secs(10.0));

        let suspects =
            [(VmId(10), "fio-randread"), (VmId(11), "sysbench-oltp"), (VmId(12), "sysbench-cpu")];
        let nm = &e.node_managers[0];
        let victim = nm.identifier().deviation_series(Resource::Io);
        let victim_norm = victim.normalized_by_peak();

        // (a) + (b): normalized series, one row per sample.
        writeln!(out, "Fig 5(a,b): normalized deviation and suspect I/O throughput series")?;
        let suspect_series: Vec<_> = suspects
            .iter()
            .map(|&(vm, _)| {
                let s = nm.monitor().series(vm, VmMetricKind::IoBps).expect("suspect monitored");
                Some(s.normalized_by_peak())
            })
            .collect();
        let headers = vec!["t (s)", "victim dev", "fio", "oltp", "cpu"];
        out.push_str(&super::series_table(headers, &victim_norm, &suspect_series).render());

        // (c): correlation vs dataset size. Identification runs online *while
        // the victim application exists*, so the dataset is the most recent
        // `size` samples of the job's lifetime (trailing post-job samples,
        // where there is no victim to protect, are excluded).
        writeln!(out, "\nFig 5(c): Pearson correlation vs dataset size (missing-as-zero)")?;
        writeln!(out, "(paper: fio >= 0.8 from size 3; sysbench oltp/cpu stay below)")?;
        let alive = victim.trim_trailing_missing();
        let mut t = Table::new(vec!["dataset size", "fio", "oltp", "cpu"]);
        let mut fio_at_3 = 0.0;
        let mut fio_beats_decoys = true;
        let mut decoys_ok = true;
        // The dataset accumulates from the last sample before the suspect
        // became active (the paper's Fig. 5a/b series likewise span the onset).
        let onset_idx = alive.times().rposition(|u| u < ANTAGONIST_ONSET).unwrap_or(0);
        for size in [3usize, 6, 9, 12, 15] {
            let mut row = vec![size.to_string()];
            let mut fio_row = 0.0;
            for (k, &(vm, _)) in suspects.iter().enumerate() {
                let usage = nm.monitor().series(vm, VmMetricKind::IoBps).expect("series");
                let (mut x, mut y) = (Vec::new(), Vec::new());
                align_tail(alive, usage, alive.len(), &mut x, &mut y);
                let end = (onset_idx + size).min(x.len());
                let start = end.saturating_sub(size);
                let r = pearson_missing_as_zero(&x[start..end], &y[start..end]).unwrap_or(0.0);
                if k == 0 {
                    if size == 3 {
                        fio_at_3 = r;
                    }
                    fio_row = r;
                } else {
                    decoys_ok &= r < 0.8;
                    fio_beats_decoys &= fio_row > r;
                }
                row.push(f3(r));
            }
            t.row(row);
        }
        out.push_str(&t.render());

        writeln!(out)?;
        shape_check(
            out,
            "fio identified, r >= 0.8, from a dataset as small as 3",
            fio_at_3 >= 0.8,
        )?;
        shape_check(out, "oltp/cpu never cross the threshold", decoys_ok)?;
        shape_check(out, "fio outranks the decoys at every size", fio_beats_decoys)?;
        Ok(())
    })
}
