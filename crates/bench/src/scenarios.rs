//! Canned paper scenarios shared by the figure harnesses.

use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_core::antagonist::Resource;
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::SimTime;

/// Master seed used by the harnesses (override with `PERFCLOUD_SEED`).
pub fn base_seed() -> u64 {
    std::env::var("PERFCLOUD_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// When the job is submitted in small-scale scenarios.
pub const JOB_START: SimTime = SimTime::from_secs(5);

/// Shared-prefix length for forking at the job submission: 4.9 s, strictly
/// before [`JOB_START`] and the first 5 s sampling instant (ticks are
/// 100 ms), so a fork may still push its job or swap its mitigation exactly.
pub const PREFIX_TICKS: u64 = 49;

/// When antagonists arrive in detection/control scenarios — after the
/// application has established a couple of baseline samples, as in the
/// paper's case studies (its Fig. 10 shows throttling beginning ≈ 15 s in).
pub const ANTAGONIST_ONSET: SimTime = SimTime::from_secs(15);

/// Builds the small-scale (12-node, single-server) experiment with one job
/// and the given antagonists.
pub fn small_scale(
    bench: Benchmark,
    tasks: usize,
    antagonists: Vec<AntagonistPlacement>,
    mitigation: Mitigation,
    seed: u64,
) -> Experiment {
    small_scale_spec(bench.job(tasks), antagonists, mitigation, seed)
}

/// Like [`small_scale`] but with an explicit job spec (e.g. the paper's
/// terasort with exactly 10 maps and 10 reduces).
pub fn small_scale_spec(
    spec: perfcloud_frameworks::JobSpec,
    antagonists: Vec<AntagonistPlacement>,
    mitigation: Mitigation,
    seed: u64,
) -> Experiment {
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(seed), mitigation);
    cfg.jobs.push((JOB_START, spec));
    cfg.antagonists = antagonists;
    cfg.max_sim_time = SimTime::from_secs(7_200);
    Experiment::build(cfg)
}

/// Interference-free JCT of one benchmark at the given size.
pub fn solo_jct(bench: Benchmark, tasks: usize, seed: u64) -> f64 {
    small_scale(bench, tasks, Vec::new(), Mitigation::Default, seed).run().sole_jct()
}

/// The fio random-read benchmark running alone on an otherwise empty
/// Chameleon server: its solo IOPS and bytes/s (the normalization reference
/// for Figs. 1 and 9).
pub fn fio_solo_reference(seed: u64) -> (f64, f64) {
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(seed), Mitigation::Default);
    // No workers do anything; just the antagonist.
    cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Fio, 0));
    cfg.max_sim_time = SimTime::from_secs(60);
    let r = Experiment::build(cfg).run();
    let a = &r.antagonists[0];
    let secs = r.duration.as_secs_f64();
    (a.io_ops / secs, a.io_bytes / secs)
}

/// The STREAM benchmark running alone: solo CPU cores used (reference for
/// static CPU caps).
pub fn stream_solo_cores(seed: u64) -> f64 {
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(seed), Mitigation::Default);
    cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Stream, 0));
    cfg.max_sim_time = SimTime::from_secs(60);
    let r = Experiment::build(cfg).run();
    r.antagonists[0].cpu_time / r.duration.as_secs_f64()
}

/// Every benchmark at 10 tasks, alone and colocated from t = 0 with one
/// `kind` antagonist: `(solo JCT, contended JCT)` in [`Benchmark::ALL`]
/// order. The contended runs differ only in which job arrives at
/// [`JOB_START`], so one contended parent runs [`PREFIX_TICKS`] and each
/// benchmark is a fork with its job pushed in.
pub fn colocated_jcts(kind: AntagonistKind, seed: u64) -> Vec<(f64, f64)> {
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(seed), Mitigation::Default);
    cfg.antagonists.push(AntagonistPlacement::pinned(kind, 0));
    cfg.max_sim_time = SimTime::from_secs(7_200);
    let mut parent = Experiment::build(cfg);
    for _ in 0..PREFIX_TICKS {
        parent.step_tick();
    }
    let contended = crate::forked::sweep(&parent, Benchmark::ALL.len(), |i, mut e| {
        e.push_job(JOB_START, Benchmark::ALL[i].job(10));
        e.run().sole_jct()
    });
    let solos = crate::sweep::run(Benchmark::ALL.len(), |i| solo_jct(Benchmark::ALL[i], 10, seed));
    solos.into_iter().zip(contended).collect()
}

/// The first node manager's `resource` deviation series as `(seconds,
/// value)` points, skipping intervals with no value.
pub fn deviation_points(e: &Experiment, resource: Resource) -> Vec<(f64, f64)> {
    let s = e.node_managers[0].identifier().deviation_series(resource);
    s.iter().filter_map(|(t, v)| v.map(|v| (t.as_secs_f64(), v))).collect()
}

/// The four-antagonist colocation of the paper's §IV-B (fio + STREAM +
/// sysbench oltp + sysbench cpu on the job's server), arriving at
/// [`ANTAGONIST_ONSET`].
pub fn four_antagonists() -> Vec<AntagonistPlacement> {
    [
        AntagonistKind::Fio,
        AntagonistKind::Stream,
        AntagonistKind::SysbenchOltp,
        AntagonistKind::SysbenchCpu,
    ]
    .into_iter()
    .map(|k| AntagonistPlacement::pinned(k, 0).starting_at(ANTAGONIST_ONSET))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_jcts_are_plausible() {
        let jct = solo_jct(Benchmark::Terasort, 4, 7);
        assert!(jct > 5.0 && jct < 400.0, "terasort-4 solo {jct}");
    }

    #[test]
    fn fio_reference_is_positive() {
        let (iops, bps) = fio_solo_reference(7);
        assert!(iops > 1_000.0, "{iops}");
        assert!(bps > 1e6);
    }

    #[test]
    fn stream_reference_uses_its_vcpus() {
        let cores = stream_solo_cores(7);
        assert!(cores > 0.5 && cores <= 2.01, "{cores}");
    }

    #[test]
    fn four_antagonists_cover_all_kinds() {
        let v = four_antagonists();
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|p| p.start == ANTAGONIST_ONSET));
    }
}
