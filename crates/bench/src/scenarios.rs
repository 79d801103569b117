//! Canned paper scenarios shared by the figure binaries.

use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_frameworks::Benchmark;
use perfcloud_sim::SimTime;

/// Master seed used by the harnesses (override with `PERFCLOUD_SEED`).
pub fn base_seed() -> u64 {
    std::env::var("PERFCLOUD_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// When the job is submitted in small-scale scenarios.
pub const JOB_START: SimTime = SimTime::from_secs(5);

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

/// Interference-free JCT of one benchmark at the given size. Served from
/// the cross-figure baseline cache when `run_all` has precomputed it (the
/// cached value is bit-identical to a fresh computation).
pub fn solo_jct(bench: Benchmark, tasks: usize, seed: u64) -> f64 {
    if let Some(v) = crate::baseline::cached(&crate::baseline::solo_jct_key(bench, tasks, seed)) {
        return v;
    }
    small_scale(bench, tasks, Vec::new(), Mitigation::Default, seed).run().sole_jct()
}

/// The fio random-read benchmark running alone on an otherwise empty
/// Chameleon server: its solo IOPS and bytes/s (the normalization reference
/// for Figs. 1 and 9).
pub fn fio_solo_reference(seed: u64) -> (f64, f64) {
    let (iops_key, bps_key) = crate::baseline::fio_keys(seed);
    if let (Some(iops), Some(bps)) =
        (crate::baseline::cached(&iops_key), crate::baseline::cached(&bps_key))
    {
        return (iops, bps);
    }
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
    if let Some(v) = crate::baseline::cached(&crate::baseline::stream_key(seed)) {
        return v;
    }
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(seed), Mitigation::Default);
    cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Stream, 0));
    cfg.max_sim_time = SimTime::from_secs(60);
    let r = Experiment::build(cfg).run();
    r.antagonists[0].cpu_time / r.duration.as_secs_f64()
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
