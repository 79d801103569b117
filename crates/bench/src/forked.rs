//! Fork-point sweep runner: share one simulation prefix across a sweep.
//!
//! Many figure sweeps run the *same* scenario prefix — boot the cluster,
//! settle the antagonist placement, reach the divergence instant — once per
//! sweep point, then vary a single knob (a cap fraction, an antagonist
//! onset, a mitigation). [`sweep()`] runs the common prefix once on a parent
//! [`Experiment`], forks an independent snapshot per point, applies each
//! point's divergence to its fork, and distributes the forks across the
//! `PERFCLOUD_THREADS` worker pool (forks are `Send`; forking itself is a
//! cheap deep copy done serially on the coordinator).
//!
//! Exactness is inherited from [`Experiment::fork`]: every fork's result,
//! decision trace, and flight export is byte-identical to a fresh run of
//! its diverged configuration, so converting a sweep to fork-points can
//! never change a figure — only its wall time.

use crate::sweep;
use perfcloud_cluster::Experiment;
use std::sync::Mutex;

/// Forks `points` snapshots off `parent` (which has already run the shared
/// prefix) and evaluates `f(point_index, fork)` for each on the sweep
/// thread pool. Results come back in point order.
pub fn sweep<T, F>(parent: &Experiment, points: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Experiment) -> T + Sync,
{
    // Fork serially: `fork()` borrows the parent, and a deep copy is tiny
    // next to the simulation work each point then does in parallel.
    let forks: Vec<Mutex<Option<Experiment>>> =
        (0..points).map(|_| Mutex::new(Some(parent.fork()))).collect();
    sweep::run(points, |i| {
        let fork = forks[i]
            .lock()
            .expect("unpoisoned fork slot")
            .take()
            .expect("each point claims its fork once");
        f(i, fork)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcloud_cluster::{
        AntagonistKind, AntagonistPlacement, ClusterSpec, ExperimentConfig, Mitigation,
    };
    use perfcloud_frameworks::Benchmark;
    use perfcloud_sim::SimTime;

    fn parent() -> Experiment {
        let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(5), Mitigation::Default);
        cfg.jobs.push((SimTime::from_secs(5), Benchmark::Wordcount.job(4)));
        cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Fio, 0).deferred());
        cfg.max_sim_time = SimTime::from_secs(2_000);
        Experiment::build(cfg)
    }

    #[test]
    fn forked_sweep_matches_fresh_runs() {
        let onsets = [10u64, 20, 30];
        let mut p = parent();
        // Shared prefix: everything before the earliest divergence.
        while p.now() < SimTime::from_secs(9) {
            p.step_tick();
        }
        let out = sweep(&p, onsets.len(), |i, mut e| {
            e.start_antagonist(0, SimTime::from_secs(onsets[i]));
            e.run().sole_jct()
        });
        assert_eq!(out.len(), 3);
        for (i, &onset) in onsets.iter().enumerate() {
            let mut fresh = parent();
            fresh.start_antagonist(0, SimTime::from_secs(onset));
            assert_eq!(out[i], fresh.run().sole_jct(), "onset {onset}");
        }
    }
}
