//! Large-scale workload mixes (§IV-C).
//!
//! The paper drives its 152-node experiments with "two workload mixes of 100
//! MapReduce and 100 Spark benchmarks", where "80% of the MapReduce jobs
//! have less than 10 map/reduce tasks, and 20% of the jobs have 10 to 50
//! tasks" (and likewise for Spark tasks-per-stage) — echoing the Facebook
//! production finding that over 80% of jobs are small. Job sizes, benchmark
//! choices, arrival times and antagonist placements all derive
//! deterministically from the run's seed.

use crate::antagonists::{AntagonistKind, AntagonistPlacement};
use perfcloud_frameworks::{Benchmark, JobSpec};
use perfcloud_sim::{RngFactory, SimTime};
use rand::Rng;

/// Parameters of a workload mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixConfig {
    /// Number of MapReduce jobs.
    pub mapreduce_jobs: usize,
    /// Number of Spark jobs.
    pub spark_jobs: usize,
    /// Fraction of jobs that are small (< 10 tasks).
    pub small_fraction: f64,
    /// Mean gap between consecutive job arrivals, seconds.
    pub mean_arrival_gap: f64,
    /// Number of servers to scatter antagonists over.
    pub servers: usize,
    /// Number of fio antagonists to place at random servers.
    pub fio_antagonists: usize,
    /// Number of STREAM antagonists to place at random servers.
    pub stream_antagonists: usize,
}

impl MixConfig {
    /// The paper's mix: 100 + 100 jobs, 80% small, over 15 servers.
    pub fn paper(servers: usize) -> Self {
        MixConfig {
            mapreduce_jobs: 100,
            spark_jobs: 100,
            small_fraction: 0.8,
            mean_arrival_gap: 12.0,
            servers,
            fio_antagonists: servers / 3,
            stream_antagonists: servers / 3,
        }
    }

    /// A scaled-down mix for tests and quick runs.
    pub fn scaled(self, factor: f64) -> Self {
        MixConfig {
            mapreduce_jobs: ((self.mapreduce_jobs as f64 * factor).round() as usize).max(1),
            spark_jobs: ((self.spark_jobs as f64 * factor).round() as usize).max(1),
            ..self
        }
    }
}

/// A generated mix: job submissions plus antagonist placements.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    /// Jobs with their arrival times, ascending.
    pub jobs: Vec<(SimTime, JobSpec)>,
    /// Antagonists scattered over the servers.
    pub antagonists: Vec<AntagonistPlacement>,
}

impl WorkloadMix {
    /// Generates the mix deterministically from `rng`.
    pub fn generate(config: &MixConfig, rng: &RngFactory) -> Self {
        assert!(config.servers >= 1);
        let mut size_rng = rng.stream("mix/sizes");
        let mut bench_rng = rng.stream("mix/benchmarks");
        let mut arrival_rng = rng.stream("mix/arrivals");
        let mut place_rng = rng.stream("mix/placement");

        let mut jobs = Vec::new();
        let mut t = 0.0f64;
        let total = config.mapreduce_jobs + config.spark_jobs;
        for k in 0..total {
            let is_spark = k >= config.mapreduce_jobs;
            let family = if is_spark { Benchmark::SPARK } else { Benchmark::MAPREDUCE };
            let bench = family[bench_rng.gen_range(0..family.len())];
            let tasks = if size_rng.gen::<f64>() < config.small_fraction {
                size_rng.gen_range(2..10)
            } else {
                size_rng.gen_range(10..=50)
            };
            // Exponential-ish arrival gaps from a uniform draw.
            let u: f64 = arrival_rng.gen::<f64>().max(1e-9);
            t += -config.mean_arrival_gap * u.ln();
            jobs.push((SimTime::from_secs_f64(t), bench.job(tasks)));
        }
        jobs.sort_by_key(|(at, _)| *at);

        let mut antagonists = Vec::new();
        for _ in 0..config.fio_antagonists {
            let s = place_rng.gen_range(0..config.servers);
            antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Fio, s));
        }
        for _ in 0..config.stream_antagonists {
            let s = place_rng.gen_range(0..config.servers);
            antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Stream, s));
        }
        WorkloadMix { jobs, antagonists }
    }

    /// Interference-free baseline JCTs: the set of distinct job specs in
    /// this mix (by name), for solo-baseline measurement.
    pub fn distinct_specs(&self) -> Vec<JobSpec> {
        let mut seen = std::collections::HashSet::new();
        self.jobs
            .iter()
            .filter(|(_, s)| seen.insert(s.name.clone()))
            .map(|(_, s)| s.clone())
            .collect()
    }

    /// Shifts every antagonist to a random start within `window`, modelling
    /// the paper's re-randomized placement per repetition.
    pub fn stagger_antagonists(&mut self, rng: &RngFactory, window: f64) {
        let mut r = rng.stream("mix/antagonist-starts");
        for a in &mut self.antagonists {
            *a = a.starting_at(SimTime::from_secs_f64(r.gen::<f64>() * window));
        }
    }

    /// Total task count across jobs.
    pub fn total_tasks(&self) -> usize {
        self.jobs.iter().map(|(_, s)| s.task_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A six-job mix with one fio and one STREAM antagonist, for fast tests.
    fn tiny_mix(seed: u64, servers: usize) -> WorkloadMix {
        let cfg = MixConfig {
            mapreduce_jobs: 3,
            spark_jobs: 3,
            small_fraction: 0.8,
            mean_arrival_gap: 5.0,
            servers,
            fio_antagonists: 1,
            stream_antagonists: 1,
        };
        WorkloadMix::generate(&cfg, &RngFactory::new(seed))
    }

    #[test]
    fn paper_mix_shape() {
        let cfg = MixConfig::paper(15);
        let mix = WorkloadMix::generate(&cfg, &RngFactory::new(1));
        assert_eq!(mix.jobs.len(), 200);
        let small = mix.jobs.iter().filter(|(_, s)| s.max_tasks_per_stage() < 10).count();
        let frac = small as f64 / mix.jobs.len() as f64;
        assert!((0.70..0.90).contains(&frac), "small fraction {frac}");
        assert_eq!(mix.antagonists.len(), 10);
        // Arrivals are sorted.
        for w in mix.jobs.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn sizes_bounded_as_specified() {
        let mix = WorkloadMix::generate(&MixConfig::paper(15), &RngFactory::new(5));
        for (_, s) in &mix.jobs {
            let t = s.max_tasks_per_stage();
            assert!((2..=50).contains(&t), "size {t} out of range");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = MixConfig::paper(15);
        let a = WorkloadMix::generate(&cfg, &RngFactory::new(9));
        let b = WorkloadMix::generate(&cfg, &RngFactory::new(9));
        assert_eq!(a.jobs.len(), b.jobs.len());
        for ((ta, sa), (tb, sb)) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(ta, tb);
            assert_eq!(sa.name, sb.name);
        }
        let c = WorkloadMix::generate(&cfg, &RngFactory::new(10));
        let same =
            a.jobs.iter().zip(&c.jobs).all(|((ta, sa), (tc, sc))| ta == tc && sa.name == sc.name);
        assert!(!same, "different seeds must differ");
    }

    #[test]
    fn mapreduce_and_spark_split() {
        let mix = WorkloadMix::generate(&MixConfig::paper(15), &RngFactory::new(2));
        let spark = mix
            .jobs
            .iter()
            .filter(|(_, s)| Benchmark::SPARK.iter().any(|b| s.name.starts_with(b.name())))
            .count();
        assert_eq!(spark, 100);
    }

    #[test]
    fn antagonists_land_on_valid_servers() {
        let mix = WorkloadMix::generate(&MixConfig::paper(15), &RngFactory::new(3));
        for a in &mix.antagonists {
            assert!(a.server_idx < 15);
        }
    }

    #[test]
    fn stagger_moves_starts_within_window() {
        let mut mix = tiny_mix(4, 3);
        mix.stagger_antagonists(&RngFactory::new(4), 100.0);
        for a in &mix.antagonists {
            assert!(a.start <= SimTime::from_secs(100));
        }
    }

    #[test]
    fn distinct_specs_dedup_by_name() {
        let mix = tiny_mix(8, 2);
        let d = mix.distinct_specs();
        let mut names: Vec<_> = d.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), d.len());
        assert!(d.len() <= mix.jobs.len());
    }

    #[test]
    fn scaled_mix_shrinks() {
        let cfg = MixConfig::paper(15).scaled(0.1);
        assert_eq!(cfg.mapreduce_jobs, 10);
        assert_eq!(cfg.spark_jobs, 10);
    }
}
