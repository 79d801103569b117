//! Scale-out data-processing substrates.
//!
//! The paper evaluates PerfCloud on Hadoop MapReduce (PUMA suite) and Spark
//! (SparkBench). This crate implements the framework layer those benchmarks
//! run on, as it matters to the experiments:
//!
//! * [`hdfs`] — the 64 MB block size: map-task counts and map input sizes
//!   derive from it.
//! * [`task`] — tasks as multi-phase [`perfcloud_host::Process`]es (read →
//!   compute → write). Task duration is *emergent* from contention on the
//!   simulated host, which is what creates stragglers.
//! * [`job`] — jobs as sequences of stages (MapReduce: map then reduce;
//!   Spark: a stage DAG linearized), with attempt tracking (speculative
//!   copies, clones, kills) and the paper's resource-utilization-efficiency
//!   accounting.
//! * [`profiles`] — the six benchmarks as resource-mix profiles: terasort,
//!   wordcount, inverted-index (MapReduce); page-rank, logistic regression,
//!   svm (Spark).
//! * [`scheduler`] — a slot-based JobTracker/Spark-master hybrid that
//!   launches attempts onto worker VMs, detects completions, supports
//!   first-attempt-wins with kill of losers, and exposes the hook
//!   ([`scheduler::SpeculationPolicy`]) that the LATE baseline plugs into.

pub mod hdfs;
pub mod job;
pub mod profiles;
pub mod scheduler;
pub mod task;

pub use job::{AttemptId, JobId, JobOutcome, JobSpec, JobState, StageSpec, TaskId};
pub use profiles::Benchmark;
pub use scheduler::{FrameworkScheduler, NoSpeculation, SpeculationPolicy, Worker};
pub use task::{Phase, TaskProcess, TaskSpec};
