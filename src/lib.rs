//! # PerfCloud
//!
//! A from-scratch Rust reproduction of *Performance Isolation of
//! Data-Intensive Scale-out Applications in a Multi-tenant Cloud*
//! (Lama, Wang, Zhou, Cheng — IPDPS 2018).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`sim`] — virtual clock, named RNG streams, fault injection and the
//!   timer wheel the control plane queues messages on.
//! * [`stats`] — EWMA, cross-VM deviation, Pearson (missing-as-zero),
//!   quantiles/boxplots/CDFs.
//! * [`host`] — the simulated multi-tenant physical server: CPU scheduler
//!   with hard caps, block device with cgroup accounting and throttling, LLC
//!   and memory-bandwidth contention, per-VM performance counters.
//! * [`workloads`] — fio random read, STREAM, sysbench oltp/cpu antagonists.
//! * [`frameworks`] — HDFS, MapReduce and Spark scale-out substrates with
//!   PUMA / SparkBench workload profiles.
//! * [`core`] — **the paper's contribution**: performance monitor,
//!   interference detector, antagonist identifier, CUBIC-inspired resource
//!   controller, node manager and cloud manager.
//! * [`ctrl`] — deterministic message-passing control plane: simulated
//!   network links with loss/duplication/reorder, heartbeat failure
//!   detection and Bully election for cloud-manager failover, epoch-stamped
//!   placement synchronization.
//! * [`place`] — interference-aware placement: usage-vector scoring, the
//!   antagonist-aware migration rule fed by identify verdicts, and a
//!   pre-copy live-migration model.
//! * [`baselines`] — LATE speculative execution, Dolly job cloning, static
//!   capping and the unmanaged default.
//! * [`cluster`] — multi-server experiment assembly, workload mixes and the
//!   metrics reported in the paper's evaluation.
//! * [`obs`] — deterministic observability: fixed-capacity metrics
//!   registry, typed flight recorder, and Perfetto/JSONL trace export.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: a 6-VM virtual Hadoop
//! cluster colocated with a fio antagonist, with and without PerfCloud.

pub use perfcloud_baselines as baselines;
pub use perfcloud_cluster as cluster;
pub use perfcloud_core as core;
pub use perfcloud_ctrl as ctrl;
pub use perfcloud_frameworks as frameworks;
pub use perfcloud_host as host;
pub use perfcloud_obs as obs;
pub use perfcloud_place as place;
pub use perfcloud_sim as sim;
pub use perfcloud_stats as stats;
pub use perfcloud_workloads as workloads;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use perfcloud_sim::{RngFactory, SimDuration, SimTime};
    pub use perfcloud_stats::{BoxplotSummary, Ewma, TimeSeries};
}
