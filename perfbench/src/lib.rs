//! The PerfCloud benchmark: four real experiments measured end to end
//! and layer by layer.
//!
//! * [`workloads`] — the workloads as `ExperimentConfig`s, and the timed
//!   run of one experiment through `Experiment::run`;
//! * [`traced`] — the mirror that re-drives an experiment from outside
//!   and times each layer;
//! * [`digest`] — the result digests every run is checked by.
//!
//! The `perfbench` binary runs each measurement in a fresh child process
//! and aggregates; `README.md` describes the workloads and metrics.

pub mod digest;
pub mod traced;
pub mod workloads;
