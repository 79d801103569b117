//! Deterministic observability for the PerfCloud testbed.
//!
//! Three pieces, all dependency-free so every crate in the workspace can
//! use them:
//!
//! - [`metrics`]: a fixed-capacity registry of counters. Every update is
//!   u64 integer math; after construction no path allocates. Snapshots
//!   render to the same flat `(name, value)` pairs the `BENCH_*.json`
//!   records use.
//! - [`flight`]: a bounded ring buffer of typed, `Copy`, sim-time-stamped
//!   events — a flight recorder. Every component that makes decisions
//!   (node manager, telemetry collector, control plane, chaos injector) can
//!   carry one;
//!   when something diverges, the last N events explain *why*, in
//!   deterministic `(time, seq)` order.
//! - [`export`]: merges any number of recorders into Chrome-trace-event
//!   JSON (loadable in Perfetto, one track per source) or JSONL. Output
//!   depends only on the recorded events, never on wall-clock time or
//!   thread scheduling, so trace files are byte-identical across runs.
//!
//! Time is represented as raw `u64` microseconds (the simulator's native
//! tick), so this crate needs no dependency on `perfcloud-sim`.

#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod metrics;

pub use export::{chrome_trace, jsonl, merged_dump, prometheus_text, ExportSource};
pub use flight::{FlightEvent, FlightRecorder, Record, Resource, SAMPLE_EVENT_DECIMATION};
pub use metrics::{CounterId, MetricsRegistry};
