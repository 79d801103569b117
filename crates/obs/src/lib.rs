//! Deterministic observability for the PerfCloud testbed.
//!
//! Three pieces, all dependency-free so every crate in the workspace can
//! use them:
//!
//! - [`metrics`]: a fixed-capacity registry of counters. Every update is
//!   u64 integer math; after construction no path allocates. Snapshots
//!   render to the same flat `(name, value)` pairs the `BENCH_*.json`
//!   records use.
//! - [`flight`]: typed, `Copy`, sim-time-stamped events and a bounded ring
//!   buffer of them — a flight recorder. The control plane and its network
//!   each carry one; the node manager's events (agent, telemetry collector,
//!   chaos injector) are stored in the decision trace and rendered into
//!   per-server tracks of the same [`Record`]s. When something diverges,
//!   the events explain *why*, in deterministic `(time, seq)` order.
//! - [`export`]: merges any number of tracks into Chrome-trace-event
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

pub use export::{chrome_trace, jsonl, prometheus_text, ExportSource};
pub use flight::{FlightEvent, FlightRecorder, Record, Resource, SAMPLE_EVENT_DECIMATION};
pub use metrics::{CounterId, MetricsRegistry};
