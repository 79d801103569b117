//! Counter-sample sources: where the node manager's samples come from.
//!
//! The paper's monitor reads cgroup and `perf_event` counters from a real
//! hypervisor; this reproduction normally reads them from the simulated
//! [`PhysicalServer`](perfcloud_host::PhysicalServer). This crate abstracts
//! that read behind the [`CounterSource`] trait so the same
//! monitor → detector → identifier pipeline can run against two backends:
//!
//! * [`SimSource`] — wraps `PhysicalServer::snapshots()`; the default, and
//!   byte-identical to the historical direct read;
//! * [`ReplaySource`] — feeds a previously recorded trace back through the
//!   pipeline deterministically, for offline A/B scoring of controllers.
//!
//! Every source can be teed into the versioned recording format
//! ([`TelemetryWriter`] / [`TelemetryReader`], JSONL or compact
//! length-prefixed binary), and a recording replays to byte-identical
//! decisions at any thread count: samples are totally ordered by
//! `(time, vm, seq)` and carry their own timestamps.
//!
//! The crate is deliberately dependency-light (sim + host only, no I/O
//! framework, no serde) so it can sit beside `obs` at the bottom of the
//! dependency stack.

#![warn(missing_docs)]

pub mod record;
pub mod replay;
pub mod source;

pub use record::{
    RecordedSample, RecordingFormat, TelemetryReader, TelemetryRecording, TelemetryWriter,
    RECORDING_MAGIC, RECORDING_VERSION,
};
pub use replay::ReplaySource;
pub use source::{CloneSource, CounterSource, Sample, SimSource};
