//! Multi-server cloud assembly and the paper's experiment machinery.
//!
//! This crate glues the substrates together into runnable experiments:
//!
//! * [`topology`] — builds virtual Hadoop clusters: worker VMs spread over
//!   physical servers, registered with the cloud manager (the paper's
//!   12-node single-server and 152-node / 15-server setups);
//! * [`antagonists`] — declarative antagonist placements (which VM, which
//!   server, which workload, when);
//! * [`experiment`] — the driver loop: ticks servers, runs the framework
//!   scheduler, fires the per-server node managers every sampling interval,
//!   and collects results (one [`Mitigation`] strategy per run);
//! * [`placement`] — the interference-aware placement runtime: feeds
//!   identify verdicts into the `place` crate's decayed ledger and
//!   executes the migrations `place::best_move` picks through the control
//!   plane;
//! * [`mix`] — the large-scale workload mixes (100 MapReduce + 100 Spark
//!   jobs, 80% small) of §IV-C;
//! * [`metrics`] — normalized JCT, degradation breakdowns and
//!   resource-utilization efficiency, as reported in Figs. 11–12.

pub mod antagonists;
pub mod experiment;
pub mod labels;
pub mod metrics;
pub mod mix;
pub mod placement;
pub mod topology;
pub mod trace;

pub use antagonists::{AntagonistKind, AntagonistPlacement};
pub use experiment::{Experiment, ExperimentConfig, ExperimentResult, Mitigation, TelemetrySpec};
pub use labels::{GroundTruth, TruthEntry};
pub use metrics::{mean_efficiency, normalize_jcts, DegradationBreakdown};
pub use mix::{MixConfig, WorkloadMix};
pub use placement::PlacementRuntime;
pub use topology::{ClusterSpec, Testbed};
pub use trace::{DecisionTrace, StepView, TraceEntry};
