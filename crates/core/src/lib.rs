//! PerfCloud — the paper's primary contribution.
//!
//! Non-invasive performance isolation for data-intensive scale-out
//! applications in a multi-tenant cloud, built from four pieces wired
//! together by a per-server agent:
//!
//! * [`monitor::PerformanceMonitor`] — samples per-VM counters every 5 s,
//!   takes deltas, smooths with an EWMA (§III-D.1);
//! * [`detector`] — the contention signal: standard deviation **across the
//!   application's VMs** of the block-iowait ratio (threshold ℋ = 10) and of
//!   CPI (threshold ℋ = 1) (§III-A);
//! * [`antagonist::AntagonistIdentifier`] — online Pearson cross-correlation
//!   (missing-as-zero, threshold 0.8, usable from 3 samples) between the
//!   victim's deviation series and each low-priority VM's I/O throughput /
//!   LLC miss rate (§III-B);
//! * [`cubic::CubicController`] — the CUBIC-congestion-control-inspired cap
//!   dynamics of Eq. 1: multiplicative decrease by β = 0.8 under contention,
//!   cubic growth (initial-growth → plateau → probing) otherwise (§III-C);
//! * [`node_manager::NodeManager`] — Algorithm 1: fetches VM priorities and
//!   application membership from the [`cloud::CloudManager`], runs the
//!   pipeline, and applies caps through the hypervisor's blkio-throttle and
//!   `vcpu_quota` actuators (§III-D.2).

pub mod antagonist;
pub mod chaos;
pub mod cloud;
pub mod config;
pub mod cubic;
pub mod detector;
pub mod monitor;
pub mod node_manager;
pub mod pipeline;

pub use antagonist::{AntagonistIdentifier, Resource};
pub use chaos::{ManagerFault, NodeFaults};
pub use cloud::{AppId, CloudManager, Placement, PlacementEpoch, VmRecord};
pub use config::PerfCloudConfig;
pub use cubic::{CubicController, CubicState};
pub use detector::{deviation_across_vms, ContentionSignal};
pub use monitor::{IngestOutcome, IngestStats, PerformanceMonitor, VmMetricKind};
pub use node_manager::{NodeManager, PlacementApplyOutcome, StepReport};
pub use pipeline::{Detector, DetectorKind, Identifier, IdentifierKind, PipelineSpec};
