//! Simulated multi-tenant physical server.
//!
//! This crate is the testbed substrate PerfCloud runs on: a fluid-flow model
//! of one physical machine hosting KVM-style VMs, advanced in fixed ticks by
//! the cluster experiment loop. It exposes exactly the surface the paper's
//! node manager uses on real hardware:
//!
//! * **per-VM cumulative counters** ([`counters`]) with the semantics of
//!   cgroup blkio (`io_serviced`, `io_service_bytes`, `io_wait_time`) and
//!   `perf_event` (cycles, instructions, LLC references/misses) — the monitor
//!   samples them and takes deltas, as the paper does via libvirt/perf;
//! * **actuators** — per-VM disk throttles (IOPS / bytes-per-sec caps, the
//!   blkio throttling policy) and CPU hard caps (`vcpu_quota`);
//! * **contention** — a shared block device with queueing-delay inflation, a
//!   shared last-level cache and memory bandwidth that inflate CPI.
//!
//! The one deliberately synthetic ingredient is *per-VM jitter*: on real
//! hardware, VMs sharing a saturated device do not suffer equally — bursty
//! queueing parks some VMs' requests behind the antagonist's. We model that
//! with per-VM AR(1) "luck" processes whose amplitude grows with utilization
//! ([`jitter`]), which reproduces the paper's key observable: the standard
//! deviation of block-iowait ratio / CPI *across* an application's VMs stays
//! under the detection threshold when the application runs alone and blows
//! up under contention (Figs. 3–4).

pub mod config;
pub mod counters;
pub mod cpu;
pub mod demand;
pub mod disk;
pub mod jitter;
pub mod memory;
pub mod server;
pub mod throttle;
pub mod vm;

pub use config::{DiskConfig, MemoryConfig, Priority, ServerConfig, VmConfig};
pub use counters::{CounterSnapshot, VmCounters};
pub use demand::{Achieved, IoPattern, Process, ProcessId, ResourceDemand};
pub use server::{FinishedProcess, PhysicalServer, ServerId, TickReport};
pub use vm::{Vm, VmId};
