//! Deterministic message-passing control plane for PerfCloud.
//!
//! The paper's architecture has node managers "periodically contact the
//! cloud manager" for placement information (§III-D.2). This crate makes
//! that contact a real distributed-systems problem while keeping every run
//! bit-replayable from `(seed, scenario)`:
//!
//! * [`net`] — a simulated network carrying control messages with per-link
//!   latency and jitter, seed-driven drop / duplicate / extra-delay faults,
//!   and named partitions, queued on a hierarchical timer wheel
//!   (`sim::wheel`);
//! * [`proto`] — the wire protocol: epoch-numbered placement updates and
//!   acks, heartbeats, and the modified-Bully election triple;
//! * [`election`] — heartbeat failure detection and the CloudP2P-style
//!   priority Bully election that promotes a standby cloud manager when the
//!   coordinator dies;
//! * [`plane`] — the assembled [`ControlPlane`] gluing replicas, network,
//!   node-manager endpoints, and control-plane fault windows together.
//!
//! With the default single-replica, zero-latency-loopback configuration an
//! update published at a sampling instant is applied at that same instant,
//! before the node managers step on it.

#![warn(missing_docs)]

pub mod election;
pub mod net;
pub mod plane;
pub mod proto;

pub use election::{ElectionConfig, Replica, Role};
pub use net::{DropReason, LinkSpec, NetStats, Partition, SendOutcome, SimNet};
pub use plane::{ControlPlane, ControlPlaneSpec};
pub use proto::{Message, NodeId, Payload, Term, SERVER_BASE};
