//! Deterministic simulation substrate for the PerfCloud testbed.
//!
//! The cluster experiment (`perfcloud_cluster::Experiment`) is a fixed-tick
//! loop; this crate supplies the pieces every layer of it agrees on:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution virtual clock
//!   with exact integer arithmetic, so runs are reproducible bit-for-bit.
//! * [`RngFactory`] — seedable, *named* random-number streams
//!   (ChaCha8-based). Every stochastic component draws from its own stream,
//!   so adding a component never perturbs the draws seen by another.
//! * [`faults`] — stateless, hash-keyed fault injection.
//! * [`wheel::TimerWheel`] — a hierarchical timer wheel popping entries in
//!   exact `(time, insertion order)` order; the control plane's delivery
//!   queue for in-flight messages.
//!
//! # Example
//!
//! ```
//! use perfcloud_sim::{RngFactory, SimDuration, SimTime};
//! use rand::Rng;
//!
//! let tick = SimDuration::from_millis(100);
//! let t = SimTime::from_secs(1) + tick;
//! assert_eq!(t.as_secs_f64(), 1.1);
//!
//! // Named streams are independent and replay exactly from the seed.
//! let draw = |name: &str| RngFactory::new(42).stream(name).gen::<u64>();
//! assert_eq!(draw("luck"), draw("luck"));
//! assert_ne!(draw("luck"), draw("demand"));
//! ```

pub mod faults;
pub mod rng;
pub mod time;
pub mod wheel;

pub use faults::{
    FaultInjector, FaultKind, FaultRule, FaultScenario, FaultTarget, MessageClass, MetricClass,
};
pub use rng::RngFactory;
pub use time::{SimDuration, SimTime};
