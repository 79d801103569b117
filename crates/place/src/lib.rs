//! Interference-aware VM placement: the migration rule that closes the
//! control loop the paper leaves as future work (§VI — "complementary
//! solutions such as VM migration").
//!
//! Three layers, all deterministic:
//!
//! - [`score`]: usage-vector demand profiles per VM (CPU / disk / net),
//!   VUPIC-style complementary-resource affinity scoring, and a decayed
//!   interference-penalty ledger fed by node-manager identify verdicts.
//! - [`policy`]: [`best_move`], the antagonist-aware rule that consumes
//!   identify history to pick at most one VM to move.
//! - [`migrate`]: a pre-copy live-migration model — dirty-rate-driven
//!   transfer time, source/destination CPU tax, and a brief
//!   stop-and-copy stall for the migrated VM.
//!
//! The crate itself moves no VM: the rule returns a [`MigrationProposal`]
//! and the model returns phase timelines. Execution — extracting the VM
//! from its source server, republishing the registry through the epoch'd
//! control plane — belongs to the experiment driver, which makes every
//! decision between ticks, after the sampling phase.

#![warn(missing_docs)]

pub mod migrate;
pub mod policy;
pub mod score;

pub use migrate::{ActiveMigration, MigrationModel, MigrationPhase, MigrationPlan};
pub use policy::{best_move, MigrationCandidate, MigrationProposal, PlacementConfig};
pub use score::{affinity, conflict, InterferenceHistory, ServerLoad, UsageVector};
