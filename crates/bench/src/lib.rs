//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/figN.rs` regenerates one figure of the paper's
//! evaluation: it builds the corresponding scenario from
//! [`perfcloud_cluster`], runs it, prints the same rows/series the paper
//! plots alongside the paper's reported anchors, and self-checks the
//! qualitative shape (`shape check … HOLDS/VIOLATED`). `run_all` executes
//! everything in sequence; `--fast` shrinks the two expensive sweeps.

pub mod accuracy;
pub mod baseline;
pub mod benchjson;
pub mod forked;
pub mod golden;
pub mod report;
pub mod scenarios;
pub mod shadow;
pub mod sweep;

pub use report::Table;
