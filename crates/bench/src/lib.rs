//! The figure suite and the shared harness utilities.
//!
//! Each module under [`figs`] regenerates one figure or ablation of the
//! paper's evaluation: it builds the corresponding scenario from
//! [`perfcloud_cluster`], runs it, and returns the rows/series the paper
//! plots alongside the paper's reported anchors, with a self-check of the
//! qualitative shape (`shape check … HOLDS/VIOLATED`). Each binary in
//! `src/bin/` prints one harness's text; `run_all` runs the whole suite in
//! one process, the light harnesses concurrently, and `--fast` shrinks the
//! two expensive sweeps.

pub mod accuracy;
pub mod benchjson;
pub mod cli;
pub mod figs;
pub mod forked;
pub mod golden;
pub mod report;
pub mod scenarios;
pub mod shadow;
pub mod sweep;

pub use report::Table;
