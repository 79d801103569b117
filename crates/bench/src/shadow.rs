//! Shadow mode: replay a telemetry recording through every pipeline cell.
//!
//! The production deployment story behind the accuracy scoreboard is
//! *shadow evaluation*: record the counter stream of a live run once, then
//! drive every candidate (detector × identifier) pipeline from the same
//! recording and score them against the known truth — no pipeline under
//! test ever touches the live system, and every cell sees byte-identical
//! input. This module implements that loop on the simulated testbed: for
//! each cell of [`crate::accuracy`]'s scenario matrix it runs the live
//! experiment with a tee attached, replays the serialized recording
//! through a second build of the same cell, and scores both runs. The
//! live run and the serialized bytes are dropped once parsed, so the
//! replay holds the samples once, in the recording's per-server streams.
//!
//! Because PerfCloud is a closed loop (throttling changes the counters the
//! collector sees next interval), a recording is only a faithful shadow
//! input for the pipeline that produced it; replaying it under the *same*
//! pipeline must reproduce the live decisions exactly. That is the
//! invariant `shadow_bench` enforces cell-for-cell: the replayed
//! scoreboard must be byte-identical to the live one — which `--check`
//! then pins against the committed `accuracy_scoreboard.trace` golden.

use crate::accuracy::{score_run, CellScore, ScenarioSpec};
use crate::sweep;
use perfcloud_cluster::Experiment;
use perfcloud_core::PipelineSpec;
use perfcloud_telemetry::{RecordingFormat, TelemetryReader};
use std::sync::Arc;

/// One shadow-evaluated cell: the live score, the replayed score, and the
/// recording that carried the counters from one to the other.
#[derive(Debug, Clone)]
pub struct ShadowCell {
    /// Score of the live (teeing) run.
    pub live: CellScore,
    /// Score of the run replayed from the recording.
    pub replayed: CellScore,
    /// Samples in the recording.
    pub samples: usize,
    /// Serialized recording size in bytes.
    pub bytes: usize,
}

impl ShadowCell {
    /// Whether the replayed run reproduced the live decisions exactly.
    pub fn matches(&self) -> bool {
        self.live == self.replayed
    }
}

/// Runs one (scenario × pipeline) cell in shadow mode: live run with a
/// binary tee, then a replay of the serialized recording through a fresh
/// build of the same cell.
pub fn run_shadow_cell(scenario: &ScenarioSpec, pipeline: PipelineSpec) -> ShadowCell {
    let mut cfg = (scenario.build)();
    cfg.pipeline = pipeline;
    cfg.telemetry.tee = Some(RecordingFormat::Binary);
    let mut live_e = Experiment::build(cfg);
    live_e.enable_decision_trace();
    live_e.run();
    let live = score_run(&live_e, scenario, pipeline);
    let (recording, bytes) = {
        let bytes = live_e.take_recording().expect("tee armed");
        (TelemetryReader::parse(&bytes).expect("own recording parses"), bytes.len())
    };
    drop(live_e);
    let samples = recording.samples.len();

    let mut cfg = (scenario.build)();
    cfg.pipeline = pipeline;
    cfg.telemetry.replay = Some(Arc::new(recording));
    let mut replay_e = Experiment::build(cfg);
    replay_e.enable_decision_trace();
    replay_e.run();
    let replayed = score_run(&replay_e, scenario, pipeline);

    ShadowCell { live, replayed, samples, bytes }
}

/// Shadow-evaluates the full accuracy matrix — every pipeline over every
/// scenario, in matrix order (parallel but deterministic, like
/// [`crate::accuracy::run_matrix`]).
pub fn run_shadow_matrix() -> Vec<ShadowCell> {
    let scenarios = crate::accuracy::accuracy_scenarios();
    let pipes = crate::accuracy::pipelines();
    let cells: Vec<(usize, usize)> =
        (0..pipes.len()).flat_map(|p| (0..scenarios.len()).map(move |s| (p, s))).collect();
    sweep::run(cells.len(), |i| {
        let (p, s) = cells[i];
        run_shadow_cell(&scenarios[s], pipes[p])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::{accuracy_scenarios, pipelines};

    /// One full cell through the shadow loop — the clean scenario under
    /// the paper pipeline must replay to the exact same score.
    #[test]
    fn clean_cell_shadow_matches() {
        let scenarios = accuracy_scenarios();
        let clean = scenarios.iter().find(|s| s.name == "clean").expect("clean scenario");
        let cell = run_shadow_cell(clean, pipelines()[0]);
        assert!(cell.samples > 0);
        assert!(cell.bytes > cell.samples * 8, "binary records are > 8 bytes each");
        assert!(
            cell.matches(),
            "replay diverged from live: {:?} vs {:?}",
            cell.live,
            cell.replayed
        );
    }
}
