//! The traced mirror must reproduce `Experiment::run` bit for bit on every
//! workload, and `finemon_replay` must reproduce the `finemon` run its
//! recordings came from. Both are checked at the reduced size.

use perfcloud_perfbench::workloads::{run_cell, Size, Workload};
use perfcloud_perfbench::{digest, traced};
use perfcloud_telemetry::TelemetryReader;
use std::sync::Arc;

const SEED: u64 = 11;

#[test]
fn mirror_reproduces_run_on_every_workload() {
    let mut finemon: Vec<_> =
        Workload::Finemon.cells(SEED, Size::Mini).iter().map(|c| run_cell(c, || None)).collect();
    let recordings: Vec<_> = finemon
        .iter_mut()
        .map(|r| {
            let bytes = r.experiment.take_recording().expect("finemon tees");
            Arc::new(TelemetryReader::parse(&bytes).expect("recording parses"))
        })
        .collect();
    for workload in Workload::ALL {
        for (k, cell) in workload.cells(SEED, Size::Mini).iter().enumerate() {
            let replay = (workload == Workload::FinemonReplay).then(|| recordings[k].clone());
            let timed = run_cell(cell, || replay.clone());
            assert_eq!(timed.result.outcomes.len(), timed.jobs, "{cell:?}: jobs left undone");
            let mirrored = traced::run(cell, cell.config(replay));
            assert_eq!(timed.result, mirrored.result, "{cell:?}: mirror result diverged");
            assert_eq!(timed.digest, mirrored.digest, "{cell:?}: mirror digest diverged");
            assert_eq!(
                mirrored.layers.server_ticks, timed.server_ticks,
                "{cell:?}: mirror stepped a different number of ticks"
            );
            let teed = timed.experiment.recording().map_or(0, |r| r.samples.len() as u64);
            assert_eq!(mirrored.layers.tee_samples, teed, "{cell:?}: mirror teed differently");
            if workload == Workload::FinemonReplay {
                assert_eq!(
                    digest::result(&timed.result),
                    digest::result(&finemon[k].result),
                    "{cell:?}: replay diverged from the recorded run"
                );
            }
        }
    }
}

#[test]
fn observed_workload_digests_its_decision_trace() {
    let cell = Workload::Finemon.cells(SEED, Size::Mini)[0];
    let run = run_cell(&cell, || None);
    assert_ne!(run.digest, digest::result(&run.result), "the trace digest is folded in");
    let plain = Workload::PaperMix.cells(SEED, Size::Mini)[0];
    let run = run_cell(&plain, || None);
    assert_eq!(run.digest, digest::result(&run.result), "unobserved runs digest the result alone");
}
