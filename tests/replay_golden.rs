//! Record/replay acceptance against the committed goldens.
//!
//! The strongest fidelity claim the telemetry backend makes: teeing a
//! golden run's counter stream is pure observation (the live artifact
//! still matches the checked-in golden byte-for-byte), and replaying the
//! serialized recording through a fresh build of the same experiment
//! reproduces the exact golden `DecisionTrace` bytes — detection,
//! identification, throttling, and live migration included.

use perfcloud_bench::golden::{build_placement, golden_dir, placement_artifact};
use perfcloud_cluster::{Mitigation, TelemetrySpec};
use perfcloud_core::PerfCloudConfig;
use perfcloud_place::PlacementConfig;
use perfcloud_telemetry::{RecordingFormat, TelemetryReader};
use std::sync::Arc;

fn hybrid() -> Mitigation {
    Mitigation::Hybrid(PerfCloudConfig::default(), PlacementConfig)
}

#[test]
fn replayed_placement_hybrid_reproduces_the_golden_trace() {
    let golden = std::fs::read_to_string(golden_dir().join("placement_hybrid.trace"))
        .expect("committed golden exists");

    // Live run with the tee armed: recording must not perturb a byte.
    let mut live = build_placement(
        hybrid(),
        TelemetrySpec { tee: Some(RecordingFormat::Binary), replay: None },
    );
    let r_live = live.run();
    assert_eq!(
        placement_artifact(&live, &r_live),
        golden,
        "teeing changed the live golden artifact"
    );
    let bytes = live.take_recording().expect("tee armed");
    let recording = TelemetryReader::parse(&bytes).expect("recording parses");
    assert!(!recording.samples.is_empty());

    // Replay the recording through a fresh build of the same experiment.
    let mut replayed =
        build_placement(hybrid(), TelemetrySpec { tee: None, replay: Some(Arc::new(recording)) });
    let r_replay = replayed.run();
    assert_eq!(
        placement_artifact(&replayed, &r_replay),
        golden,
        "replaying the recording diverged from the golden artifact"
    );
}

#[test]
fn jsonl_recording_replays_identically_to_binary() {
    let mut live = build_placement(
        hybrid(),
        TelemetrySpec { tee: Some(RecordingFormat::Jsonl), replay: None },
    );
    live.run();
    let bytes = live.take_recording().expect("tee armed");
    assert_eq!(bytes[0], b'{', "JSONL recordings open with the header object");
    let recording = TelemetryReader::parse(&bytes).expect("JSONL recording parses");

    let golden = std::fs::read_to_string(golden_dir().join("placement_hybrid.trace"))
        .expect("committed golden exists");
    let mut replayed =
        build_placement(hybrid(), TelemetrySpec { tee: None, replay: Some(Arc::new(recording)) });
    let r = replayed.run();
    assert_eq!(placement_artifact(&replayed, &r), golden);
}
