//! Golden traces with observability disabled.
//!
//! Golden runs are observed by default (`OBSERVE_GOLDENS`), and observation
//! is pure: it must not perturb a single decision. This suite is the other
//! half of that proof — it clears the flag and re-renders every scenario,
//! requiring the artifacts to still match the checked-in goldens byte for
//! byte (the default-on suite in `golden_trace.rs` covers the enabled side).
//!
//! It lives in its own integration-test binary deliberately: the flag is a
//! process-wide atomic, and flipping it here cannot race the observed
//! suite because separate test binaries run in separate processes.

use perfcloud_bench::golden::{self, GoldenStatus, OBSERVE_GOLDENS};
use perfcloud_bench::sweep;
use perfcloud_obs::ExportSource;
use std::sync::atomic::Ordering;

#[test]
fn golden_traces_match_without_observability() {
    OBSERVE_GOLDENS.store(false, Ordering::Relaxed);
    let scenarios = golden::scenarios();
    // The flight tracks live in a thread-local on the worker that built
    // the scenario, so capture them inside the closure.
    let outputs: Vec<(String, Vec<ExportSource>)> =
        sweep::run(scenarios.len(), |i| ((scenarios[i].build)(), golden::take_flight_sources()));
    for (sc, (artifact, sources)) in scenarios.iter().zip(&outputs) {
        // Nothing was observed, so there are no tracks…
        assert!(sources.is_empty(), "obs-off run of '{}' left flight tracks", sc.name);
        // …and the artifact must still match the golden rendered with
        // observation on (BLESS would hide exactly the bug this guards).
        match golden::check(sc.name, artifact, sources) {
            GoldenStatus::Match => {}
            GoldenStatus::Regenerated => panic!("run this suite without BLESS=1"),
            GoldenStatus::Mismatch { diff } => {
                panic!("scenario '{}' depends on observability being on:\n{diff}", sc.name)
            }
        }
    }
}
