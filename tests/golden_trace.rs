//! Golden-trace regression suite.
//!
//! Every scenario in `perfcloud_bench::golden` — the fault-free references,
//! the chaos scenarios, and the mini Fig. 12(b) sweep — renders a canonical
//! artifact that must match the checked-in file under `tests/golden/` byte
//! for byte. On mismatch the failure message pinpoints the first diverging
//! decision. After an intentional behaviour change, regenerate with:
//!
//! ```text
//! BLESS=1 cargo test --test golden_trace
//! ```
//!
//! The artifacts are seeded with a fixed literal and tick-deterministic, so
//! they must also be independent of sweep parallelism: the second test
//! renders scenarios under explicit 1-, 4- and 7-thread pools and requires
//! byte-identical output (the CI chaos job additionally runs this whole
//! suite under `PERFCLOUD_THREADS=1` and `=4`).

use perfcloud_bench::golden::{self, GoldenStatus};
use perfcloud_bench::sweep;
use perfcloud_obs::chrome_trace;

#[test]
fn golden_traces_match() {
    let scenarios = golden::scenarios();
    // Scenarios are independent pure functions; render them through the
    // sweep runner (honours PERFCLOUD_THREADS) to keep wall time down. The
    // flight dump lives in a thread-local on the worker that built the
    // scenario, so capture it inside the closure.
    let outputs: Vec<(String, String)> =
        sweep::run(scenarios.len(), |i| ((scenarios[i].build)(), golden::take_flight_dump()));
    let mut failures = Vec::new();
    let mut regenerated = Vec::new();
    for (sc, (out, dump)) in scenarios.iter().zip(&outputs) {
        match golden::check_with_dump(sc.name, out, dump) {
            GoldenStatus::Match => {}
            GoldenStatus::Regenerated => regenerated.push(sc.name),
            GoldenStatus::Mismatch { diff } => failures.push(diff),
        }
    }
    if !regenerated.is_empty() {
        eprintln!("BLESS=1: regenerated {} golden files: {:?}", regenerated.len(), regenerated);
    }
    assert!(failures.is_empty(), "\n\n{}\n", failures.join("\n\n"));
}

#[test]
fn traces_are_independent_of_sweep_thread_count() {
    // A representative slice of cheap scenarios, re-rendered under three
    // explicit pool sizes. Any dependence of a decision trace — or of the
    // exported Perfetto trace — on thread scheduling shows up as a byte
    // diff here.
    let scenarios = golden::scenarios();
    let slice: Vec<_> = scenarios
        .iter()
        .filter(|s| {
            matches!(
                s.name,
                "baseline"
                    | "chaos_drop"
                    | "chaos_nan_iowait"
                    | "chaos_crash"
                    | "ctrl_partition_heal"
                    | "ctrl_lossy_placement"
            )
        })
        .collect();
    assert_eq!(slice.len(), 6);
    let render = |threads: usize| -> Vec<(String, String)> {
        sweep::run_with_threads(slice.len(), threads, |i| {
            let artifact = (slice[i].build)();
            let trace = chrome_trace(&golden::take_flight_sources());
            (artifact, trace)
        })
    };
    let one = render(1);
    for threads in [4, 7] {
        let other = render(threads);
        for (i, sc) in slice.iter().enumerate() {
            assert_eq!(
                one[i].0,
                other[i].0,
                "scenario '{}' diverged between 1 and {threads} sweep threads:\n{}",
                sc.name,
                golden::first_divergence(sc.name, &one[i].0, &other[i].0)
            );
            assert_eq!(
                one[i].1, other[i].1,
                "scenario '{}': exported Chrome trace diverged between 1 and {threads} \
                 sweep threads",
                sc.name
            );
        }
    }
    // The exported traces are real: every scenario in the slice recorded
    // flight events on all three tracks.
    for (i, sc) in slice.iter().enumerate() {
        assert!(
            one[i].1.contains("server0") && one[i].1.contains("\"ctrl\""),
            "scenario '{}' exported no per-track trace data",
            sc.name
        );
    }
}

#[test]
fn golden_mismatch_dumps_flight_context() {
    // A deliberately tampered artifact must fail with both the first
    // diverging line and the flight-recorder context of the run that
    // produced it — the whole point of carrying recorders in golden runs.
    if std::env::var("BLESS").map(|v| v == "1").unwrap_or(false) {
        return; // never bless a deliberately tampered artifact
    }
    let scenarios = golden::scenarios();
    let sc = scenarios.iter().find(|s| s.name == "chaos_crash").expect("scenario exists");
    let artifact = (sc.build)();
    let tampered = artifact.replacen("# jct=", "# jct=9", 1);
    assert_ne!(artifact, tampered);
    match golden::check(sc.name, &tampered) {
        GoldenStatus::Mismatch { diff } => {
            assert!(diff.contains("diverges at line"), "{diff}");
            assert!(diff.contains("flight-recorder events"), "{diff}");
            // The dump carries real per-track events, e.g. the manager
            // restart injected by the crash fault.
            assert!(diff.contains("[server0]"), "{diff}");
        }
        other => panic!("tampered artifact unexpectedly {other:?}"),
    }
}
