//! Flight-recorder walkthrough: watch PerfCloud think.
//!
//! Replays the paper's Fig. 10 shape — a terasort job on one server, a fio
//! antagonist arriving mid-run — with observability on: the node
//! manager's events go into the decision trace, and the control plane and
//! its network each keep a flight ring. Afterwards it prints
//! the merged, sim-time-ordered event log (detection onset, antagonist
//! identification, throttling, CUBIC cap updates, placement epochs) and
//! writes a Chrome-trace JSON you can open at <https://ui.perfetto.dev>.
//!
//! Everything here is deterministic: run it twice and both the printed log
//! and the trace file are byte-identical.
//!
//! Run with: `cargo run --example flight_recorder`

use perfcloud::cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud::core::PerfCloudConfig;
use perfcloud::frameworks::Benchmark;
use perfcloud::sim::SimTime;

fn main() {
    let mut cfg = ExperimentConfig::new(
        ClusterSpec::small_scale(42),
        Mitigation::PerfCloud(PerfCloudConfig::default()),
    );
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(20)));
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(15)),
    );
    cfg.max_sim_time = SimTime::from_secs(7_200);

    let mut experiment = Experiment::build(cfg);
    experiment.enable_observability(4096);
    let result = experiment.run();

    println!("job completion time: {:.1}s", result.sole_jct());
    println!(
        "ingest: {} samples recorded, {} rejected (stale={}, duplicates={}, regressions={})",
        result.ingest.recorded,
        result.ingest.rejected(),
        result.ingest.stale,
        result.ingest.duplicates,
        result.ingest.regressions,
    );

    println!("\nmetrics snapshot:");
    for (name, value) in experiment.metrics_snapshot() {
        println!("  {name} = {value}");
    }

    // The merged event log: every track, in deterministic (time, track,
    // sequence) order. `[server0]` lines are the node-manager agent —
    // detection, identification, throttling, cap updates; `[ctrl]` and
    // `[net]` are the control plane publishing placement epochs.
    let sources = experiment.flight_sources();
    let mut merged: Vec<_> =
        sources.iter().flat_map(|src| src.records.iter().map(move |r| (src, r))).collect();
    merged.sort_by_key(|&(src, r)| (r.t, src.rank, r.seq));
    println!("\nlast 40 flight-recorder events:");
    for (src, record) in &merged[merged.len().saturating_sub(40)..] {
        println!("[{}] {record}", src.name);
    }

    let path = "flight_recorder_trace.json";
    match std::fs::write(path, experiment.chrome_trace()) {
        Ok(()) => println!("\nwrote {path} — open it at https://ui.perfetto.dev"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
