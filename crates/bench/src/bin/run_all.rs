//! Runs every figure harness and ablation, in one process.
//!
//! `cargo run --release -p perfcloud-bench --bin run_all [-- --fast]`
//!
//! The harnesses are the library functions of [`perfcloud_bench::figs`],
//! so this binary runs exactly the code it was built from. The light
//! harnesses (fig1–fig10, future_work, the ablations) run concurrently on
//! the sweep runner and their text is printed in the canonical order. The
//! two expensive sweeps (fig11, fig12) run one after the other afterwards:
//! each parallelizes internally and should own the machine. A harness that
//! panics fails the whole run.
//!
//! `--fast` shrinks the expensive sweeps (fig11 `--scale 0.1`, fig12
//! `--reps 8 --scale-servers 6`); without it the defaults match the
//! per-binary defaults.
//!
//! `--trace-out PATH` switches to trace-export mode instead of running the
//! figure suite: it replays one golden scenario (default
//! `ctrl_coordinator_crash`, override with `--trace-scenario NAME`) with
//! flight recorders attached and writes the merged Chrome-trace-event JSON
//! to PATH — open it in [Perfetto](https://ui.perfetto.dev). The scenario
//! run is single-seeded and tick-deterministic, so the trace bytes are
//! identical regardless of `PERFCLOUD_THREADS`.
//!
//! The whole suite's timing lands in `BENCH_runall.json` — total wall
//! seconds plus one `<bin>_wall` extra per harness — which CI
//! regression-gates against the committed copy via `--baseline
//! BENCH_runall.json --max-slower 0.15` (and `--timing-out PATH` writes a
//! second copy wherever the caller wants it). The gate fails closed: a
//! `--baseline` that is missing or has no `wall_seconds` exits 2 before
//! any harness runs.

use perfcloud_bench::benchjson::BenchRecord;
use perfcloud_bench::cli::{self, Flag, Kind};
use perfcloud_bench::figs::{self, Harness};
use perfcloud_bench::{golden, scenarios, sweep};
use perfcloud_obs::chrome_trace;
use std::time::Instant;

const FLAGS: &[Flag] = &[
    Flag("--fast", Kind::Switch),
    Flag("--timing-out", Kind::Text),
    Flag("--baseline", Kind::Text),
    Flag("--max-slower", Kind::Float),
    Flag("--trace-out", Kind::Text),
    Flag("--trace-scenario", Kind::Text),
];

/// Runs one harness with `args`, returning its banner and text, and its
/// wall time.
fn run_harness(seed: u64, (harness, args): (&Harness, &[&str])) -> (String, f64) {
    let start = Instant::now();
    let flags = cli::parse(harness.flags, args).expect("the suite passes valid flags");
    let text = format!(
        "\n################################################################\n\
         ## {} {}\n\
         ################################################################\n{}",
        harness.name,
        args.join(" "),
        (harness.run)(seed, &flags)
    );
    (text, start.elapsed().as_secs_f64())
}

/// Replays one golden scenario with recorders attached and writes its
/// Chrome trace. Exits the process (0 on success).
fn export_trace(scenario: &str, path: &str) -> ! {
    let Some(sc) = golden::scenarios().into_iter().find(|s| s.name == scenario) else {
        eprintln!("unknown scenario: {scenario}");
        eprintln!("known scenarios:");
        for s in golden::scenarios() {
            eprintln!("  {}", s.name);
        }
        std::process::exit(2);
    };
    let artifact = (sc.build)();
    let sources = golden::take_flight_sources();
    if sources.is_empty() {
        eprintln!("scenario {scenario} recorded no flight events (sweep-internal scenario?)");
        std::process::exit(1);
    }
    let json = chrome_trace(&sources);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("error: could not write {path}: {e}");
        std::process::exit(1);
    }
    let events = sources.iter().map(|s| s.records.len()).sum::<usize>();
    println!(
        "wrote {path}: {events} events on {} tracks ({} bytes) from scenario {scenario} \
         ({} artifact lines)",
        sources.len(),
        json.len(),
        artifact.lines().count()
    );
    std::process::exit(0);
}

fn main() {
    let suite_start = Instant::now();
    let flags = cli::from_env("run_all", FLAGS);
    let fast = flags.switch("--fast");
    let max_slower = flags.value("--max-slower").unwrap_or(0.15);
    if let Some(path) = flags.text("--trace-out") {
        export_trace(flags.text("--trace-scenario").unwrap_or("ctrl_coordinator_crash"), path);
    }

    // The committed timing baseline is read up front so gating against the
    // repo-root copy works even when BENCH_JSON_DIR points elsewhere. A
    // baseline that cannot be read is an error, never a disabled gate.
    let baseline_wall = flags.text("--baseline").map(|path| {
        let Some(wall) = BenchRecord::read_field(path, "wall_seconds") else {
            eprintln!("error: cannot read wall_seconds from timing baseline {path}");
            std::process::exit(2);
        };
        println!("timing baseline {path}: {wall:.1}s (gate: +{:.0}%)", max_slower * 100.0);
        wall
    });

    let seed = scenarios::base_seed();
    // Every harness in print order, with the flags this run passes it.
    let plan: Vec<(&Harness, &[&str])> = figs::SUITE
        .iter()
        .map(|h| {
            let args: &[&str] = match (fast, h.name) {
                (true, "fig11") => &["--scale", "0.1"],
                (true, "fig12") => &["--reps", "8", "--scale-servers", "6"],
                _ => &[],
            };
            (h, args)
        })
        .collect();
    // The last two, fig11 and fig12, parallelize internally and should own
    // the machine: they run one after the other once the rest, run
    // concurrently, are done.
    let (light, heavy) = plan.split_at(plan.len() - 2);
    println!(
        "running {} light harnesses across {} sweep workers…",
        light.len(),
        sweep::worker_count(light.len())
    );
    let light_runs = sweep::run(light.len(), |i| run_harness(seed, light[i]));
    // Lazy: each heavy sweep starts once everything before it is printed.
    let runs = light_runs.into_iter().chain(heavy.iter().map(|&run| run_harness(seed, run)));
    let mut walls = Vec::new();
    for ((harness, _), (text, wall)) in plan.iter().zip(runs) {
        print!("{text}");
        walls.push((format!("{}_wall", harness.name), wall));
    }

    let total_wall = suite_start.elapsed().as_secs_f64();
    let mut runall = BenchRecord::wall("runall", total_wall);
    runall.extras.append(&mut walls);
    match runall.write() {
        Ok(path) => println!("suite timing: {total_wall:.1}s total -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_runall.json: {e}"),
    }
    if let Some(path) = flags.text("--timing-out") {
        if let Err(e) = std::fs::write(path, format!("{}\n", runall.to_json())) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }

    if let Some(base) = baseline_wall {
        let ceiling = base * (1.0 + max_slower);
        if total_wall > ceiling {
            eprintln!(
                "REGRESSION: run_all took {total_wall:.1}s, above the gate ceiling \
                 {ceiling:.1}s (baseline {base:.1}s, max {:.0}% slower)",
                max_slower * 100.0
            );
            std::process::exit(1);
        }
        println!("run_all timing gate passed: {total_wall:.1}s <= {ceiling:.1}s");
    }
    println!("\nall harnesses completed");
}
