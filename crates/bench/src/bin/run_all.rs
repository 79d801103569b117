//! Runs every figure harness and ablation.
//!
//! `cargo run --release -p perfcloud-bench --bin run_all [-- --fast]`
//!
//! Before anything else, the suite precomputes the **union of the solo
//! baselines** the figures share — every `(benchmark, tasks, seed)` solo
//! JCT plus fio's and STREAM's solo references — once, in parallel and
//! in-process, writes them to a cache file, and exports
//! `PERFCLOUD_BASELINE_CACHE` so every child harness reads them instead of
//! recomputing. Cached values round-trip as IEEE-754 bit patterns, so
//! figure outputs are byte-for-byte unchanged (see `baseline.rs`).
//!
//! The light harnesses (fig1–fig10, future_work, the ablations) are
//! independent child processes, so they run concurrently on the sweep
//! runner with their captured output replayed in the canonical order. The
//! two expensive sweeps (fig11, fig12) run sequentially afterwards: each
//! parallelizes internally and should own the machine.
//!
//! `--fast` shrinks the expensive sweeps (fig11 scale 0.1, fig12 reps 8) so
//! the full suite finishes in a few minutes; without it the defaults match
//! the per-binary defaults.
//!
//! `--trace-out PATH` switches to trace-export mode instead of running the
//! figure suite: it replays one golden scenario (default
//! `ctrl_coordinator_crash`, override with `--trace-scenario NAME`) with
//! flight recorders attached and writes the merged Chrome-trace-event JSON
//! to PATH — open it in [Perfetto](https://ui.perfetto.dev). The scenario
//! run is single-seeded and tick-deterministic, so the trace bytes are
//! identical regardless of `PERFCLOUD_THREADS`.
//!
//! Every harness run also emits a machine-readable `BENCH_<bin>.json`
//! record (the fork-converted figures write their own, with
//! `sweep_points` / `forked_points` / `prefix_events_saved` extras). The
//! whole suite's timing lands in `BENCH_runall.json` — total wall seconds
//! plus one `<bin>_wall` extra per harness — which CI regression-gates
//! against the committed copy via `--baseline BENCH_runall.json
//! --max-slower 0.15` (and `--timing-out PATH` writes a second copy
//! wherever the caller wants it).

use perfcloud_bench::benchjson::BenchRecord;
use perfcloud_bench::{baseline, golden, scenarios, sweep};
use perfcloud_frameworks::Benchmark;
use perfcloud_obs::chrome_trace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn banner(bin: &str, args: &[&str]) {
    println!("\n################################################################");
    println!("## {bin} {}", args.join(" "));
    println!("################################################################");
}

/// Launches one harness binary, capturing its output and wall time.
fn run_bin(exe_dir: &Path, bin: &str, args: &[&str]) -> (std::process::Output, f64) {
    let start = Instant::now();
    let output = Command::new(exe_dir.join(bin))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    (output, start.elapsed().as_secs_f64())
}

fn record(bin: &str, wall_seconds: f64) {
    if let Err(e) = BenchRecord::wall(bin, wall_seconds).write() {
        eprintln!("warning: could not write BENCH_{bin}.json: {e}");
    }
}

/// Precomputes the union of every solo baseline the figure harnesses
/// consult, in parallel, and exports the cache file path via
/// [`baseline::ENV`] so all child harnesses inherit it. Returns the cache
/// file path (best-effort: on write failure the children just recompute).
fn prewarm_baselines(seed: u64) -> Option<PathBuf> {
    enum Task {
        Solo(Benchmark, usize),
        Fio,
        Stream,
    }
    // fig1(c)/fig2 need every benchmark at 10 tasks; fig1(b) and fig9 the
    // 40-task logistic regression; fig1/fig9 the fio reference; fig9 the
    // STREAM core usage. fig11/fig12 baselines run on other cluster
    // topologies and are not cacheable by these keys.
    let mut tasks = vec![Task::Fio, Task::Stream, Task::Solo(Benchmark::LogisticRegression, 40)];
    for bench in Benchmark::ALL {
        tasks.push(Task::Solo(bench, 10));
    }
    let entries: Vec<Vec<(String, f64)>> = sweep::run(tasks.len(), |i| match tasks[i] {
        Task::Solo(bench, n) => {
            vec![(baseline::solo_jct_key(bench, n, seed), scenarios::solo_jct(bench, n, seed))]
        }
        Task::Fio => {
            let (iops, bps) = scenarios::fio_solo_reference(seed);
            let (iops_key, bps_key) = baseline::fio_keys(seed);
            vec![(iops_key, iops), (bps_key, bps)]
        }
        Task::Stream => {
            vec![(baseline::stream_key(seed), scenarios::stream_solo_cores(seed))]
        }
    });
    let map: BTreeMap<String, f64> = entries.into_iter().flatten().collect();
    let path =
        std::env::temp_dir().join(format!("perfcloud_baselines_{}.cache", std::process::id()));
    if let Err(e) = std::fs::write(&path, baseline::render(&map)) {
        eprintln!("warning: could not write baseline cache {}: {e}", path.display());
        return None;
    }
    std::env::set_var(baseline::ENV, &path);
    Some(path)
}

/// Replays one golden scenario with recorders attached and writes its
/// Chrome trace. Exits the process (0 on success).
fn export_trace(scenario: &str, path: &str, shards: usize) -> ! {
    let Some(sc) = golden::scenarios().into_iter().find(|s| s.name == scenario) else {
        eprintln!("unknown scenario: {scenario}");
        eprintln!("known scenarios:");
        for s in golden::scenarios() {
            eprintln!("  {}", s.name);
        }
        std::process::exit(2);
    };
    let artifact = (sc.build)(shards);
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
    let mut fast = false;
    let mut trace_out: Option<String> = None;
    let mut trace_scenario = String::from("ctrl_coordinator_crash");
    let mut shards: Option<usize> = None;
    let mut timing_out: Option<String> = None;
    let mut timing_baseline: Option<String> = None;
    let mut max_slower = 0.15f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out needs a path")),
            "--trace-scenario" => {
                trace_scenario = args.next().expect("--trace-scenario needs a name")
            }
            "--shards" => {
                let n = args.next().expect("--shards needs a count");
                shards = Some(n.parse().unwrap_or_else(|_| panic!("bad shard count: {n}")));
            }
            "--timing-out" => timing_out = Some(args.next().expect("--timing-out needs a path")),
            "--baseline" => timing_baseline = Some(args.next().expect("--baseline needs a path")),
            "--max-slower" => {
                max_slower = args
                    .next()
                    .expect("--max-slower needs a fraction")
                    .parse()
                    .expect("--max-slower must be a number")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: run_all [--fast] [--shards N] [--timing-out PATH] \
                     [--baseline FILE [--max-slower FRAC]] \
                     [--trace-out PATH [--trace-scenario NAME]]"
                );
                std::process::exit(2);
            }
        }
    }
    // --shards overrides the PERFCLOUD_SHARDS environment; exporting it
    // makes every child harness inherit the same in-run shard count. The
    // results are byte-identical at any count — this is a perf knob.
    if let Some(n) = shards {
        std::env::set_var(perfcloud_sim::shard::SHARDS_ENV, n.to_string());
    }
    let shard_count = perfcloud_sim::shard::shards_from_env(1);
    if let Some(path) = &trace_out {
        export_trace(&trace_scenario, path, shard_count);
    }
    if shard_count != 1 {
        println!("in-run shards: {shard_count}");
    }

    // The committed timing baseline is read up front so gating against the
    // repo-root copy works even when BENCH_JSON_DIR points elsewhere.
    let baseline_wall =
        timing_baseline.as_deref().and_then(|p| BenchRecord::read_field(p, "wall_seconds"));
    if let Some(path) = &timing_baseline {
        match baseline_wall {
            Some(wall) => {
                println!("timing baseline {path}: {wall:.1}s (gate: +{:.0}%)", max_slower * 100.0)
            }
            None => eprintln!("warning: no wall_seconds in baseline {path}; gate disabled"),
        }
    }

    let prewarm_start = Instant::now();
    let cache_path = prewarm_baselines(scenarios::base_seed());
    let prewarm_wall = prewarm_start.elapsed().as_secs_f64();
    if let Some(path) = &cache_path {
        println!("baseline cache: {} ({prewarm_wall:.2}s to prewarm)", path.display());
    }

    // (bin, args, self_records): harnesses converted to fork-point sweeps
    // write their own BENCH_<bin>.json with prefix-sharing extras; run_all
    // must not overwrite those with a bare wall record.
    let light: Vec<(&str, Vec<&str>, bool)> = vec![
        ("fig1", vec![], true),
        ("fig2", vec![], true),
        ("fig3", vec![], false),
        ("fig4", vec![], false),
        ("fig5", vec![], false),
        ("fig6", vec![], false),
        ("fig7", vec![], false),
        ("fig9", vec![], false),
        ("fig10", vec![], false),
        ("future_work", vec![], false),
        ("ablation_controller", vec![], true),
        ("ablation_threshold", vec![], true),
        ("ablation_monitor", vec![], true),
    ];
    let heavy: Vec<(&str, Vec<&str>, bool)> = vec![
        ("fig11", if fast { vec!["--scale", "0.1"] } else { vec![] }, true),
        ("fig12", if fast { vec!["--reps", "8", "--scale-servers", "6"] } else { vec![] }, true),
    ];

    let exe_dir =
        std::env::current_exe().expect("current_exe").parent().expect("bin dir").to_path_buf();

    let mut failures: Vec<&str> = Vec::new();
    let mut walls: Vec<(String, f64)> = Vec::new();

    println!(
        "running {} light harnesses across {} sweep workers…",
        light.len(),
        sweep::worker_count(light.len())
    );
    let outputs = sweep::run(light.len(), |i| {
        let (bin, args, _) = &light[i];
        run_bin(&exe_dir, bin, args)
    });
    for ((bin, args, self_records), (output, wall)) in light.iter().zip(outputs) {
        banner(bin, args);
        print!("{}", String::from_utf8_lossy(&output.stdout));
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !self_records {
            record(bin, wall);
        }
        walls.push((format!("{bin}_wall"), wall));
        if !output.status.success() {
            failures.push(bin);
        }
    }

    for (bin, args, self_records) in &heavy {
        banner(bin, args);
        let (output, wall) = run_bin(&exe_dir, bin, args);
        print!("{}", String::from_utf8_lossy(&output.stdout));
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !self_records {
            record(bin, wall);
        }
        walls.push((format!("{bin}_wall"), wall));
        if !output.status.success() {
            failures.push(bin);
        }
    }

    if let Some(path) = &cache_path {
        let _ = std::fs::remove_file(path);
    }

    let total_wall = suite_start.elapsed().as_secs_f64();
    let mut runall = BenchRecord::wall("runall", total_wall);
    runall.extras.push(("prewarm_wall".into(), prewarm_wall));
    runall.extras.append(&mut walls);
    match runall.write() {
        Ok(path) => println!("suite timing: {total_wall:.1}s total -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_runall.json: {e}"),
    }
    if let Some(path) = &timing_out {
        if let Err(e) = std::fs::write(path, format!("{}\n", runall.to_json())) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }

    let mut gate_failed = false;
    if let Some(base) = baseline_wall {
        let ceiling = base * (1.0 + max_slower);
        if total_wall > ceiling {
            eprintln!(
                "REGRESSION: run_all took {total_wall:.1}s, above the gate ceiling \
                 {ceiling:.1}s (baseline {base:.1}s, max {:.0}% slower)",
                max_slower * 100.0
            );
            gate_failed = true;
        } else {
            println!("run_all timing gate passed: {total_wall:.1}s <= {ceiling:.1}s");
        }
    }

    if failures.is_empty() && !gate_failed {
        println!("\nall harnesses completed");
    } else {
        if !failures.is_empty() {
            println!("\nFAILED harnesses: {failures:?}");
        }
        std::process::exit(1);
    }
}
