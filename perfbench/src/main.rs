//! `perfbench`: measures four real PerfCloud experiments end to end and
//! layer by layer.
//!
//! ```text
//! perfbench [--seed N] [--out PATH]
//!     Every workload: five timed reps each, round-robin, then one traced
//!     run each. Prints every metric and writes a JSON report (default
//!     target/perfbench.json).
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!     One workload: timed reps until S seconds have passed, then, with
//!     --trace 1, one traced run. The last line of standard output is a
//!     JSON object with the end-to-end metrics (--trace 0) or the
//!     per-layer metrics (--trace 1).
//! ```
//!
//! Every rep is a fresh child process of this binary, run one at a time
//! with `PERFCLOUD_THREADS=1` and `PERFCLOUD_SHARDS=1`, so the seed is the
//! only input and no process uses more than one thread. The exit code is
//! non-zero when any run fails or disagrees with the others.

use perfcloud_cluster::{mean_efficiency, ExperimentResult};
use perfcloud_perfbench::digest;
use perfcloud_perfbench::traced::{self, Layers};
use perfcloud_perfbench::workloads::{run_cell, set_up, Cell, Size, Workload};
use perfcloud_stats::quantile;
use perfcloud_telemetry::{TelemetryReader, TelemetryRecording};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench [--seed N] [--out PATH]\n       \
                     perfbench --workload NAME --seed N --seconds S --trace 0|1";

/// End-to-end metrics: name, unit, and whether `BENCHMARK.json` lists it,
/// which puts it on the one-workload result line. `jobs_failed_frac` is
/// there as `attempted`/`failed`; the job completion times vary with the
/// seed's antagonist placement far more than any bound, so they stay in
/// the report.
const END_TO_END: [(&str, &str, bool); 7] = [
    ("run_s", "s", true),
    ("server_ticks_per_s", "1/s", true),
    ("setup_s", "s", true),
    ("peak_rss_mb", "MB", true),
    ("jct_p50_s", "s", false),
    ("jct_p95_s", "s", false),
    ("jobs_failed_frac", "frac", false),
];

/// Per-layer metrics of the traced run: name, unit, and whether
/// `BENCHMARK.json` lists it — those non-zero on every workload.
const PER_LAYER: [(&str, &str, bool); 38] = [
    ("host.self_s", "s", true),
    ("host.frac", "frac", true),
    ("host.server_ticks", "count", true),
    ("host.vm_ticks", "count", true),
    ("host.ns_per_vm_tick", "ns", true),
    ("host.procs_finished", "count", true),
    ("sched.self_s", "s", true),
    ("sched.frac", "frac", true),
    ("sched.us_per_tick", "us", true),
    ("sched.tasks_finished", "count", true),
    ("sched.useful_frac", "frac", true),
    ("nm.self_s", "s", true),
    ("nm.frac", "frac", true),
    ("nm.steps", "count", true),
    ("nm.us_per_step", "us", true),
    ("nm.samples_recorded", "count", true),
    ("nm.samples_rejected_frac", "frac", false),
    ("nm.cap_decisions", "count", true),
    ("nm.identified", "count", true),
    ("ctrl.self_s", "s", true),
    ("ctrl.frac", "frac", true),
    ("ctrl.us_per_tick", "us", true),
    ("ctrl.msgs_sent", "count", true),
    ("ctrl.msgs_dropped_frac", "frac", false),
    ("place.self_s", "s", false),
    ("place.frac", "frac", false),
    ("place.migrations", "count", false),
    ("trace.self_s", "s", false),
    ("trace.frac", "frac", false),
    ("trace.lines", "count", false),
    ("tee.self_s", "s", false),
    ("tee.samples", "count", false),
    ("replay.parse_s", "s", false),
    ("replay.samples", "count", false),
    ("glue.self_s", "s", true),
    ("traced.wall_s", "s", true),
    ("traced.coverage", "frac", true),
    ("traced.overhead_frac", "frac", true),
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.child, args.workload) {
        (Some(role), _) => child(role, &args),
        (None, Some(w)) => one_workload(w, &args),
        (None, None) => every_workload(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a child process measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// One timed rep of a workload through `Experiment::run`.
    Timed,
    /// One rep of a workload through the traced mirror.
    Traced,
    /// One `finemon` rep that writes its tee recordings for
    /// `finemon_replay`.
    Record,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Timed => "timed",
            Role::Traced => "traced",
            Role::Record => "record",
        }
    }
}

#[derive(Debug)]
struct Args {
    seed: u64,
    /// One workload, measured for `seconds`; `None` measures every
    /// workload for [`REPS`] reps.
    workload: Option<Workload>,
    seconds: Option<u64>,
    trace: bool,
    out: PathBuf,
    child: Option<Role>,
    recordings: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            seed: 42,
            workload: None,
            seconds: None,
            trace: false,
            out: PathBuf::from("target/perfbench.json"),
            child: None,
            recordings: None,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--seed" => args.seed = number(&flag, &value()?)?,
                "--workload" => {
                    let name = value()?;
                    let w = Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?;
                    args.workload = Some(w);
                }
                "--seconds" => args.seconds = Some(number(&flag, &value()?)?),
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--out" => args.out = PathBuf::from(value()?),
                "--child" => {
                    let v = value()?;
                    let role = [Role::Timed, Role::Traced, Role::Record]
                        .into_iter()
                        .find(|r| r.name() == v)
                        .ok_or_else(|| format!("unknown child role {v:?}"))?;
                    args.child = Some(role);
                }
                "--recordings" => args.recordings = Some(PathBuf::from(value()?)),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if args.workload.is_some() != args.seconds.is_some() && args.child.is_none() {
            return Err("--workload and --seconds go together".into());
        }
        if args.seconds == Some(0) {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
}

// ---------------------------------------------------------------- child --

/// Where the recording of one `finemon` seed is kept.
fn recording_path(dir: &Path, seed: u64) -> PathBuf {
    dir.join(format!("finemon-{seed}.pftl"))
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("bad VmHWM line {line:?}"))?;
    Ok(kb / 1024.0)
}

/// Set-ups per experiment in a timed rep; the rep reports the median.
const SETUPS: usize = 5;

/// What every child reports about the experiments it ran.
struct Tally {
    jobs: usize,
    jcts: Vec<f64>,
    valid: bool,
    digests: Vec<u64>,
    result_digests: Vec<u64>,
    server_ticks: u64,
    setup_s: f64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            jobs: 0,
            jcts: Vec::new(),
            valid: true,
            digests: Vec::new(),
            result_digests: Vec::new(),
            server_ticks: 0,
            setup_s: 0.0,
        }
    }

    fn add(&mut self, jobs: usize, result: &ExperimentResult, digest: u64) {
        // Every job must finish, with a finite, positive completion time.
        self.valid &= result.outcomes.len() == jobs
            && result.duration.as_micros() > 0
            && result.outcomes.iter().all(|o| o.jct.is_finite() && o.jct > 0.0);
        self.jobs += jobs;
        self.jcts.extend(result.outcomes.iter().map(|o| o.jct));
        self.digests.push(digest);
        self.result_digests.push(digest::result(result));
    }

    /// Prints the tally and `extra` as `name value` lines.
    fn print(&self, extra: Report) {
        let mut out = Report::default();
        out.put("jobs", self.jobs as f64);
        out.put("jobs_done", if self.valid { self.jcts.len() as f64 } else { 0.0 });
        out.put("setup_s", self.setup_s);
        out.put("server_ticks", self.server_ticks as f64);
        out.put("jct_p50_s", quantile(&self.jcts, 0.5).unwrap_or(f64::NAN));
        out.put("jct_p95_s", quantile(&self.jcts, 0.95).unwrap_or(f64::NAN));
        out.0.extend(extra.0);
        println!("{}", out.lines());
        println!("digest {}", digest::combine(self.digests.iter().copied()));
        println!("result_digest {}", digest::combine(self.result_digests.iter().copied()));
    }
}

/// Runs one rep inside a child process and prints `name value` lines.
fn child(role: Role, args: &Args) -> Result<bool, String> {
    let dir = args.recordings.as_deref();
    match role {
        Role::Timed => {
            timed_child(args.workload.ok_or("a child needs --workload")?, args.seed, dir, None)
        }
        Role::Record => timed_child(Workload::Finemon, args.seed, None, dir),
        Role::Traced => {
            traced_child(args.workload.ok_or("a child needs --workload")?, args.seed, dir)
        }
    }?;
    Ok(true)
}

/// One rep through `Experiment::run`, replaying recordings from `dir`.
/// With `record` set, writes each experiment's tee recording there.
fn timed_child(
    workload: Workload,
    seed: u64,
    dir: Option<&Path>,
    record: Option<&Path>,
) -> Result<(), String> {
    let replay = |cell: &Cell| {
        load_replay(cell, dir).unwrap_or_else(|e| panic!("loading the recording: {e}"))
    };
    let cells = workload.cells(seed, Size::Paper);
    let mut tally = Tally::new();
    let mut run_s = 0.0;
    let mut setups = Vec::new();
    for cell in &cells {
        let mut r = run_cell(cell, || replay(cell));
        tally.add(r.jobs, &r.result, r.digest);
        tally.server_ticks += r.server_ticks;
        setups.push(vec![r.setup_s]);
        run_s += r.run_s;
        if let Some(dir) = record {
            let bytes = r.experiment.take_recording().ok_or("finemon tees no recording")?;
            std::fs::write(recording_path(dir, cell.seed), bytes)
                .map_err(|e| format!("writing recording: {e}"))?;
        }
    }
    let mut extra = Report::default();
    extra.put("run_s", run_s);
    extra.put("peak_rss_mb", peak_rss_mb()?);
    // The repeated set-ups come after the memory reading: freed builds
    // leave the heap fragmented, which would raise the peak.
    for (cell, times) in cells.iter().zip(&mut setups) {
        times.extend((1..SETUPS).map(|_| set_up(cell, || replay(cell)).2));
        tally.setup_s += perfcloud_stats::median(times).expect("at least one set-up");
    }
    tally.print(extra);
    Ok(())
}

/// One rep through the traced mirror, reporting every per-layer metric.
fn traced_child(workload: Workload, seed: u64, dir: Option<&Path>) -> Result<(), String> {
    let mut tally = Tally::new();
    let mut l = Layers::default();
    let mut outcomes = Vec::new();
    let (mut parse_s, mut replay_samples) = (0.0, 0usize);
    let (mut recorded, mut rejected, mut ingested) = (0u64, 0u64, 0u64);
    let (mut sent, mut dropped, mut migrations) = (0u64, 0u64, 0u64);
    for cell in workload.cells(seed, Size::Paper) {
        let t0 = Instant::now();
        let replay = load_replay(&cell, dir)?;
        parse_s += t0.elapsed().as_secs_f64();
        replay_samples += replay.as_ref().map_or(0, |r| r.samples.len());
        let config = cell.config(replay);
        tally.setup_s += t0.elapsed().as_secs_f64();
        let jobs = config.jobs.len();
        let t = traced::run(&cell, config);
        tally.add(jobs, &t.result, t.digest);
        tally.server_ticks += t.layers.server_ticks;
        l.add(&t.layers);
        let i = t.result.ingest;
        recorded += i.recorded;
        rejected += i.rejected();
        ingested += i.baselines + i.recorded + i.rejected();
        sent += t.net.sent;
        dropped += t.net.dropped;
        migrations += t.migrations;
        outcomes.extend(t.result.outcomes);
    }

    let secs = |d: Duration| d.as_secs_f64();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wall = secs(l.wall);
    let mut out = Report::default();
    for (name, d) in [
        ("host", l.host),
        ("sched", l.sched),
        ("nm", l.nm),
        ("ctrl", l.ctrl),
        ("place", l.place),
        ("trace", l.trace),
    ] {
        out.put(&format!("{name}.self_s"), secs(d));
        out.put(&format!("{name}.frac"), ratio(secs(d), wall));
    }
    out.put("host.server_ticks", l.server_ticks as f64);
    out.put("host.vm_ticks", l.vm_ticks as f64);
    out.put("host.ns_per_vm_tick", ratio(secs(l.host) * 1e9, l.vm_ticks as f64));
    out.put("host.procs_finished", l.procs_finished as f64);
    out.put("sched.us_per_tick", ratio(secs(l.sched) * 1e6, l.ticks as f64));
    let tasks: usize = outcomes.iter().map(|o| o.task_count).sum();
    out.put("sched.tasks_finished", tasks as f64);
    out.put("sched.useful_frac", mean_efficiency(&outcomes));
    out.put("nm.steps", l.nm_steps as f64);
    out.put("nm.us_per_step", ratio(secs(l.nm) * 1e6, l.nm_steps as f64));
    out.put("nm.samples_recorded", recorded as f64);
    out.put("nm.samples_rejected_frac", ratio(rejected as f64, ingested as f64));
    out.put("nm.cap_decisions", l.cap_decisions as f64);
    out.put("nm.identified", l.identified as f64);
    out.put("ctrl.us_per_tick", ratio(secs(l.ctrl) * 1e6, l.ticks as f64));
    out.put("ctrl.msgs_sent", sent as f64);
    out.put("ctrl.msgs_dropped_frac", ratio(dropped as f64, sent as f64));
    out.put("place.migrations", migrations as f64);
    out.put("trace.lines", l.trace_lines as f64);
    out.put("tee.self_s", secs(l.tee));
    out.put("tee.samples", l.tee_samples as f64);
    out.put("replay.parse_s", parse_s);
    out.put("replay.samples", replay_samples as f64);
    out.put("glue.self_s", secs(l.glue));
    out.put("traced.wall_s", wall);
    out.put("traced.coverage", ratio(secs(l.attributed()), wall));
    out.put("peak_rss_mb", peak_rss_mb()?);
    tally.print(out);
    Ok(())
}

/// Reads and parses the recording a `finemon_replay` cell ingests.
fn load_replay(cell: &Cell, dir: Option<&Path>) -> Result<Option<Arc<TelemetryRecording>>, String> {
    if cell.workload != Workload::FinemonReplay {
        return Ok(None);
    }
    let path = recording_path(dir.ok_or("finemon_replay needs --recordings")?, cell.seed);
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let rec = TelemetryReader::parse(&bytes)?;
    Ok(Some(Arc::new(rec)))
}

// --------------------------------------------------------------- parent --

/// Named values in insertion order.
#[derive(Debug, Default, Clone)]
struct Report(Vec<(String, f64)>);

impl Report {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    fn lines(&self) -> String {
        let mut s = String::new();
        for (n, v) in &self.0 {
            let _ = writeln!(s, "{n} {v}");
        }
        s.trim_end().to_string()
    }
}

/// What one child process reported.
#[derive(Debug)]
struct ChildRun {
    values: Report,
    digest: u64,
    result_digest: u64,
}

impl ChildRun {
    fn value(&self, name: &str) -> f64 {
        self.values.get(name).unwrap_or(f64::NAN)
    }

    fn jobs(&self) -> u64 {
        self.value("jobs") as u64
    }
}

/// Runs one child to completion. `None` when it failed or printed
/// something unreadable; the child's standard error passes through.
fn spawn(role: Role, workload: Workload, seed: u64, dir: &Path) -> Option<ChildRun> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--child", role.name(), "--workload", workload.name()])
        .args(["--seed", &seed.to_string(), "--recordings"])
        .arg(dir)
        .env("PERFCLOUD_THREADS", "1")
        .env("PERFCLOUD_SHARDS", "1")
        .env_remove("PERFCLOUD_SEED")
        .env_remove("PERFCLOUD_BASELINE_CACHE")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        eprintln!("perfbench: {} {} child failed: {}", role.name(), workload.name(), output.status);
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let (mut values, mut digest, mut result_digest) = (Report::default(), None, None);
    for line in text.lines() {
        let (name, v) = line.split_once(' ')?;
        match name {
            "digest" => digest = v.parse().ok(),
            "result_digest" => result_digest = v.parse().ok(),
            _ => values.put(name, v.parse().ok()?),
        }
    }
    Some(ChildRun { values, digest: digest?, result_digest: result_digest? })
}

/// Median and inter-quartile range (type-7 quartiles).
fn median_iqr(xs: &[f64]) -> (f64, f64) {
    let q = |p| quantile(xs, p).unwrap_or(f64::NAN);
    (q(0.5), q(0.75) - q(0.25))
}

/// One end-to-end metric over a workload's timed reps.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    listed: bool,
    median: f64,
    iqr: f64,
    /// One value per timed rep, in run order.
    values: Vec<f64>,
}

/// Everything measured for one workload.
#[derive(Debug, Default)]
struct Measured {
    /// Timed reps; `None` for a child that failed.
    reps: Vec<Option<ChildRun>>,
    /// The traced run, if one was made; the outer `None` when not asked.
    traced: Option<Option<ChildRun>>,
    /// The digest every run must reproduce; for `finemon_replay`, the
    /// recording run's result digest.
    expected: Option<u64>,
}

impl Measured {
    /// Whether a run agrees with the expected digest (the first timed rep
    /// when nothing else sets it).
    fn agrees(&self, w: Workload, run: &ChildRun) -> bool {
        let reference =
            self.expected.or_else(|| self.reps.iter().flatten().next().map(|r| r.digest));
        let mine = if w == Workload::FinemonReplay { run.result_digest } else { run.digest };
        Some(mine) == reference
    }

    /// Jobs attempted and failed over every run. A failed or disagreeing
    /// run counts all its jobs as failed.
    fn jobs(&self, w: Workload, jobs_per_rep: u64) -> (u64, u64) {
        let runs = self.reps.iter().chain(self.traced.iter());
        let (mut attempted, mut failed) = (0, 0);
        for run in runs {
            attempted += jobs_per_rep;
            failed += match run {
                Some(r) if self.agrees(w, r) => r.jobs() - r.value("jobs_done") as u64,
                _ => jobs_per_rep,
            };
        }
        (attempted, failed)
    }

    fn timed(&self, name: &str) -> Vec<f64> {
        self.reps.iter().flatten().map(|r| r.value(name)).collect()
    }

    /// End-to-end metrics over the timed reps.
    fn end_to_end(&self, w: Workload, jobs_per_rep: u64) -> Vec<Metric> {
        let (attempted, failed) = self.jobs(w, jobs_per_rep);
        END_TO_END
            .iter()
            .map(|&(name, unit, listed)| {
                let values = match name {
                    "server_ticks_per_s" => {
                        let ticks = self.timed("server_ticks");
                        ticks.iter().zip(self.timed("run_s")).map(|(t, r)| t / r).collect()
                    }
                    "jobs_failed_frac" => vec![failed as f64 / attempted.max(1) as f64],
                    _ => self.timed(name),
                };
                let (median, iqr) = median_iqr(&values);
                Metric { name, unit, listed, median, iqr, values }
            })
            .collect()
    }

    /// Per-layer metrics of the traced run: `(name, unit, listed, value)`.
    fn per_layer(&self) -> Vec<(&'static str, &'static str, bool, f64)> {
        let Some(Some(t)) = &self.traced else { return Vec::new() };
        let (run_s, _) = median_iqr(&self.timed("run_s"));
        PER_LAYER
            .iter()
            .map(|&(name, unit, listed)| {
                let v = match name {
                    "traced.overhead_frac" => t.value("traced.wall_s") / run_s - 1.0,
                    _ => t.value(name),
                };
                (name, unit, listed, v)
            })
            .collect()
    }
}

/// Timed reps of each workload in the full invocation.
const REPS: usize = 5;

/// Timed reps a time-bounded measurement makes at least, so its median
/// discards one disturbed rep.
const MIN_REPS: usize = 3;

/// How long the timed phase runs.
#[derive(Debug, Clone, Copy)]
enum Reps {
    /// This many rounds over the workloads.
    Rounds(usize),
    /// Rounds until this much time has passed.
    For(Duration),
}

/// A scratch directory for recordings, removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Measures `workloads`: the recording run if `finemon_replay` needs one,
/// timed reps round-robin, then one traced run per workload if asked.
fn measure(
    workloads: &[Workload],
    seed: u64,
    reps: Reps,
    trace: bool,
) -> Result<Vec<Measured>, String> {
    // Recordings live beside the binary, inside the build directory.
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("binary has no directory")?
        .join(format!("perfbench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let scratch = Scratch(dir);

    let mut measured: Vec<Measured> = workloads.iter().map(|_| Measured::default()).collect();
    if workloads.contains(&Workload::FinemonReplay) {
        let record = spawn(Role::Record, Workload::Finemon, seed, &scratch.0);
        for (w, m) in workloads.iter().zip(&mut measured) {
            // Both the finemon reps and the replay must reproduce the run
            // the recordings came from; a failed recording fails both.
            m.expected = match (w, &record) {
                (Workload::Finemon, Some(r)) => Some(r.digest),
                (Workload::FinemonReplay, Some(r)) => Some(r.result_digest),
                (Workload::Finemon | Workload::FinemonReplay, None) => Some(0),
                _ => None,
            };
        }
    }
    let start = Instant::now();
    let mut round = 0;
    while match reps {
        Reps::Rounds(n) => round < n,
        Reps::For(d) => round < MIN_REPS || start.elapsed() < d,
    } {
        for (w, m) in workloads.iter().zip(&mut measured) {
            m.reps.push(spawn(Role::Timed, *w, seed, &scratch.0));
        }
        round += 1;
    }
    if trace {
        for (w, m) in workloads.iter().zip(&mut measured) {
            m.traced = Some(spawn(Role::Traced, *w, seed, &scratch.0));
        }
    }
    Ok(measured)
}

/// Jobs one rep of `w` submits, from the first run that reported it.
fn jobs_per_rep(m: &Measured) -> u64 {
    m.reps.iter().chain(m.traced.iter()).flatten().map(ChildRun::jobs).next().unwrap_or(1)
}

/// Whether every run of `m` finished and agrees.
fn all_correct(w: Workload, m: &Measured) -> bool {
    let (_, failed) = m.jobs(w, jobs_per_rep(m));
    failed == 0
}

/// Prints a workload's metrics by name with their units.
fn print_workload(w: Workload, m: &Measured) {
    let n = m.reps.iter().flatten().count();
    println!("== {} ({} jobs per rep, {n} timed reps) ==", w.name(), jobs_per_rep(m));
    for e in m.end_to_end(w, jobs_per_rep(m)) {
        let (name, unit, med, iqr) = (e.name, e.unit, e.median, e.iqr);
        println!("  {name:<24} {med:>14.6} {unit:<6} (median of {n}, IQR {iqr:.6})");
    }
    for (name, unit, _, v) in m.per_layer() {
        println!("  {name:<24} {v:>14.6} {unit}");
    }
    let status = if all_correct(w, m) { "correct" } else { "INCORRECT" };
    let digest = m.reps.iter().flatten().next().map_or(0, |r| r.digest);
    println!("  digest {digest:016x}: {status}");
}

/// The one-workload mode: one JSON result line.
fn one_workload(w: Workload, args: &Args) -> Result<bool, String> {
    let seconds = Duration::from_secs(args.seconds.expect("checked with --workload"));
    let measured = measure(&[w], args.seed, Reps::For(seconds), args.trace)?;
    let m = &measured[0];
    print_workload(w, m);
    let (attempted, failed) = m.jobs(w, jobs_per_rep(m));
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        m.per_layer().into_iter().filter(|p| p.2).map(|(n, u, _, v)| (n, u, v)).collect()
    } else {
        let e2e = m.end_to_end(w, jobs_per_rep(m)).into_iter().filter(|e| e.listed);
        e2e.map(|e| (e.name, e.unit, e.median)).collect()
    };
    let mut line = String::new();
    let correct = failed == 0;
    let _ = write!(
        line,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

/// The full invocation: every workload, a report file.
fn every_workload(args: &Args) -> Result<bool, String> {
    let t0 = Instant::now();
    let measured = measure(&Workload::ALL, args.seed, Reps::Rounds(REPS), true)?;
    let mut correct = true;
    for (w, m) in Workload::ALL.iter().zip(&measured) {
        print_workload(*w, m);
        correct &= all_correct(*w, m);
    }
    let json = report_json(args, &measured);
    if let Some(parent) = args.out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    std::fs::write(&args.out, json).map_err(|e| format!("writing {}: {e}", args.out.display()))?;
    println!(
        "report: {} ({:.1} s, {})",
        args.out.display(),
        t0.elapsed().as_secs_f64(),
        if correct { "all runs correct" } else { "SOME RUNS FAILED" }
    );
    Ok(correct)
}

/// A JSON number; non-finite values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..40.min(l.len())].to_string())
        }),
        None => Some(head),
    };
    rev.map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).unwrap_or_else(|| "unknown".into())
}

fn report_json(args: &Args, measured: &[Measured]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"git_rev\": \"{}\",\n  \"nproc\": {nproc},\n  \"profile\": \"{profile}\",\n  \
         \"seed\": {},\n  \"reps\": {},\n  \"workloads\": {{",
        git_rev(),
        args.seed,
        REPS
    );
    for (i, (w, m)) in Workload::ALL.iter().zip(measured).enumerate() {
        let jobs = jobs_per_rep(m);
        let (attempted, failed) = m.jobs(*w, jobs);
        let digest = m.reps.iter().flatten().next().map_or(0, |r| r.digest);
        let _ = write!(
            s,
            "{}\n    \"{}\": {{\n      \"correct\": {},\n      \"jobs_per_rep\": {jobs},\n      \
             \"attempted\": {attempted},\n      \"failed\": {failed},\n      \
             \"digest\": \"{digest:016x}\",\n      \"end_to_end\": {{",
            if i == 0 { "" } else { "," },
            w.name(),
            all_correct(*w, m),
        );
        for (k, e) in m.end_to_end(*w, jobs).into_iter().enumerate() {
            let values: Vec<String> = e.values.iter().map(|v| json_number(*v)).collect();
            let _ = write!(
                s,
                "{}\n        \"{}\": {{\"median\": {}, \"iqr\": {}, \"n\": {}, \"unit\": \"{}\", \
                 \"values\": [{}]}}",
                if k == 0 { "" } else { "," },
                e.name,
                json_number(e.median),
                json_number(e.iqr),
                e.values.len(),
                e.unit,
                values.join(", ")
            );
        }
        s.push_str("\n      },\n      \"per_layer\": {");
        for (k, (name, unit, _, v)) in m.per_layer().into_iter().enumerate() {
            let _ = write!(
                s,
                "{}\n        \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if k == 0 { "" } else { "," },
                json_number(v)
            );
        }
        s.push_str("\n      }\n    }");
    }
    s.push_str("\n  }\n}\n");
    s
}
