//! Golden-trace regression harness.
//!
//! Every scenario in [`scenarios`] renders a canonical text artifact — the
//! decision trace of a node-manager run, or a summary table of a mini
//! sweep — that is checked into `tests/golden/` at the repository root.
//! [`check`] diffs a freshly generated artifact against the checked-in one
//! and, on mismatch, reports the **first diverging line** with context, so
//! a behavioural regression points straight at the first decision that
//! changed. Set `BLESS=1` to regenerate the golden files after an
//! intentional behaviour change.
//!
//! Scenario outputs use a fixed literal seed (not `PERFCLOUD_SEED`) so the
//! goldens do not depend on the environment, and every run is single-seeded
//! and tick-deterministic, so the artifacts are byte-identical no matter
//! how many sweep threads (`PERFCLOUD_THREADS`) execute them.

use crate::scenarios::{ANTAGONIST_ONSET, JOB_START};
use crate::sweep;
use perfcloud_baselines::{Dolly, LatePolicy};
use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
    TelemetrySpec,
};
use perfcloud_core::PerfCloudConfig;
use perfcloud_ctrl::{ControlPlaneSpec, LinkSpec, NodeId, Partition};
use perfcloud_frameworks::Benchmark;
use perfcloud_obs::{ExportSource, FlightEvent};
use perfcloud_place::PlacementConfig;
use perfcloud_sim::{
    FaultKind, FaultRule, FaultScenario, MessageClass, MetricClass, SimDuration, SimTime,
};
use perfcloud_stats::BoxplotSummary;
use rand::Rng;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// The master seed baked into every golden scenario. Deliberately a
/// literal — golden artifacts must not follow the `PERFCLOUD_SEED`
/// override, or the suite would fail for anyone with the variable set.
pub const GOLDEN_SEED: u64 = 42;

/// Flight events each track retains during a golden run.
pub const FLIGHT_CAPACITY: usize = 4096;

/// Whether golden runs turn observability on (the default). The
/// `golden_obs_off` suite clears this in its own process to prove the
/// artifacts are byte-identical without observability; recording is pure
/// observation, so the artifact bytes must not depend on this flag.
pub static OBSERVE_GOLDENS: AtomicBool = AtomicBool::new(true);

thread_local! {
    /// Flight tracks of the most recent golden run built on this thread,
    /// taken to annotate first-divergence reports ([`check`]) and by
    /// `run_all --trace-out` to export a full Perfetto trace.
    static LAST_FLIGHT_SOURCES: RefCell<Vec<ExportSource>> = const { RefCell::new(Vec::new()) };
}

/// Takes (and clears) the flight tracks of the most recent golden run
/// built on this thread. Empty when the run was not observed.
pub fn take_flight_sources() -> Vec<ExportSource> {
    LAST_FLIGHT_SOURCES.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// One named golden scenario: `build()` renders the canonical artifact.
pub struct GoldenScenario {
    /// File stem under `tests/golden/` (`<name>.trace`).
    pub name: &'static str,
    /// Renders the artifact from scratch.
    pub build: fn() -> String,
}

/// Whether golden runs snapshot mid-run and finish on the fork
/// (`FORK_GOLDENS=1`). [`Experiment::fork`] promises a fork continues
/// byte-identically to its parent, so every golden artifact must come out
/// unchanged — any missed byte of state (an RNG position, a monitor
/// window, an in-flight message) surfaces as a golden diff. CI runs the
/// golden suites once more with this set (and never with `BLESS`).
pub fn fork_goldens() -> bool {
    std::env::var("FORK_GOLDENS").map(|v| v == "1").unwrap_or(false)
}

/// Snapshot instant for the `FORK_GOLDENS=1` leg: 30 s (ticks are 100 ms)
/// is past detection and the throttling onset and inside every fault
/// window, yet safely before any golden scenario's job completes — the
/// fork is taken with live monitor windows, controller state, fault
/// machinery, and in-flight control messages.
const FORK_PREFIX_TICKS: u64 = 300;

/// Runs an experiment to completion — straight through, or (with
/// `FORK_GOLDENS=1`) via a mid-run snapshot whose fork finishes the run.
fn run_to_completion(mut e: Experiment) -> (Experiment, perfcloud_cluster::ExperimentResult) {
    if fork_goldens() {
        for _ in 0..FORK_PREFIX_TICKS {
            e.step_tick();
        }
        e = e.fork();
    }
    let r = e.run();
    (e, r)
}

/// All golden scenarios: the fault-free references, one scenario per fault
/// class, a kitchen-sink mix, and the mini Fig. 12(b) sweep.
pub fn scenarios() -> Vec<GoldenScenario> {
    vec![
        GoldenScenario { name: "baseline", build: baseline },
        GoldenScenario { name: "ablation_monitoring", build: ablation_monitoring },
        GoldenScenario { name: "chaos_drop", build: chaos_drop },
        GoldenScenario { name: "chaos_delay", build: chaos_delay },
        GoldenScenario { name: "chaos_duplicate", build: chaos_duplicate },
        GoldenScenario { name: "chaos_nan_iowait", build: chaos_nan_iowait },
        GoldenScenario { name: "chaos_spike_cpi", build: chaos_spike_cpi },
        GoldenScenario { name: "chaos_stuck_iowait", build: chaos_stuck_iowait },
        GoldenScenario { name: "chaos_stall", build: chaos_stall },
        GoldenScenario { name: "chaos_crash", build: chaos_crash },
        GoldenScenario { name: "chaos_desync", build: chaos_desync },
        GoldenScenario { name: "chaos_kitchen_sink", build: chaos_kitchen_sink },
        GoldenScenario { name: "ctrl_coordinator_crash", build: ctrl_coordinator_crash },
        GoldenScenario { name: "ctrl_partition_heal", build: ctrl_partition_heal },
        GoldenScenario { name: "ctrl_lossy_placement", build: ctrl_lossy_placement },
        GoldenScenario { name: "placement_throttle", build: placement_throttle },
        GoldenScenario { name: "placement_migrate", build: placement_migrate },
        GoldenScenario { name: "placement_hybrid", build: placement_hybrid },
        GoldenScenario { name: "fig12b_mini", build: fig12b_mini },
    ]
}

/// The shared chaos testbed: the small-scale cluster, one 20-task terasort
/// job (long enough for detection → identification → throttling to play
/// out), one fio antagonist arriving mid-run, PerfCloud (unless
/// overridden) — the same shape as the paper's Fig. 10 case study — with
/// `faults` injected into the node manager. Returns the run's canonical
/// artifact: two summary headers plus the full decision trace.
fn chaos_run(faults: Option<FaultScenario>, mitigation: Mitigation) -> String {
    chaos_run_with_control(faults, mitigation, ControlPlaneSpec::default())
}

/// [`chaos_run`] with an explicit control-plane deployment — used by the
/// `ctrl_*` scenarios to run replicated cloud managers over a lossy or
/// partitioned network while the same job/antagonist testbed plays out.
fn chaos_run_with_control(
    faults: Option<FaultScenario>,
    mitigation: Mitigation,
    control: ControlPlaneSpec,
) -> String {
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(GOLDEN_SEED), mitigation);
    cfg.jobs.push((JOB_START, Benchmark::Terasort.job(20)));
    cfg.antagonists
        .push(AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(ANTAGONIST_ONSET));
    cfg.max_sim_time = SimTime::from_secs(7_200);
    cfg.faults = faults;
    cfg.control = control;
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    if OBSERVE_GOLDENS.load(Ordering::Relaxed) {
        e.enable_observability(FLIGHT_CAPACITY);
    }
    let (e, r) = run_to_completion(e);
    LAST_FLIGHT_SOURCES.with(|s| *s.borrow_mut() = e.flight_sources());
    let trace = e.decision_trace().expect("trace enabled");
    let mut out = String::new();
    let _ = writeln!(out, "# jct={}", r.sole_jct());
    let _ = writeln!(out, "# antagonist_io_ops={}", r.antagonists[0].io_ops);
    out.push_str(&trace.canonical());
    out
}

fn perfcloud() -> Mitigation {
    Mitigation::PerfCloud(PerfCloudConfig::default())
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn baseline() -> String {
    chaos_run(None, perfcloud())
}

fn ablation_monitoring() -> String {
    // Monitoring-only node managers: deviations are recorded but thresholds
    // sit at infinity, so the trace must show signals and no decisions.
    chaos_run(None, Mitigation::Default)
}

fn chaos_drop() -> String {
    let s = FaultScenario::named("drop").rule(
        FaultRule::new("drop-30pct", FaultKind::DropSample)
            .window(secs(20), secs(120))
            .with_probability(0.3),
    );
    chaos_run(Some(s), perfcloud())
}

fn chaos_delay() -> String {
    let s = FaultScenario::named("delay").rule(
        FaultRule::new("delay-2", FaultKind::DelaySample { intervals: 2 })
            .window(secs(20), secs(120))
            .with_probability(0.4),
    );
    chaos_run(Some(s), perfcloud())
}

fn chaos_duplicate() -> String {
    let s = FaultScenario::named("duplicate").rule(
        FaultRule::new("dup-half", FaultKind::DuplicateSample)
            .window(secs(20), secs(120))
            .with_probability(0.5),
    );
    chaos_run(Some(s), perfcloud())
}

fn chaos_nan_iowait() -> String {
    let s = FaultScenario::named("nan-iowait").rule(
        FaultRule::new("nan-all", FaultKind::CorruptNaN)
            .on_metric(MetricClass::BlkioIowait)
            .window(secs(25), secs(60)),
    );
    chaos_run(Some(s), perfcloud())
}

fn chaos_spike_cpi() -> String {
    let s = FaultScenario::named("spike-cpi").rule(
        FaultRule::new("spike-50x", FaultKind::CorruptSpike { factor: 50.0 })
            .on_metric(MetricClass::Cpi)
            .window(secs(25), secs(80))
            .with_probability(0.5),
    );
    chaos_run(Some(s), perfcloud())
}

fn chaos_stuck_iowait() -> String {
    let s = FaultScenario::named("stuck-iowait").rule(
        FaultRule::new("stuck-all", FaultKind::CorruptStuckAt)
            .on_metric(MetricClass::BlkioIowait)
            .window(secs(30), secs(90)),
    );
    chaos_run(Some(s), perfcloud())
}

fn chaos_stall() -> String {
    let s = FaultScenario::named("stall").rule(
        FaultRule::new("stall-3", FaultKind::StallManager { intervals: 3 })
            .window(secs(30), secs(35)),
    );
    chaos_run(Some(s), perfcloud())
}

fn chaos_crash() -> String {
    let s = FaultScenario::named("crash")
        .rule(FaultRule::new("crash-once", FaultKind::CrashRestart).window(secs(40), secs(45)));
    chaos_run(Some(s), perfcloud())
}

fn chaos_desync() -> String {
    let s = FaultScenario::named("desync").rule(
        FaultRule::new("desync-20", FaultKind::DesyncPlacement { intervals: 20 })
            .window(secs(20), secs(25)),
    );
    chaos_run(Some(s), perfcloud())
}

fn chaos_kitchen_sink() -> String {
    let s = FaultScenario::named("kitchen-sink")
        .rule(
            FaultRule::new("drop", FaultKind::DropSample)
                .window(secs(20), secs(200))
                .with_probability(0.15),
        )
        .rule(
            FaultRule::new("delay", FaultKind::DelaySample { intervals: 1 })
                .window(secs(20), secs(200))
                .with_probability(0.2),
        )
        .rule(
            FaultRule::new("nan-iowait", FaultKind::CorruptNaN)
                .on_metric(MetricClass::BlkioIowait)
                .window(secs(30), secs(90))
                .with_probability(0.3),
        )
        .rule(
            FaultRule::new("spike-cpi", FaultKind::CorruptSpike { factor: 25.0 })
                .on_metric(MetricClass::Cpi)
                .window(secs(30), secs(90))
                .with_probability(0.3),
        )
        .rule(
            FaultRule::new("stall", FaultKind::StallManager { intervals: 2 })
                .window(secs(50), secs(55)),
        )
        .rule(FaultRule::new("crash", FaultKind::CrashRestart).window(secs(70), secs(75)))
        .rule(
            FaultRule::new("desync", FaultKind::DesyncPlacement { intervals: 10 })
                .window(secs(100), secs(105)),
        );
    chaos_run(Some(s), perfcloud())
}

/// Three cloud-manager replicas on a high-latency (600 ms) link; the
/// coordinator m0 dies mid-contention and heals 30 s later still believing
/// it leads. The trace must show the Bully handover (m1 wins a contested
/// round — the RTT forces a generous election timeout), placement epochs
/// jumping to m1's term within the staleness budget, and the healed m0's
/// stale republish being rejected by epoch and stepped down.
fn ctrl_coordinator_crash() -> String {
    // The heal lands just before the t=35 sampling instant AND just after
    // the new coordinator's in-flight heartbeat died against the still-down
    // replica, so the healed m0 still believes it leads when the publish
    // fires — the epoch-regression window the node managers must reject.
    let s = FaultScenario::named("ctrl-coordinator-crash").rule(
        FaultRule::new("down-m0", FaultKind::DownReplica)
            .on_server(0)
            .window(secs(12), SimTime::from_secs_f64(34.9)),
    );
    let control = ControlPlaneSpec {
        managers: 3,
        link: LinkSpec { latency: SimDuration::from_millis(600), ..LinkSpec::default() },
        // The election timeout must exceed the answer round-trip (1.2 s),
        // or a worse candidate wins its round before the Answer lands.
        election_timeout: SimDuration::from_millis(1_500),
        trace_events: true,
        ..ControlPlaneSpec::default()
    };
    chaos_run_with_control(Some(s), perfcloud(), control)
}

/// Three replicas with the coordinator m0 partitioned away from everyone
/// else for 30 s. The majority side elects m1 and keeps placement flowing;
/// the isolated m0 publishes into the void (visible as fully-cut publish
/// events). At heal both sides publish into the same interval: epoch
/// ordering rejects the stale coordinator's update and its own heartbeat
/// draws the step-down correction.
fn ctrl_partition_heal() -> String {
    let control = ControlPlaneSpec {
        managers: 3,
        link: LinkSpec { latency: SimDuration::from_millis(10), ..LinkSpec::default() },
        // Heals just before the t=30 sampling instant, so both the isolated
        // stale coordinator and the elected one publish into the same
        // interval and epoch ordering has to arbitrate.
        partitions: vec![Partition {
            name: "m0-isolated".into(),
            side_a: vec![NodeId::manager(0)],
            side_b: vec![NodeId::manager(1), NodeId::manager(2), NodeId::server(0)],
            from: secs(12),
            until: SimTime::from_secs_f64(29.9),
        }],
        trace_events: true,
        ..ControlPlaneSpec::default()
    };
    chaos_run_with_control(None, perfcloud(), control)
}

/// A single manager on a lossy link: placement updates are dropped at 35%
/// and occasionally delayed past the next publish, so stale epochs arrive
/// after fresher ones and must be rejected while the node manager rides
/// its cached view within the staleness budget.
fn ctrl_lossy_placement() -> String {
    // The delay exceeds the 5 s publish cadence, so a lagged epoch arrives
    // after its successor was applied and must be rejected as a regression.
    let s = FaultScenario::named("ctrl-lossy-placement")
        .rule(
            FaultRule::new("drop-placement", FaultKind::DropMessage)
                .on_message(MessageClass::Placement)
                .window(secs(10), secs(200))
                .with_probability(0.45),
        )
        .rule(
            FaultRule::new("lag-placement", FaultKind::DelayMessage { micros: 6_000_000 })
                .on_message(MessageClass::Placement)
                .window(secs(10), secs(200))
                .with_probability(0.2),
        );
    let control = ControlPlaneSpec {
        link: LinkSpec { latency: SimDuration::from_millis(10), ..LinkSpec::default() },
        trace_events: true,
        ..ControlPlaneSpec::default()
    };
    chaos_run_with_control(Some(s), perfcloud(), control)
}

/// The placement testbed: the chaos job/antagonist shape on a two-server
/// cluster whose second server is held spare (no workers), so a placement
/// policy has somewhere to move the antagonist. Same seed and onsets as
/// [`chaos_run`]; the artifact adds a `# migrations=` header pinning how
/// many live migrations the run started, so a policy change that starts
/// migrating (or stops) is a one-line golden diff even before any
/// decision drifts.
fn placement_run(mitigation: Mitigation) -> String {
    let mut e = build_placement(mitigation, TelemetrySpec::default());
    if OBSERVE_GOLDENS.load(Ordering::Relaxed) {
        e.enable_observability(FLIGHT_CAPACITY);
    }
    let (e, r) = run_to_completion(e);
    LAST_FLIGHT_SOURCES.with(|s| *s.borrow_mut() = e.flight_sources());
    placement_artifact(&e, &r)
}

/// Builds the placement-testbed experiment (decision trace enabled) with
/// an explicit telemetry spec. Public so the record/replay acceptance
/// suite can tee the exact `placement_hybrid` golden run, replay the
/// recording, and byte-compare both artifacts against the checked-in
/// golden.
pub fn build_placement(mitigation: Mitigation, telemetry: TelemetrySpec) -> Experiment {
    let mut cluster = ClusterSpec::small_scale(GOLDEN_SEED);
    cluster.servers = 2;
    cluster.spare_servers = 1;
    let mut cfg = ExperimentConfig::new(cluster, mitigation);
    cfg.jobs.push((JOB_START, Benchmark::Terasort.job(20)));
    cfg.antagonists
        .push(AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(ANTAGONIST_ONSET));
    cfg.max_sim_time = SimTime::from_secs(7_200);
    cfg.telemetry = telemetry;
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    e
}

/// Renders the canonical placement-golden artifact of a completed
/// [`build_placement`] run.
pub fn placement_artifact(e: &Experiment, r: &perfcloud_cluster::ExperimentResult) -> String {
    let trace = e.decision_trace().expect("trace enabled");
    let migrations = e.placement().map_or(0, |rt| rt.migrations_started());
    let mut out = String::new();
    let _ = writeln!(out, "# jct={}", r.sole_jct());
    let _ = writeln!(out, "# antagonist_io_ops={}", r.antagonists[0].io_ops);
    let _ = writeln!(out, "# migrations={migrations}");
    out.push_str(&trace.canonical());
    out
}

/// Throttle-only arm of the placement comparison: PerfCloud caps the
/// antagonist in place; the spare server stays empty and `migrations=0`.
fn placement_throttle() -> String {
    placement_run(perfcloud())
}

/// Migrate-only arm: no throttling — the identified antagonist is
/// live-migrated to the spare server and runs there uncapped.
fn placement_migrate() -> String {
    placement_run(Mitigation::MigrateOnly(PlacementConfig))
}

/// Hybrid arm: throttle while the interference penalty accrues, then
/// migrate the antagonist away entirely.
fn placement_hybrid() -> String {
    placement_run(Mitigation::Hybrid(PerfCloudConfig::default(), PlacementConfig))
}

/// A down-scaled Fig. 12(b): the Spark logistic-regression job under
/// randomly placed antagonists, 6 repetitions over 4 servers for each of
/// LATE, Dolly-4 and PerfCloud. This pins the default-seed normalized-JCT
/// distributions — including the spread ordering, which at this mini scale
/// is close between systems and has historically drifted under innocuous-
/// looking changes to sampling or identification. Any such drift now shows
/// up as a golden diff instead of a silent shape change.
fn fig12b_mini() -> String {
    const SERVERS: usize = 4;
    const REPS: usize = 6;
    const TASKS: usize = 12;
    let bench = Benchmark::LogisticRegression;

    let solo = {
        let mut cluster = ClusterSpec::large_scale(GOLDEN_SEED);
        cluster.servers = SERVERS;
        let mut cfg = ExperimentConfig::new(cluster, Mitigation::Default);
        cfg.jobs.push((JOB_START, bench.job(TASKS)));
        cfg.max_sim_time = SimTime::from_secs(7_200);
        run_to_completion(Experiment::build(cfg)).1.sole_jct()
    };

    type MitigationFactory = fn() -> Mitigation;
    let systems: [(&str, MitigationFactory); 3] = [
        ("late", || Mitigation::Late(LatePolicy::default())),
        ("dolly-4", || Mitigation::Dolly(Dolly::new(4))),
        ("perfcloud", perfcloud),
    ];

    let mut out = String::new();
    let _ = writeln!(out, "# fig12b-mini servers={SERVERS} reps={REPS} solo_jct={solo}");
    for (name, make) in systems {
        let jcts: Vec<f64> = sweep::run(REPS, |rep| {
            let rep_rng = sweep::rep_factory(GOLDEN_SEED, rep);
            let mut r = rep_rng.stream("fig12/placement");
            let mut antagonists = Vec::new();
            for _ in 0..(SERVERS / 3).max(1) {
                for kind in [AntagonistKind::Fio, AntagonistKind::Stream] {
                    let start = SimTime::from_secs_f64(10.0 + 30.0 * r.gen::<f64>());
                    antagonists.push(
                        AntagonistPlacement::pinned(kind, r.gen_range(0..SERVERS))
                            .starting_at(start),
                    );
                }
            }
            let mut cluster = ClusterSpec::large_scale(GOLDEN_SEED ^ (rep as u64) << 8);
            cluster.servers = SERVERS;
            let mut cfg = ExperimentConfig::new(cluster, make());
            cfg.jobs.push((JOB_START, bench.job(TASKS)));
            cfg.antagonists = antagonists;
            cfg.max_sim_time = SimTime::from_secs(7_200);
            run_to_completion(Experiment::build(cfg)).1.sole_jct() / solo
        });
        let b = BoxplotSummary::from_data(&jcts).expect("non-empty");
        let list: Vec<String> = jcts.iter().map(|v| format!("{v}")).collect();
        let _ = writeln!(
            out,
            "system={name} njct={} median={} spread={}",
            list.join(","),
            b.median,
            b.whisker_spread()
        );
    }
    out
}

/// Outcome of diffing a scenario against its golden file.
#[derive(Debug)]
pub enum GoldenStatus {
    /// Byte-identical to the checked-in golden.
    Match,
    /// `BLESS=1` was set: the golden file was (re)written.
    Regenerated,
    /// The artifact differs; `diff` pinpoints the first diverging line.
    Mismatch {
        /// Human-readable first-divergence report.
        diff: String,
    },
}

/// Directory the golden files live in (`tests/golden/` at the repo root).
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Diffs `actual` against `tests/golden/<name>.trace`. With `BLESS=1` the
/// file is rewritten instead and [`GoldenStatus::Regenerated`] returned.
///
/// On mismatch, the report carries the causal chain of the first diverging
/// line ([`causal_chain`]) from `sources`, the flight tracks of the run
/// that produced `actual` ([`take_flight_sources`] on the thread that built
/// it; empty for an unobserved artifact), so a failure shows not just
/// *which* decision changed but what led up to it.
pub fn check(name: &str, actual: &str, sources: &[ExportSource]) -> GoldenStatus {
    let dir = golden_dir();
    let path = dir.join(format!("{name}.trace"));
    let bless = std::env::var("BLESS").map(|v| v == "1").unwrap_or(false);
    if bless {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden file");
        return GoldenStatus::Regenerated;
    }
    let expected = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(_) => {
            return GoldenStatus::Mismatch {
                diff: format!(
                    "golden file {} is missing — run the suite once with BLESS=1 to create it",
                    path.display()
                ),
            }
        }
    };
    if expected == actual {
        return GoldenStatus::Match;
    }
    let mut diff = first_divergence(name, &expected, actual);
    // The first actual line that differs, or the expected line it lacks.
    let mut exp = expected.lines();
    let line = actual.lines().find(|&a| exp.next() != Some(a)).or_else(|| exp.next());
    let chain = causal_chain(sources, line.unwrap_or_default());
    if !chain.is_empty() {
        let _ = write!(
            diff,
            "\nflight-recorder events of the diverging run, from the last detect-onset up to \
             that line:\n{chain}"
        );
    }
    GoldenStatus::Mismatch { diff }
}

/// Renders the first line where `expected` and `actual` diverge, with the
/// line number and both versions — "the first decision that changed".
pub fn first_divergence(name: &str, expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    for (i, (e, a)) in exp.iter().zip(act.iter()).enumerate() {
        if e != a {
            return format!(
                "golden trace '{name}' diverges at line {}:\n  expected: {e}\n  actual:   {a}",
                i + 1
            );
        }
    }
    if exp.len() != act.len() {
        let i = exp.len().min(act.len());
        let (side, line) = if exp.len() > act.len() {
            ("expected has extra", exp[i])
        } else {
            ("actual has extra", act[i])
        };
        return format!("golden trace '{name}' diverges at line {}: {side} line:\n  {line}", i + 1);
    }
    format!("golden trace '{name}': traces differ only in trailing whitespace")
}

/// The flight events that led to an artifact `line`, one per line prefixed
/// with its track name: the line's server track (`t=<secs> s=<i> …`) from
/// its last `detect-onset` at or before the line's instant up to that
/// instant — samples, then detect, identify, cap. A control-plane line
/// (`t=<secs> ctrl …`) gets the `ctrl` track over the window that starts
/// at the latest onset on any server. A line without an instant (a summary
/// header) is judged at the end of the run, on every server track.
pub fn causal_chain(sources: &[ExportSource], line: &str) -> String {
    let mut words = line.split(' ');
    let secs = words.next().and_then(|w| w.strip_prefix("t=")?.parse::<f64>().ok());
    let until = secs.map_or(u64::MAX, |secs| (secs * 1e6).round() as u64);
    let onset = |src: &ExportSource| {
        let mut upto = src.records.iter().rev().filter(|r| r.t <= until);
        upto.find(|r| matches!(r.event, FlightEvent::DetectOnset { .. })).map_or(0, |r| r.t)
    };
    let server = |src: &&ExportSource| src.name.starts_with("server");
    let ctrl_from = sources.iter().filter(server).map(onset).max().unwrap_or(0);
    let track = secs.and(words.next());
    let mut out = String::new();
    for src in sources {
        let from = match track {
            None if server(&src) => onset(src),
            Some("ctrl") if src.name == "ctrl" => ctrl_from,
            Some(s) if s.strip_prefix("s=").is_some_and(|i| src.name == format!("server{i}")) => {
                onset(src)
            }
            _ => continue,
        };
        for r in src.records.iter().filter(|r| (from..=until).contains(&r.t)) {
            let _ = writeln!(out, "[{}] {r}", src.name);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_divergence_points_at_the_first_changed_line() {
        let d = first_divergence("x", "a\nb\nc\n", "a\nB\nc\n");
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("expected: b"), "{d}");
        assert!(d.contains("actual:   B"), "{d}");
    }

    #[test]
    fn first_divergence_reports_length_mismatch() {
        let d = first_divergence("x", "a\nb\n", "a\n");
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("expected has extra"), "{d}");
    }

    #[test]
    fn causal_chain_walks_back_to_the_last_onset() {
        use perfcloud_obs::{Record, Resource};
        use FlightEvent::*;
        let track = |name: &str, rank, events: &[(u64, FlightEvent)]| ExportSource {
            name: name.into(),
            rank,
            records: (0..)
                .zip(events)
                .map(|(seq, &(secs, event))| Record { t: secs * 1_000_000, seq, event })
                .collect(),
        };
        let cap =
            |secs, level| (secs, CapUpdate { server: 0, vm: 10, resource: Resource::Io, level });
        let sources = [
            track(
                "server0",
                0,
                &[
                    (5, DetectOnset { server: 0, io: true, cpu: false }),
                    (10, DetectClear { server: 0 }),
                    (20, FlushBatch { server: 0, count: 6 }),
                    (20, DetectOnset { server: 0, io: true, cpu: false }),
                    (20, AntagonistIdentified { server: 0, vm: 10, resource: Resource::Io }),
                    cap(20, 0.2),
                    cap(25, 0.35),
                    cap(30, 0.5),
                ],
            ),
            track("server1", 1, &[(8, DetectOnset { server: 1, io: false, cpu: true })]),
            track(
                "ctrl",
                2,
                &[(12, Election { replica: 1, round: 2 }), (22, Election { replica: 1, round: 3 })],
            ),
        ];
        // A step line: its server's track from the last onset to its instant.
        assert_eq!(
            causal_chain(&sources, "t=25 s=0 dio=12.5 dcpi=- io=1 cpu=0"),
            "[server0] t=20 flush s0 n=6\n\
             [server0] t=20 detect-onset s0 io=1 cpu=0\n\
             [server0] t=20 identify s0 vm10 io\n\
             [server0] t=20 cap s0 vm10 io=0.2\n\
             [server0] t=25 cap s0 vm10 io=0.35\n"
        );
        // A ctrl line: the ctrl track from the latest onset on any server.
        assert_eq!(causal_chain(&sources, "t=24 ctrl elect m1 r=3"), "[ctrl] t=22 elect m1 r=3\n");
        assert_eq!(causal_chain(&sources, "t=13 ctrl elect m1 r=2"), "[ctrl] t=12 elect m1 r=2\n");
        // A header has no instant: every server track, to the end of the run.
        let header = causal_chain(&sources, "# jct=40");
        assert!(header.starts_with("[server0] t=20 flush s0 n=6\n"), "{header}");
        assert!(header.contains("[server0] t=30 cap s0 vm10 io=0.5\n"), "{header}");
        assert!(header.ends_with("[server1] t=8 detect-onset s1 io=0 cpu=1\n"), "{header}");
        assert!(causal_chain(&[], "t=25 s=0").is_empty());
    }

    #[test]
    fn a_mismatch_dumps_the_chain_of_its_first_diverging_line() {
        use perfcloud_obs::Record;
        if std::env::var("BLESS").is_ok_and(|v| v == "1") {
            return; // never bless a deliberately tampered artifact
        }
        let golden = std::fs::read_to_string(golden_dir().join("chaos_crash.trace")).unwrap();
        let onset = FlightEvent::DetectOnset { server: 0, io: true, cpu: false };
        let records = [(20, onset), (25, FlightEvent::DetectClear { server: 0 })]
            .map(|(secs, event)| Record { t: secs * 1_000_000, seq: 0, event });
        let sources = [ExportSource { name: "server0".into(), rank: 0, records: records.into() }];
        // Line 7 (t=25) changed: the dump runs from the onset at 20 s to 25 s.
        let tampered = golden.replacen("t=25 s=0 dio=6", "t=25 s=0 dio=7", 1);
        let GoldenStatus::Mismatch { diff } = check("chaos_crash", &tampered, &sources) else {
            panic!("tampered artifact matched");
        };
        assert!(diff.contains("diverges at line 7"), "{diff}");
        assert!(
            diff.ends_with(
                "[server0] t=20 detect-onset s0 io=1 cpu=0\n[server0] t=25 detect-clear s0\n"
            ),
            "{diff}"
        );
        // A line the tampered artifact lacks is judged by the golden's version.
        let cut = golden.lines().take(5).map(|l| format!("{l}\n")).collect::<String>();
        let GoldenStatus::Mismatch { diff } = check("chaos_crash", &cut, &sources) else {
            panic!("truncated artifact matched");
        };
        assert!(diff.ends_with("[server0] t=20 detect-onset s0 io=1 cpu=0\n"), "{diff}");
    }

    #[test]
    fn scenario_names_are_unique_and_nonempty() {
        let s = scenarios();
        assert!(s.len() >= 16);
        let mut names: Vec<&str> = s.iter().map(|sc| sc.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), s.len(), "duplicate scenario names");
    }
}
