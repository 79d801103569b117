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
use perfcloud_obs::{merged_dump, ExportSource};
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

/// Flight events each recorder retains during a golden run.
pub const FLIGHT_CAPACITY: usize = 4096;

/// Merged flight events a golden mismatch dumps for context.
pub const FLIGHT_DUMP_EVENTS: usize = 48;

/// Whether golden runs attach flight recorders (the default). The
/// `golden_obs_off` suite clears this in its own process to prove the
/// artifacts are byte-identical without observability; recording is pure
/// observation, so the artifact bytes must not depend on this flag.
pub static OBSERVE_GOLDENS: AtomicBool = AtomicBool::new(true);

thread_local! {
    /// Flight-recorder sources of the most recent golden run built on this
    /// thread, consumed by [`check`] to annotate first-divergence reports
    /// and by `run_all --trace-out` to export a full Perfetto trace.
    static LAST_FLIGHT_SOURCES: RefCell<Vec<ExportSource>> = const { RefCell::new(Vec::new()) };
}

/// Takes (and clears) the flight-recorder sources of the most recent
/// golden run built on this thread. Empty when the run had no recorders.
pub fn take_flight_sources() -> Vec<ExportSource> {
    LAST_FLIGHT_SOURCES.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Takes (and clears) this thread's flight sources, rendered as the
/// newest [`FLIGHT_DUMP_EVENTS`] merged events — the mismatch context.
pub fn take_flight_dump() -> String {
    merged_dump(&take_flight_sources(), FLIGHT_DUMP_EVENTS)
}

/// One named golden scenario: `build(shards)` renders the canonical
/// artifact with the experiment partitioned into that many in-run shards.
/// The bytes must be identical at every shard count; pass
/// [`env_shards`]`()` to follow the `PERFCLOUD_SHARDS` environment (the CI
/// matrix), or a literal to pin a count in-process (the shard-invariance
/// suites — an env var would race parallel tests).
pub struct GoldenScenario {
    /// File stem under `tests/golden/` (`<name>.trace`).
    pub name: &'static str,
    /// Renders the artifact from scratch.
    pub build: fn(usize) -> String,
}

/// The ambient shard count: `PERFCLOUD_SHARDS`, default 1.
pub fn env_shards() -> usize {
    perfcloud_sim::shard::shards_from_env(1)
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
fn chaos_run(shards: usize, faults: Option<FaultScenario>, mitigation: Mitigation) -> String {
    chaos_run_with_control(shards, faults, mitigation, ControlPlaneSpec::default())
}

/// [`chaos_run`] with an explicit control-plane deployment — used by the
/// `ctrl_*` scenarios to run replicated cloud managers over a lossy or
/// partitioned network while the same job/antagonist testbed plays out.
fn chaos_run_with_control(
    shards: usize,
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
    e.set_shards(shards);
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

fn baseline(shards: usize) -> String {
    chaos_run(shards, None, perfcloud())
}

fn ablation_monitoring(shards: usize) -> String {
    // Monitoring-only node managers: deviations are recorded but thresholds
    // sit at infinity, so the trace must show signals and no decisions.
    chaos_run(shards, None, Mitigation::Default)
}

fn chaos_drop(shards: usize) -> String {
    let s = FaultScenario::named("drop").rule(
        FaultRule::new("drop-30pct", FaultKind::DropSample)
            .window(secs(20), secs(120))
            .with_probability(0.3),
    );
    chaos_run(shards, Some(s), perfcloud())
}

fn chaos_delay(shards: usize) -> String {
    let s = FaultScenario::named("delay").rule(
        FaultRule::new("delay-2", FaultKind::DelaySample { intervals: 2 })
            .window(secs(20), secs(120))
            .with_probability(0.4),
    );
    chaos_run(shards, Some(s), perfcloud())
}

fn chaos_duplicate(shards: usize) -> String {
    let s = FaultScenario::named("duplicate").rule(
        FaultRule::new("dup-half", FaultKind::DuplicateSample)
            .window(secs(20), secs(120))
            .with_probability(0.5),
    );
    chaos_run(shards, Some(s), perfcloud())
}

fn chaos_nan_iowait(shards: usize) -> String {
    let s = FaultScenario::named("nan-iowait").rule(
        FaultRule::new("nan-all", FaultKind::CorruptNaN)
            .on_metric(MetricClass::BlkioIowait)
            .window(secs(25), secs(60)),
    );
    chaos_run(shards, Some(s), perfcloud())
}

fn chaos_spike_cpi(shards: usize) -> String {
    let s = FaultScenario::named("spike-cpi").rule(
        FaultRule::new("spike-50x", FaultKind::CorruptSpike { factor: 50.0 })
            .on_metric(MetricClass::Cpi)
            .window(secs(25), secs(80))
            .with_probability(0.5),
    );
    chaos_run(shards, Some(s), perfcloud())
}

fn chaos_stuck_iowait(shards: usize) -> String {
    let s = FaultScenario::named("stuck-iowait").rule(
        FaultRule::new("stuck-all", FaultKind::CorruptStuckAt)
            .on_metric(MetricClass::BlkioIowait)
            .window(secs(30), secs(90)),
    );
    chaos_run(shards, Some(s), perfcloud())
}

fn chaos_stall(shards: usize) -> String {
    let s = FaultScenario::named("stall").rule(
        FaultRule::new("stall-3", FaultKind::StallManager { intervals: 3 })
            .window(secs(30), secs(35)),
    );
    chaos_run(shards, Some(s), perfcloud())
}

fn chaos_crash(shards: usize) -> String {
    let s = FaultScenario::named("crash")
        .rule(FaultRule::new("crash-once", FaultKind::CrashRestart).window(secs(40), secs(45)));
    chaos_run(shards, Some(s), perfcloud())
}

fn chaos_desync(shards: usize) -> String {
    let s = FaultScenario::named("desync").rule(
        FaultRule::new("desync-20", FaultKind::DesyncPlacement { intervals: 20 })
            .window(secs(20), secs(25)),
    );
    chaos_run(shards, Some(s), perfcloud())
}

fn chaos_kitchen_sink(shards: usize) -> String {
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
    chaos_run(shards, Some(s), perfcloud())
}

/// Three cloud-manager replicas on a high-latency (600 ms) link; the
/// coordinator m0 dies mid-contention and heals 30 s later still believing
/// it leads. The trace must show the Bully handover (m1 wins a contested
/// round — the RTT forces a generous election timeout), placement epochs
/// jumping to m1's term within the staleness budget, and the healed m0's
/// stale republish being rejected by epoch and stepped down.
fn ctrl_coordinator_crash(shards: usize) -> String {
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
    chaos_run_with_control(shards, Some(s), perfcloud(), control)
}

/// Three replicas with the coordinator m0 partitioned away from everyone
/// else for 30 s. The majority side elects m1 and keeps placement flowing;
/// the isolated m0 publishes into the void (visible as fully-cut publish
/// events). At heal both sides publish into the same interval: epoch
/// ordering rejects the stale coordinator's update and its own heartbeat
/// draws the step-down correction.
fn ctrl_partition_heal(shards: usize) -> String {
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
    chaos_run_with_control(shards, None, perfcloud(), control)
}

/// A single manager on a lossy link: placement updates are dropped at 35%
/// and occasionally delayed past the next publish, so stale epochs arrive
/// after fresher ones and must be rejected while the node manager rides
/// its cached view within the staleness budget.
fn ctrl_lossy_placement(shards: usize) -> String {
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
    chaos_run_with_control(shards, Some(s), perfcloud(), control)
}

/// The placement testbed: the chaos job/antagonist shape on a two-server
/// cluster whose second server is held spare (no workers), so a placement
/// policy has somewhere to move the antagonist. Same seed and onsets as
/// [`chaos_run`]; the artifact adds a `# migrations=` header pinning how
/// many live migrations the run started, so a policy change that starts
/// migrating (or stops) is a one-line golden diff even before any
/// decision drifts.
fn placement_run(shards: usize, mitigation: Mitigation) -> String {
    let mut e = build_placement(mitigation, TelemetrySpec::default());
    e.set_shards(shards);
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
fn placement_throttle(shards: usize) -> String {
    placement_run(shards, perfcloud())
}

/// Migrate-only arm: no throttling — the identified antagonist is
/// live-migrated to the spare server and runs there uncapped.
fn placement_migrate(shards: usize) -> String {
    placement_run(shards, Mitigation::MigrateOnly(PlacementConfig::default()))
}

/// Hybrid arm: throttle while the interference penalty accrues, then
/// migrate the antagonist away entirely.
fn placement_hybrid(shards: usize) -> String {
    placement_run(
        shards,
        Mitigation::Hybrid(PerfCloudConfig::default(), PlacementConfig::default()),
    )
}

/// A down-scaled Fig. 12(b): the Spark logistic-regression job under
/// randomly placed antagonists, 6 repetitions over 4 servers for each of
/// LATE, Dolly-4 and PerfCloud. This pins the default-seed normalized-JCT
/// distributions — including the spread ordering, which at this mini scale
/// is close between systems and has historically drifted under innocuous-
/// looking changes to sampling or identification. Any such drift now shows
/// up as a golden diff instead of a silent shape change.
fn fig12b_mini(shards: usize) -> String {
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
        let mut e = Experiment::build(cfg);
        e.set_shards(shards);
        run_to_completion(e).1.sole_jct()
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
            let mut e = Experiment::build(cfg);
            e.set_shards(shards);
            run_to_completion(e).1.sole_jct() / solo
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
/// On mismatch, the report carries the flight-recorder dump of the run
/// that produced `actual` (when one was recorded on this thread): the
/// last [`FLIGHT_DUMP_EVENTS`] events on the diverging side, so a failure
/// shows not just *which* decision changed but what the agents
/// and control plane were doing around it.
pub fn check(name: &str, actual: &str) -> GoldenStatus {
    // Always consume this thread's dump so a scenario that records nothing
    // cannot inherit a stale dump from a previous run on the same worker.
    let dump = take_flight_dump();
    check_with_dump(name, actual, &dump)
}

/// [`check`] with an explicitly captured flight dump — for callers that
/// render scenarios on sweep worker threads, where the thread-local dump
/// lives on the worker rather than the checking thread. Capture it inside
/// the worker closure with [`take_flight_dump`] and pass it here.
pub fn check_with_dump(name: &str, actual: &str, dump: &str) -> GoldenStatus {
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
        GoldenStatus::Match
    } else {
        let mut diff = first_divergence(name, &expected, actual);
        if !dump.is_empty() {
            let _ = write!(
                diff,
                "\nlast {FLIGHT_DUMP_EVENTS} flight-recorder events of the diverging run:\n{dump}"
            );
        }
        GoldenStatus::Mismatch { diff }
    }
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
    fn scenario_names_are_unique_and_nonempty() {
        let s = scenarios();
        assert!(s.len() >= 16);
        let mut names: Vec<&str> = s.iter().map(|sc| sc.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), s.len(), "duplicate scenario names");
    }
}
