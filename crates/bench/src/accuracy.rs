//! Ground-truth accuracy scoreboard for detection/identification pipelines.
//!
//! Antagonists are injected, so the truth behind every decision is known
//! exactly. This harness runs every (detector × identifier) pipeline over a
//! scenario matrix — the clean paper case study plus adversarial families
//! engineered at the paper pipeline's documented weaknesses — scores each
//! cell against the injected schedule, and renders the results as
//! `BENCH_accuracy.json` plus a human-readable table. The scoreboard is the
//! measurement substrate future detector changes are judged against: the
//! committed copy in `tests/golden/accuracy_scoreboard.trace` is checked
//! byte-for-byte by `accuracy_bench --check` (BLESS=1 regenerates), and
//! [`gate`] enforces the semantic floor — the paper pipeline must stay
//! strong on the clean scenario, and the alternatives must strictly beat it
//! on at least two adversarial families.
//!
//! ## Scoring semantics
//!
//! PerfCloud is a *closed loop*: once an antagonist is throttled the
//! contention it caused disappears, so a correct pipeline flags only a
//! handful of steps per episode and then (correctly) reports calm while the
//! antagonist is still running under caps. Step-wise recall would punish
//! exactly the pipelines that mitigate fastest. The scoreboard therefore
//! scores **event-wise recall** (each injected antagonist counts as
//! detected/identified if at least one step caught it inside its active
//! window) and **step-wise precision** (every flagged step outside a truth
//! window, or naming an innocent VM, counts against the pipeline), plus the
//! median time from workload onset to the first detection and the fraction
//! of cap-steps applied to VMs that were never guilty of that resource.

use crate::report::Table;
use crate::scenarios::JOB_START;
use crate::sweep;
use perfcloud_cluster::labels::GroundTruth;
use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, DecisionTrace, Experiment, ExperimentConfig,
    Mitigation,
};
use perfcloud_core::antagonist::Resource;
use perfcloud_core::{DetectorKind, IdentifierKind, PerfCloudConfig, PipelineSpec};
use perfcloud_frameworks::Benchmark;
use perfcloud_host::VmId;
use perfcloud_sim::{FaultKind, FaultRule, FaultScenario, SimDuration, SimTime};
use perfcloud_stats::median;
use std::fmt::Write as _;

/// Master seed baked into every accuracy scenario. A literal, like
/// [`crate::golden::GOLDEN_SEED`], so the scoreboard does not follow
/// `PERFCLOUD_SEED`.
pub const ACCURACY_SEED: u64 = 42;

/// Grace period (seconds) after an antagonist stops during which detection
/// flags still count as true: the monitor's EWMA decays over a few sampling
/// intervals, so the signal lags the workload by design.
pub const DETECT_GRACE_S: f64 = 30.0;

/// Grace period (seconds) after an antagonist stops during which naming it
/// still counts as true: the correlation windows retain `corr_window`
/// intervals (24 × 5 s) of evidence, so an identification can outlive the
/// workload by up to the window span without being wrong.
pub const IDENT_GRACE_S: f64 = 130.0;

/// All pipelines the scoreboard exercises: the 2 × 2 (detector ×
/// identifier) grid.
pub fn pipelines() -> Vec<PipelineSpec> {
    let mut out = Vec::new();
    for detector in [DetectorKind::Paper, DetectorKind::Alioth] {
        for identifier in [IdentifierKind::Paper, IdentifierKind::Panda] {
            out.push(PipelineSpec { detector, identifier });
        }
    }
    out
}

/// Which metric a scenario family is *about* — the one the gate compares
/// across pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Headline {
    /// Detection-level family: compare `detect_f1`.
    Detect,
    /// Identification-level family: compare (identification) `f1`.
    Ident,
}

/// One scenario family of the accuracy matrix.
pub struct ScenarioSpec {
    /// Scoreboard row name.
    pub name: &'static str,
    /// Whether the family is engineered at a pipeline weakness (the gate's
    /// "alternatives must beat paper" clause quantifies over these).
    pub adversarial: bool,
    /// The metric this family is scored on by the gate.
    pub headline: Headline,
    /// Builds the experiment configuration (pipeline filled in per cell).
    pub build: fn() -> ExperimentConfig,
}

/// When antagonists arrive in the accuracy scenarios.
const ONSET: SimTime = SimTime::from_secs(15);
/// How long bounded antagonists run.
const EPISODE: SimDuration = SimDuration::from_millis(150_000);

/// The shared testbed: the small-scale cluster running one 20-task
/// terasort — the same shape as the golden chaos testbed.
fn base_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(
        ClusterSpec::small_scale(ACCURACY_SEED),
        Mitigation::PerfCloud(PerfCloudConfig::default()),
    );
    cfg.jobs.push((JOB_START, Benchmark::Terasort.job(20)));
    cfg.max_sim_time = SimTime::from_secs(7_200);
    cfg
}

fn clean() -> ExperimentConfig {
    let mut cfg = base_config();
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(ONSET).lasting(EPISODE),
    );
    cfg
}

/// Noisy counters: the clean scenario with CPI samples spiked 50× at 35%
/// probability (a minority of VMs per interval). The paper's moment
/// deviation explodes on every spiked interval and flags phantom processor
/// contention; a robust detector should not.
fn noisy_counters() -> ExperimentConfig {
    let mut cfg = clean();
    cfg.faults = Some(
        FaultScenario::named("accuracy-noisy").rule(
            FaultRule::new("spike-cpi", FaultKind::CorruptSpike { factor: 50.0 })
                .on_metric(perfcloud_sim::MetricClass::Cpi)
                .window(SimTime::from_secs(25), SimTime::from_secs(150))
                .with_probability(0.35),
        ),
    );
    cfg
}

/// Correlated innocent: a low-rate fio bystander starts at the same instant
/// as the heavy antagonist. Its usage series steps up exactly when the
/// victim's deviation does, so scale-invariant Pearson convicts it; a
/// magnitude-aware identifier should not.
fn correlated_innocent() -> ExperimentConfig {
    let mut cfg = clean();
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::FioRate(250.0), 0)
            .starting_at(ONSET)
            .lasting(EPISODE),
    );
    cfg
}

/// Low-signal antagonist: a rate-limited fio heavy enough to degrade the
/// victims (truth says guilty) but whose across-VM deviation stays below
/// the paper's ℋ_io = 10 — the paper detector never fires.
fn low_signal() -> ExperimentConfig {
    let mut cfg = base_config();
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::FioRate(LOW_SIGNAL_RATE), 0)
            .starting_at(ONSET)
            .lasting(EPISODE),
    );
    cfg
}

/// Submission rate (ops/s) of the low-signal antagonist — calibrated so the
/// paper's io deviation sits in the 1.5–8 band (measured peak 8.0): clearly
/// elevated over the clean baseline's 0.57, clearly below ℋ_io = 10.
pub const LOW_SIGNAL_RATE: f64 = 10_000.0;

/// Multi-antagonist overlap: fio (I/O) at 15 s, STREAM (processor) at 25 s,
/// plus a CPU-compute decoy that contends neither monitored resource. Both
/// real antagonists must be caught on their own resource and the decoy left
/// alone while the episodes overlap. The job is doubled to 40 tasks: a
/// mitigated 20-task terasort finishes ≈ 40 s in, before STREAM's CPI
/// signal (which takes ~25 s of EWMA warm-up to cross any threshold) ever
/// becomes visible.
fn multi_antagonist() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(
        ClusterSpec::small_scale(ACCURACY_SEED),
        Mitigation::PerfCloud(PerfCloudConfig::default()),
    );
    cfg.jobs.push((JOB_START, Benchmark::Terasort.job(40)));
    cfg.max_sim_time = SimTime::from_secs(7_200);
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(ONSET).lasting(EPISODE),
    );
    cfg.antagonists.push(
        AntagonistPlacement::pinned(AntagonistKind::Stream, 0)
            .starting_at(SimTime::from_secs(25))
            .lasting(EPISODE),
    );
    cfg.antagonists
        .push(AntagonistPlacement::pinned(AntagonistKind::SysbenchCpu, 0).starting_at(ONSET));
    cfg
}

/// The scenario matrix, clean first.
pub fn accuracy_scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec { name: "clean", adversarial: false, headline: Headline::Ident, build: clean },
        ScenarioSpec {
            name: "noisy_counters",
            adversarial: true,
            headline: Headline::Detect,
            build: noisy_counters,
        },
        ScenarioSpec {
            name: "correlated_innocent",
            adversarial: true,
            headline: Headline::Ident,
            build: correlated_innocent,
        },
        ScenarioSpec {
            name: "low_signal",
            adversarial: true,
            headline: Headline::Detect,
            build: low_signal,
        },
        ScenarioSpec {
            name: "multi_antagonist",
            adversarial: true,
            headline: Headline::Ident,
            build: multi_antagonist,
        },
    ]
}

/// The scores of one (pipeline × scenario) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellScore {
    /// `<detector>/<identifier>`.
    pub pipeline: String,
    /// Scenario family name.
    pub scenario: String,
    /// Identification precision: correctly named VMs / all named VMs, over
    /// every decided step (step-wise).
    pub precision: f64,
    /// Identification recall: injected culprits named at least once inside
    /// their active window (event-wise).
    pub recall: f64,
    /// Harmonic mean of identification precision and recall.
    pub f1: f64,
    /// Detection precision: contended flags raised inside a truth window /
    /// all contended flags (step-wise).
    pub detect_precision: f64,
    /// Detection recall: injected culprits whose (server, resource) was
    /// flagged at least once inside their window (event-wise).
    pub detect_recall: f64,
    /// Harmonic mean of detection precision and recall.
    pub detect_f1: f64,
    /// Median seconds from workload onset to the first matching contended
    /// step, over the culprits that were detected at all; −1 when none were.
    pub ttd_median_s: f64,
    /// Cap-steps applied to VMs never guilty of that resource / all
    /// cap-steps; 0 when nothing was ever capped.
    pub false_throttle_rate: f64,
}

fn f1_of(precision: f64, recall: f64) -> f64 {
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

fn precision_of(tp: u64, flagged: u64) -> f64 {
    if flagged == 0 {
        1.0
    } else {
        tp as f64 / flagged as f64
    }
}

/// Whether `vm` is ever guilty of `resource` on `server` at any time — the
/// false-throttle rule (capping a true antagonist after its episode is
/// persistent control, not a false throttle).
fn ever_culprit(truth: &GroundTruth, server: usize, vm: VmId, resource: Resource) -> bool {
    truth.entries.iter().any(|e| e.vm == vm && e.server == server && e.resource == Some(resource))
}

/// Scores one run's decision-trace steps against its injected truth.
/// Public and pure so the scorer itself is testable on hand-built fixtures
/// with analytically known answers.
pub fn score_steps(truth: &GroundTruth, trace: &DecisionTrace) -> CellScore {
    const RESOURCES: [Resource; 2] = [Resource::Io, Resource::Cpu];

    // Step-wise precision tallies.
    let (mut det_flagged, mut det_tp) = (0u64, 0u64);
    let (mut id_named, mut id_tp) = (0u64, 0u64);
    let (mut cap_steps, mut cap_false) = (0u64, 0u64);
    for s in trace.steps().filter(|s| s.decided()) {
        let t = s.t();
        for r in RESOURCES {
            if s.contended(r) {
                det_flagged += 1;
                if truth.server_contended(s.server, r, t, DETECT_GRACE_S) {
                    det_tp += 1;
                }
            }
            for &vm in s.antagonists(r) {
                id_named += 1;
                if truth.is_culprit(s.server, vm, r, t, IDENT_GRACE_S) {
                    id_tp += 1;
                }
            }
            for &(vm, _) in s.caps(r) {
                cap_steps += 1;
                if !ever_culprit(truth, s.server, vm, r) {
                    cap_false += 1;
                }
            }
        }
    }

    // Event-wise recall and time-to-detect, one event per injected culprit.
    let mut events = 0u64;
    let (mut detected, mut identified) = (0u64, 0u64);
    let mut ttds: Vec<f64> = Vec::new();
    for e in truth.culprits() {
        let r = e.resource.expect("culprits have a resource");
        events += 1;
        let first_detect = trace.steps().find(|s| {
            s.decided()
                && s.server == e.server
                && s.contended(r)
                && e.active_at(s.t(), DETECT_GRACE_S)
        });
        if let Some(s) = first_detect {
            detected += 1;
            ttds.push(s.t() - e.active_from);
        }
        let named = trace.steps().any(|s| {
            s.decided()
                && s.server == e.server
                && s.antagonists(r).contains(&e.vm)
                && e.active_at(s.t(), IDENT_GRACE_S)
        });
        if named {
            identified += 1;
        }
    }
    let event_rate = |hit: u64| if events == 0 { 1.0 } else { hit as f64 / events as f64 };

    let precision = precision_of(id_tp, id_named);
    let recall = event_rate(identified);
    let detect_precision = precision_of(det_tp, det_flagged);
    let detect_recall = event_rate(detected);
    CellScore {
        pipeline: String::new(),
        scenario: String::new(),
        precision,
        recall,
        f1: f1_of(precision, recall),
        detect_precision,
        detect_recall,
        detect_f1: f1_of(detect_precision, detect_recall),
        ttd_median_s: median(&ttds).unwrap_or(-1.0),
        false_throttle_rate: if cap_steps == 0 { 0.0 } else { cap_false as f64 / cap_steps as f64 },
    }
}

/// Scores a finished, traced run of one (scenario × pipeline) cell.
pub fn score_run(e: &Experiment, scenario: &ScenarioSpec, pipeline: PipelineSpec) -> CellScore {
    let truth = GroundTruth::from_experiment(e);
    let mut score = score_steps(&truth, e.decision_trace().expect("trace enabled"));
    score.pipeline = pipeline.name();
    score.scenario = scenario.name.to_string();
    score
}

/// Runs one (scenario × pipeline) cell and scores it.
pub fn run_cell(scenario: &ScenarioSpec, pipeline: PipelineSpec) -> CellScore {
    let mut cfg = (scenario.build)();
    cfg.pipeline = pipeline;
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    e.run();
    score_run(&e, scenario, pipeline)
}

/// Runs the full matrix — every pipeline over every scenario — in parallel
/// (deterministic: each cell is an independent single-seeded run, results
/// in matrix order regardless of thread count).
pub fn run_matrix() -> Vec<CellScore> {
    let scenarios = accuracy_scenarios();
    let pipes = pipelines();
    let cells: Vec<(usize, usize)> =
        (0..pipes.len()).flat_map(|p| (0..scenarios.len()).map(move |s| (p, s))).collect();
    sweep::run(cells.len(), |i| {
        let (p, s) = cells[i];
        run_cell(&scenarios[s], pipes[p])
    })
}

/// The scoreboard as canonical JSON: one flat object per row, `f64` values
/// via Display (shortest round-trip), fixed field order — byte-identical
/// across runs and thread counts.
pub fn scoreboard_json(rows: &[CellScore]) -> String {
    let mut out = String::from("{\"rows\":[\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"pipeline\":\"{}\",\"scenario\":\"{}\",\"precision\":{},\"recall\":{},\"f1\":{},\"detect_precision\":{},\"detect_recall\":{},\"detect_f1\":{},\"ttd_median_s\":{},\"false_throttle_rate\":{}}}",
            r.pipeline,
            r.scenario,
            r.precision,
            r.recall,
            r.f1,
            r.detect_precision,
            r.detect_recall,
            r.detect_f1,
            r.ttd_median_s,
            r.false_throttle_rate,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// The scoreboard as an aligned human-readable table.
pub fn scoreboard_table(rows: &[CellScore]) -> String {
    let mut t = Table::new(vec![
        "pipeline",
        "scenario",
        "prec",
        "rec",
        "f1",
        "d-prec",
        "d-rec",
        "d-f1",
        "ttd(s)",
        "false-throttle",
    ]);
    let f = |x: f64| format!("{x:.3}");
    for r in rows {
        t.row(vec![
            r.pipeline.clone(),
            r.scenario.clone(),
            f(r.precision),
            f(r.recall),
            f(r.f1),
            f(r.detect_precision),
            f(r.detect_recall),
            f(r.detect_f1),
            format!("{:.1}", r.ttd_median_s),
            f(r.false_throttle_rate),
        ]);
    }
    t.render()
}

/// Minimum identification F1 the paper pipeline must keep on the clean
/// scenario — the "don't regress the paper's own operating point" floor.
pub const PAPER_CLEAN_F1_FLOOR: f64 = 0.9;

/// Semantic gates over a scoreboard. Returns every violated clause; empty
/// means the scoreboard passes.
pub fn gate(rows: &[CellScore]) -> Vec<String> {
    let mut violations = Vec::new();
    let cell = |pipeline: &str, scenario: &str| {
        rows.iter().find(|r| r.pipeline == pipeline && r.scenario == scenario)
    };

    // 1. The paper pipeline holds its clean-scenario operating point.
    match cell("paper/paper", "clean") {
        Some(r) if r.f1 >= PAPER_CLEAN_F1_FLOOR => {}
        Some(r) => violations.push(format!(
            "paper/paper clean F1 {} fell below the floor {PAPER_CLEAN_F1_FLOOR}",
            r.f1
        )),
        None => violations.push("paper/paper clean row missing".into()),
    }

    // 2. Alternatives strictly beat paper on ≥ 2 adversarial families (on
    // each family's headline metric).
    let mut beaten = Vec::new();
    for s in accuracy_scenarios().iter().filter(|s| s.adversarial) {
        let Some(paper) = cell("paper/paper", s.name) else { continue };
        let headline = |r: &CellScore| match s.headline {
            Headline::Detect => r.detect_f1,
            Headline::Ident => r.f1,
        };
        let best_alt = rows
            .iter()
            .filter(|r| r.scenario == s.name && r.pipeline != "paper/paper")
            .map(&headline)
            .fold(f64::NEG_INFINITY, f64::max);
        if best_alt > headline(paper) {
            beaten.push(s.name);
        }
    }
    if beaten.len() < 2 {
        violations.push(format!(
            "alternatives beat paper/paper on only {} adversarial families ({:?}); need ≥ 2",
            beaten.len(),
            beaten
        ));
    }

    // 3. The pinned failure/success pair: the paper thresholds demonstrably
    // miss the low-signal antagonist while the learned detector catches it.
    match (cell("paper/paper", "low_signal"), cell("alioth/paper", "low_signal")) {
        (Some(p), Some(a)) => {
            if p.detect_f1 >= 0.5 {
                violations.push(format!(
                    "paper/paper low_signal detect F1 {} ≥ 0.5 — the scenario no longer defeats the paper thresholds",
                    p.detect_f1
                ));
            }
            if a.detect_f1 < 0.8 {
                violations.push(format!(
                    "alioth/paper low_signal detect F1 {} < 0.8 — the learned detector lost the low-signal case",
                    a.detect_f1
                ));
            }
        }
        _ => violations.push("low_signal rows missing".into()),
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcloud_cluster::labels::TruthEntry;
    use perfcloud_core::{ContentionSignal, StepReport};

    /// A step that decided: a signal with the given verdicts.
    fn step(io_contended: bool) -> StepReport {
        let signal = ContentionSignal {
            io_deviation: None,
            cpi_deviation: None,
            io_contended,
            cpu_contended: false,
        };
        StepReport { signal: Some(signal), ..StepReport::default() }
    }

    /// A trace of one step per `(seconds, server, report)`.
    fn trace_of(steps: impl IntoIterator<Item = (u64, usize, StepReport)>) -> DecisionTrace {
        let mut trace = DecisionTrace::new();
        for (t, server, report) in steps {
            trace.record(SimTime::from_secs(t), server, &report);
        }
        trace
    }

    fn truth_one(resource: Resource, from: f64, until: Option<f64>) -> GroundTruth {
        GroundTruth {
            entries: vec![TruthEntry {
                vm: VmId(10),
                server: 0,
                resource: Some(resource),
                active_from: from,
                active_until: until,
            }],
        }
    }

    // --- The hand-built micro-matrix: three fixtures with analytically
    // known precision / recall / TTD, guarding the scorer itself. ---

    /// Fixture 1: the ideal pipeline. One culprit active [15, 165]; flagged
    /// and named on every step inside the window, silent outside it.
    #[test]
    fn micro_ideal_pipeline_scores_perfectly() {
        let truth = truth_one(Resource::Io, 15.0, Some(165.0));
        let steps = trace_of((1..=40).map(|k| {
            let t = 5 * k;
            let active = (15..=165).contains(&t);
            let mut s = step(active);
            if active {
                s.io_antagonists = vec![VmId(10)];
                s.io_caps = vec![(VmId(10), 0.5)];
            }
            (t, 0, s)
        }));
        let score = score_steps(&truth, &steps);
        assert_eq!(score.precision, 1.0);
        assert_eq!(score.recall, 1.0);
        assert_eq!(score.f1, 1.0);
        assert_eq!(score.detect_precision, 1.0);
        assert_eq!(score.detect_recall, 1.0);
        assert_eq!(score.detect_f1, 1.0);
        // First contended step at t = 15, onset 15 → TTD exactly 0.
        assert_eq!(score.ttd_median_s, 0.0);
        assert_eq!(score.false_throttle_rate, 0.0);
    }

    /// Fixture 2: late and trigger-happy. Detection starts 4 intervals
    /// (20 s) after onset; additionally 5 phantom flags long after the
    /// window. Exactly: 30 true flags (t = 35..=180, within end+grace),
    /// 5 false (t = 400..440) → precision 30/35 = 6/7; the single event is
    /// detected → recall 1; TTD = 35 − 15 = 20.
    #[test]
    fn micro_late_noisy_detector_scores_exactly() {
        let truth = truth_one(Resource::Io, 15.0, Some(165.0));
        let steps = trace_of((1..=100).map(|k| {
            let t = 5 * k;
            (t, 0, step((35..=180).contains(&t) || (400..=440).contains(&t)))
        }));
        let score = score_steps(&truth, &steps);
        let true_flags = ((180.0f64 - 35.0) / 5.0) as u64 + 1; // 30
        assert_eq!(true_flags, 30);
        assert!((score.detect_precision - 30.0 / 39.0).abs() < 1e-12, "{}", score.detect_precision);
        assert_eq!(score.detect_recall, 1.0);
        assert_eq!(score.ttd_median_s, 20.0);
        // Nothing was ever named: identification precision defaults to 1,
        // recall 0.
        assert_eq!(score.precision, 1.0);
        assert_eq!(score.recall, 0.0);
        assert_eq!(score.f1, 0.0);
    }

    /// Fixture 3: the false-throttler. Names and caps an innocent VM (11)
    /// half the time alongside the culprit → identification precision 2/3,
    /// false-throttle rate exactly 1/3.
    #[test]
    fn micro_false_throttler_scores_exactly() {
        let truth = truth_one(Resource::Io, 15.0, None);
        let steps = trace_of((3..=32).map(|k| {
            let mut s = step(true);
            s.io_antagonists = vec![VmId(10)];
            s.io_caps = vec![(VmId(10), 0.4)];
            if k % 2 == 0 {
                s.io_antagonists.push(VmId(11));
                s.io_caps.push((VmId(11), 0.4));
            }
            (5 * k, 0, s)
        }));
        let score = score_steps(&truth, &steps);
        // 30 steps name VM 10 (all true), 15 also name VM 11 (all false):
        // precision 30/45 = 2/3.
        assert!((score.precision - 2.0 / 3.0).abs() < 1e-12, "{}", score.precision);
        assert_eq!(score.recall, 1.0);
        // Same 45 cap-steps, 15 on the innocent → exactly 1/3.
        assert!((score.false_throttle_rate - 1.0 / 3.0).abs() < 1e-12);
        // Detection: truth runs forever, every flag is true.
        assert_eq!(score.detect_precision, 1.0);
        assert_eq!(score.ttd_median_s, 0.0);
    }

    #[test]
    fn undetected_event_yields_sentinel_ttd_and_zero_recall() {
        let truth = truth_one(Resource::Io, 15.0, Some(165.0));
        let steps = trace_of((1..=40).map(|k| (5 * k, 0, step(false))));
        let score = score_steps(&truth, &steps);
        assert_eq!(score.detect_recall, 0.0);
        assert_eq!(score.detect_f1, 0.0);
        assert_eq!(score.ttd_median_s, -1.0);
    }

    #[test]
    fn wrong_server_and_wrong_resource_do_not_count() {
        let truth = truth_one(Resource::Io, 15.0, Some(165.0));
        // Flags on the right times but wrong server; names on the wrong
        // resource.
        let steps = trace_of((4..=20).map(|k| {
            let mut s = step(true);
            s.cpu_antagonists = vec![VmId(10)];
            (5 * k, 1, s)
        }));
        let score = score_steps(&truth, &steps);
        assert_eq!(score.detect_precision, 0.0);
        assert_eq!(score.detect_recall, 0.0);
        assert_eq!(score.precision, 0.0);
        assert_eq!(score.recall, 0.0);
    }

    #[test]
    fn matrix_covers_all_cells() {
        assert_eq!(pipelines().len(), 4);
        assert_eq!(accuracy_scenarios().len(), 5);
        let names: Vec<&str> = accuracy_scenarios().iter().map(|s| s.name).collect();
        assert!(names.contains(&"clean") && names.contains(&"low_signal"));
        assert_eq!(accuracy_scenarios().iter().filter(|s| s.adversarial).count(), 4);
    }

    #[test]
    fn json_is_flat_and_ordered() {
        let rows = vec![CellScore {
            pipeline: "paper/paper".into(),
            scenario: "clean".into(),
            precision: 1.0,
            recall: 0.5,
            f1: 2.0 / 3.0,
            detect_precision: 1.0,
            detect_recall: 1.0,
            detect_f1: 1.0,
            ttd_median_s: 20.0,
            false_throttle_rate: 0.0,
        }];
        let json = scoreboard_json(&rows);
        assert!(json.contains("\"pipeline\":\"paper/paper\""));
        assert!(json.contains("\"f1\":0.6666666666666666"));
        assert!(json.ends_with("]}\n"));
    }
}
