//! The experiment driver.
//!
//! One [`Experiment`] is a single run: a cluster topology, a mitigation
//! strategy, a set of antagonist placements, and a schedule of job
//! submissions. The driver advances the world in fixed ticks — servers
//! arbitrate resources, the framework scheduler launches/reaps task
//! attempts — and fires every server's node manager at the PerfCloud
//! sampling interval. With a non-PerfCloud mitigation the node managers run
//! in *monitoring-only* mode (detection thresholds at infinity), so
//! deviation time series are recorded identically across strategies — how
//! the paper's Fig. 9 compares the default system against PerfCloud.

use crate::antagonists::{AntagonistKind, AntagonistPlacement};
use crate::placement::PlacementRuntime;
use crate::topology::{ClusterSpec, Testbed};
use crate::trace::DecisionTrace;
use perfcloud_baselines::{Dolly, LatePolicy, StaticCapping};
use perfcloud_core::{
    CloudManager, IngestStats, NodeFaults, NodeManager, PerfCloudConfig, PipelineSpec, StepReport,
};
use perfcloud_ctrl::{ControlPlane, ControlPlaneSpec};
use perfcloud_frameworks::scheduler::{FrameworkScheduler, NoSpeculation, SpeculationPolicy};
use perfcloud_frameworks::{JobOutcome, JobSpec};
use perfcloud_host::{FinishedProcess, PhysicalServer, ServerId, VmId};
use perfcloud_obs::{ExportSource, MetricsRegistry};
use perfcloud_place::PlacementConfig;
use perfcloud_sim::{FaultScenario, SimDuration, SimTime};
use perfcloud_telemetry::{
    RecordingFormat, ReplaySource, Sample, TelemetryRecording, TelemetryWriter,
};
use std::sync::Arc;

/// The mitigation strategy of one run.
pub enum Mitigation {
    /// No mitigation at all.
    Default,
    /// LATE speculative execution.
    Late(LatePolicy),
    /// Dolly job cloning.
    Dolly(Dolly),
    /// Fixed caps applied at experiment start.
    StaticCap(StaticCapping),
    /// PerfCloud dynamic resource control.
    PerfCloud(PerfCloudConfig),
    /// The paper's future-work hybrid (§IV-D.2): PerfCloud resource control
    /// plus LATE speculative execution, so application-level speculation
    /// covers what host-level throttling cannot (e.g. slow servers in a
    /// heterogeneous cluster).
    PerfCloudWithLate(PerfCloudConfig, LatePolicy),
    /// Migration-only mitigation (§VI's "complementary solutions such as
    /// VM migration"): the PerfCloud pipeline detects and identifies as
    /// usual but never throttles; instead the antagonist-aware migration
    /// rule (`place::best_move`) live-migrates identified antagonists away.
    MigrateOnly(PlacementConfig),
    /// Throttle *and* migrate: full PerfCloud resource control plus the
    /// placement runtime — caps contain the antagonist while its penalty
    /// accrues, then migration removes the colocation entirely.
    Hybrid(PerfCloudConfig, PlacementConfig),
}

impl Mitigation {
    /// Display name for result tables.
    pub fn name(&self) -> String {
        match self {
            Mitigation::Default => "default".into(),
            Mitigation::Late(_) => "late".into(),
            Mitigation::Dolly(d) => format!("dolly-{}", d.clones),
            Mitigation::StaticCap(_) => "static-cap".into(),
            Mitigation::PerfCloud(_) => "perfcloud".into(),
            Mitigation::PerfCloudWithLate(_, _) => "perfcloud+late".into(),
            Mitigation::MigrateOnly(_) => "migrate-only".into(),
            Mitigation::Hybrid(_, _) => "hybrid".into(),
        }
    }
}

/// Telemetry source and recording configuration of one run.
///
/// The default is the pure simulated path: every node manager reads its
/// server's hypervisor counters directly and nothing is recorded — the
/// pre-telemetry behavior, byte for byte.
#[derive(Clone, Default)]
pub struct TelemetrySpec {
    /// When set, tee every raw (pre-fault) collected sample into a
    /// recording in this encoding, retrievable via
    /// [`Experiment::take_recording`].
    pub tee: Option<RecordingFormat>,
    /// When set, node managers ingest from this recording (each server
    /// replays its own sample stream) instead of reading the simulated
    /// hypervisor.
    pub replay: Option<Arc<TelemetryRecording>>,
}

/// Configuration of one experiment run.
pub struct ExperimentConfig {
    /// Cluster topology.
    pub cluster: ClusterSpec,
    /// Mitigation strategy.
    pub mitigation: Mitigation,
    /// Antagonists to place.
    pub antagonists: Vec<AntagonistPlacement>,
    /// Jobs with their submission times.
    pub jobs: Vec<(SimTime, JobSpec)>,
    /// Hard wall on simulated time.
    pub max_sim_time: SimTime,
    /// Fault-injection scenario applied to every node manager; the per-run
    /// chaos seed is derived from the testbed's master seed, so a run is
    /// replayable from `(cluster seed, scenario)` alone.
    pub faults: Option<FaultScenario>,
    /// Control-plane deployment: replica count, link model, election timing.
    /// The default is a single manager on a zero-latency loopback, which
    /// reproduces the direct-fetch behavior byte-for-byte.
    pub control: ControlPlaneSpec,
    /// Detection/identification pipeline run by the node managers when the
    /// mitigation is PerfCloud; non-PerfCloud mitigations always run the
    /// paper's monitoring-only pipeline. The default (paper/paper)
    /// reproduces the pre-seam behavior byte-for-byte.
    pub pipeline: PipelineSpec,
    /// Counter-source and recording configuration. The default (simulated
    /// source, no tee) reproduces the pre-telemetry behavior byte-for-byte.
    pub telemetry: TelemetrySpec,
}

impl ExperimentConfig {
    /// A minimal config over a cluster spec, extended with builder calls.
    pub fn new(cluster: ClusterSpec, mitigation: Mitigation) -> Self {
        ExperimentConfig {
            cluster,
            mitigation,
            antagonists: Vec::new(),
            jobs: Vec::new(),
            max_sim_time: SimTime::from_secs(3_600),
            faults: None,
            control: ControlPlaneSpec::default(),
            pipeline: PipelineSpec::default(),
            telemetry: TelemetrySpec::default(),
        }
    }
}

/// Final counters of one antagonist VM.
#[derive(Debug, Clone, PartialEq)]
pub struct AntagonistStats {
    /// The antagonist's VM.
    pub vm: VmId,
    /// Its workload.
    pub kind: AntagonistKind,
    /// Total I/O operations completed.
    pub io_ops: f64,
    /// Total I/O bytes moved.
    pub io_bytes: f64,
    /// Total instructions retired.
    pub instructions: f64,
    /// Total CPU time consumed, core-seconds.
    pub cpu_time: f64,
}

/// Results of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Mitigation name.
    pub mitigation: String,
    /// Outcomes of all logical jobs, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Simulated time the run took.
    pub duration: SimDuration,
    /// Final antagonist counters.
    pub antagonists: Vec<AntagonistStats>,
    /// Monitor ingest tallies summed across all node managers — how many
    /// samples were baselined, recorded, or rejected (stale / duplicate /
    /// counter-regression) over the run.
    pub ingest: IngestStats,
}

impl ExperimentResult {
    /// JCT of the single job of a one-job experiment.
    pub fn sole_jct(&self) -> f64 {
        assert_eq!(self.outcomes.len(), 1, "experiment has {} outcomes", self.outcomes.len());
        self.outcomes[0].jct
    }
}

/// A fully built, runnable experiment.
pub struct Experiment {
    /// The physical servers.
    pub servers: Vec<PhysicalServer>,
    /// The cloud registry.
    pub cloud: CloudManager,
    /// The framework scheduler.
    pub scheduler: FrameworkScheduler,
    /// One node manager per server (monitoring-only for non-PerfCloud).
    pub node_managers: Vec<NodeManager>,
    /// The message-passing control plane carrying placement sync,
    /// heartbeats, and elections between managers and servers.
    pub plane: ControlPlane,
    policy: Box<dyn SpeculationPolicy>,
    dolly: Option<Dolly>,
    mitigation_name: String,
    antagonist_vms: Vec<(VmId, AntagonistPlacement)>,
    antagonist_seeds: Vec<u64>,
    pending_antagonists: Vec<usize>,
    pending_jobs: Vec<(SimTime, JobSpec)>,
    submitted_jobs: usize,
    tick: SimDuration,
    sample_interval: SimDuration,
    next_sample: SimTime,
    now: SimTime,
    max_sim_time: SimTime,
    /// Ticks executed so far — the prefix length a fork inherits for free.
    ticks_stepped: u64,
    /// Chaos seed derived from the testbed's master seed at build time;
    /// kept so [`Self::set_mitigation`] can rebuild node managers with
    /// byte-identical fault streams.
    chaos_seed: u64,
    /// The fault scenario attached to node managers at build, if any.
    fault_scenario: Option<FaultScenario>,
    /// The pipeline spec from the build config (only in effect under a
    /// PerfCloud mitigation).
    pipeline: PipelineSpec,
    /// Flight-recorder capacity if observability is on; re-attached to
    /// rebuilt node managers by [`Self::set_mitigation`].
    flight_capacity: Option<usize>,
    trace: Option<DecisionTrace>,
    /// Reused step-report buffer: one per experiment, refilled by every
    /// node-manager step instead of allocating a report per (server,
    /// interval).
    report_buf: StepReport,
    /// `(server, finished process)` pairs from the tick phase.
    finished_buf: Vec<(usize, FinishedProcess)>,
    /// The placement runtime, when the mitigation migrates: verdict
    /// ingestion and proposals at sampling instants, phase transitions
    /// between ticks.
    placement: Option<PlacementRuntime>,
    /// The telemetry spec from the build config; re-applied to rebuilt
    /// node managers by [`Self::set_mitigation`].
    telemetry: TelemetrySpec,
    /// Recording writer when teeing is configured; fed in server order at
    /// every sampling instant.
    tee_writer: Option<TelemetryWriter>,
    /// Reused drain scratch for the tee.
    tee_buf: Vec<Sample>,
    /// Sampling instants at which the tee drained node managers.
    tee_flushes: u64,
}

impl Experiment {
    /// Builds an experiment from its configuration.
    pub fn build(config: ExperimentConfig) -> Self {
        let mut tb = Testbed::build(&config.cluster);
        let mitigation_name = config.mitigation.name();

        // Place antagonist VMs up front; their workloads start later.
        let mut antagonist_vms = Vec::new();
        let mut antagonist_seeds = Vec::new();
        for (i, p) in config.antagonists.iter().enumerate() {
            let vm = tb.add_low_priority_vm(p.server_idx);
            antagonist_vms.push((vm, *p));
            let idx = p.seed_group.unwrap_or(i as u64 + 1_000);
            antagonist_seeds.push(tb.rng.child_indexed("antagonist", idx).master_seed());
        }
        let pending_antagonists: Vec<usize> = (0..antagonist_vms.len()).collect();

        let MitigationParts { policy, dolly, pc_config, pipeline, placement, actuation } =
            resolve_mitigation(config.mitigation, config.pipeline, &mut tb.servers);

        let mut node_managers: Vec<NodeManager> = (0..tb.servers.len())
            .map(|_| {
                let mut nm = NodeManager::with_pipeline(pc_config.clone(), pipeline);
                nm.set_actuation(actuation);
                nm
            })
            .collect();
        let chaos_seed = tb.rng.child("chaos").master_seed();
        let scenario = config.faults.clone().unwrap_or_default();
        if let Some(scenario) = &config.faults {
            for (i, nm) in node_managers.iter_mut().enumerate() {
                nm.attach_faults(NodeFaults::new(chaos_seed, scenario.clone(), i as u32));
            }
        }
        apply_telemetry(&config.telemetry, &mut node_managers);
        let tee_writer = config.telemetry.tee.map(|fmt| {
            let source = node_managers.first().map_or("sim", |nm| nm.source_name());
            TelemetryWriter::new(fmt, source)
        });
        let server_ids: Vec<ServerId> = (0..tb.servers.len()).map(|i| ServerId(i as u32)).collect();
        let plane = ControlPlane::new(
            config.control,
            chaos_seed,
            scenario,
            server_ids,
            pc_config.sample_interval,
        );

        let mut jobs = config.jobs;
        jobs.sort_by_key(|(t, _)| *t);
        jobs.reverse(); // pop from the back = earliest first

        let scheduler = FrameworkScheduler::new(tb.workers.clone());
        let sample_interval = pc_config.sample_interval;
        Experiment {
            servers: tb.servers,
            cloud: tb.cloud,
            scheduler,
            node_managers,
            plane,
            policy,
            dolly,
            mitigation_name,
            antagonist_vms,
            antagonist_seeds,
            pending_antagonists,
            pending_jobs: jobs,
            submitted_jobs: 0,
            tick: tb.tick,
            sample_interval,
            next_sample: SimTime::ZERO + sample_interval,
            now: SimTime::ZERO,
            max_sim_time: config.max_sim_time,
            ticks_stepped: 0,
            chaos_seed,
            fault_scenario: config.faults,
            pipeline: config.pipeline,
            flight_capacity: None,
            trace: None,
            report_buf: StepReport::default(),
            finished_buf: Vec::new(),
            placement: placement.as_ref().map(PlacementRuntime::new),
            telemetry: config.telemetry,
            tee_writer,
            tee_buf: Vec::new(),
            tee_flushes: 0,
        }
    }

    /// Always 1: an experiment runs as one sequential loop. A
    /// compatibility stub kept only because the `perfbench` harness
    /// asserts it; it goes with the next change allowed to touch
    /// `perfbench/`.
    pub fn shards(&self) -> usize {
        1
    }

    /// Starts recording a canonical decision trace of every node-manager
    /// step from this point on.
    pub fn enable_decision_trace(&mut self) {
        self.trace = Some(DecisionTrace::new());
    }

    /// Attaches flight recorders everywhere: one per node manager, one on
    /// the control plane, one on its network — each retaining the last
    /// `capacity` events. Recording is pure observation; enabling it
    /// changes no decision, trace, or result byte.
    pub fn enable_observability(&mut self, capacity: usize) {
        self.flight_capacity = Some(capacity);
        for nm in &mut self.node_managers {
            nm.attach_flight(capacity);
        }
        self.plane.attach_flight(capacity);
    }

    /// Snapshots every attached flight recorder into export sources with
    /// stable ranks: server `i` → rank `i`, the control plane → rank `n`,
    /// its network → rank `n + 1`. Empty when observability is off.
    pub fn flight_sources(&self) -> Vec<ExportSource> {
        let mut out = Vec::new();
        for (i, nm) in self.node_managers.iter().enumerate() {
            if let Some(fl) = nm.flight() {
                out.push(ExportSource::from_recorder(i as u32, &format!("server{i}"), fl));
            }
        }
        let n = self.node_managers.len() as u32;
        if let Some(fl) = self.plane.flight() {
            out.push(ExportSource::from_recorder(n, "ctrl", fl));
        }
        if let Some(fl) = self.plane.net_flight() {
            out.push(ExportSource::from_recorder(n + 1, "net", fl));
        }
        out
    }

    /// Chrome-trace-event JSON of every attached recorder (Perfetto-loadable).
    pub fn chrome_trace(&self) -> String {
        perfcloud_obs::chrome_trace(&self.flight_sources())
    }

    /// JSONL trace of every attached recorder.
    pub fn jsonl_trace(&self) -> String {
        perfcloud_obs::jsonl(&self.flight_sources())
    }

    /// Decoded text of the newest `n` flight events across all recorders,
    /// merged in deterministic order — the golden-failure dump.
    pub fn flight_dump(&self, n: usize) -> String {
        perfcloud_obs::merged_dump(&self.flight_sources(), n)
    }

    /// Monitor ingest tallies summed across all node managers.
    pub fn ingest_stats(&self) -> IngestStats {
        let mut total = IngestStats::default();
        for nm in &self.node_managers {
            total.merge(&nm.monitor().ingest_stats());
        }
        total
    }

    /// The run's observability counters assembled into a
    /// [`MetricsRegistry`]: monitor ingest outcomes, control-plane network
    /// delivery counters, and telemetry tee tallies. Every
    /// export path — the flat snapshot, the Prometheus text exposition —
    /// reads this one registry, so no counter can appear in one and not
    /// the other.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::with_capacity(12);
        let ingest = self.ingest_stats();
        let pairs = [
            ("ingest_baselines", ingest.baselines),
            ("ingest_recorded", ingest.recorded),
            ("ingest_stale", ingest.stale),
            ("ingest_duplicates", ingest.duplicates),
            ("ingest_regressions", ingest.regressions),
            ("ingest_rejected", ingest.rejected()),
        ];
        for (name, value) in pairs {
            let id = reg.counter(name);
            reg.inc(id, value);
        }
        let net = self.plane.net_stats();
        for (name, value) in [
            ("net_sent", net.sent),
            ("net_delivered", net.delivered),
            ("net_dropped", net.dropped),
            ("net_duplicated", net.duplicated),
        ] {
            let id = reg.counter(name);
            reg.inc(id, value);
        }
        let teed = self.tee_writer.as_ref().map_or(0, |w| w.len() as u64);
        for (name, value) in
            [("telemetry_teed_samples", teed), ("telemetry_flush_batches", self.tee_flushes)]
        {
            let id = reg.counter(name);
            reg.inc(id, value);
        }
        reg
    }

    /// Current observability counters as the flat `(name, value)` pairs the
    /// `BENCH_*.json` records use. A snapshot of [`Self::metrics_registry`].
    pub fn metrics_snapshot(&self) -> Vec<(String, f64)> {
        self.metrics_registry().snapshot()
    }

    /// Prometheus text exposition of [`Self::metrics_registry`].
    pub fn prometheus_metrics(&self) -> String {
        perfcloud_obs::prometheus_text(&self.metrics_registry())
    }

    /// The decision trace, if [`Self::enable_decision_trace`] was called.
    pub fn decision_trace(&self) -> Option<&DecisionTrace> {
        self.trace.as_ref()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The antagonist VMs with their placements, in placement order.
    pub fn antagonist_vms(&self) -> &[(VmId, AntagonistPlacement)] {
        &self.antagonist_vms
    }

    /// The placement runtime, when the mitigation migrates.
    pub fn placement(&self) -> Option<&PlacementRuntime> {
        self.placement.as_ref()
    }

    /// Ticks executed so far. A fork inherits the parent's prefix, so a
    /// sweep that forks `n` points off one parent at this tick count saves
    /// `(n - 1) × ticks_stepped` ticks over `n` fresh runs.
    pub fn ticks_stepped(&self) -> u64 {
        self.ticks_stepped
    }

    /// Snapshots the entire experiment into an independent copy.
    ///
    /// The fork duplicates every byte of mutable state — server and VM
    /// contents (running processes, AR(1) luck states, RNG stream
    /// positions), the cloud registry, the framework scheduler, every node
    /// manager (monitor windows, CUBIC controllers, pipeline state), the
    /// control plane with its in-flight network messages, the decision
    /// trace, and any attached flight recorders — so continuing the fork
    /// is byte-identical to continuing the parent, and neither observes
    /// the other.
    ///
    /// Combined with the divergence APIs ([`Self::start_antagonist`],
    /// [`Self::push_job`], [`Self::apply_static_caps`],
    /// [`Self::set_mitigation`]), a run forked at time `t` and diverged
    /// produces the same result, decision trace, and flight export as a
    /// fresh run built with the diverged configuration.
    pub fn fork(&self) -> Self {
        Experiment {
            servers: self.servers.clone(),
            cloud: self.cloud.clone(),
            scheduler: self.scheduler.clone(),
            node_managers: self.node_managers.clone(),
            plane: self.plane.clone(),
            policy: self.policy.clone(),
            dolly: self.dolly,
            mitigation_name: self.mitigation_name.clone(),
            antagonist_vms: self.antagonist_vms.clone(),
            antagonist_seeds: self.antagonist_seeds.clone(),
            pending_antagonists: self.pending_antagonists.clone(),
            pending_jobs: self.pending_jobs.clone(),
            submitted_jobs: self.submitted_jobs,
            tick: self.tick,
            sample_interval: self.sample_interval,
            next_sample: self.next_sample,
            now: self.now,
            max_sim_time: self.max_sim_time,
            ticks_stepped: self.ticks_stepped,
            chaos_seed: self.chaos_seed,
            fault_scenario: self.fault_scenario.clone(),
            pipeline: self.pipeline,
            flight_capacity: self.flight_capacity,
            trace: self.trace.clone(),
            report_buf: self.report_buf.clone(),
            finished_buf: Vec::new(),
            placement: self.placement.clone(),
            telemetry: self.telemetry.clone(),
            tee_writer: self.tee_writer.clone(),
            tee_buf: Vec::new(),
            tee_flushes: self.tee_flushes,
        }
    }

    /// Diverges a fork: schedules the `index`-th placed antagonist to
    /// start at `at`. The parent typically places it with a start beyond
    /// the horizon (an idle, booted VM is inert: it draws from its own
    /// luck RNG streams only when it runs processes), so the fork decides
    /// the onset. Exactness requires `at` to lie strictly ahead of the
    /// last executed tick (or no tick to have run yet) — otherwise a
    /// fresh run of the diverged config would already have spawned it.
    pub fn start_antagonist(&mut self, index: usize, at: SimTime) {
        assert!(
            at > self.now || self.ticks_stepped == 0,
            "antagonist start {at:?} is not ahead of the fork point {:?}",
            self.now
        );
        assert!(self.pending_antagonists.contains(&index), "antagonist {index} already started");
        self.antagonist_vms[index].1.start = at;
    }

    /// Diverges a fork: submits an additional job at time `at` (strictly
    /// ahead of the last executed tick, or before the first). Equivalent
    /// to having appended `(at, spec)` to the build config's job list.
    pub fn push_job(&mut self, at: SimTime, spec: JobSpec) {
        assert!(
            at > self.now || self.ticks_stepped == 0,
            "job submission {at:?} is not ahead of the fork point {:?}",
            self.now
        );
        // `pending_jobs` is sorted descending (pop-from-back = earliest).
        // Insert before existing equal-time entries so they pop first —
        // the order a stable ascending sort gives an appended config entry.
        let idx = self.pending_jobs.partition_point(|(t, _)| *t > at);
        self.pending_jobs.insert(idx, (at, spec));
    }

    /// Diverges a fork: applies fixed caps to every server, as
    /// [`Mitigation::StaticCap`] does at build time. Forking an uncapped
    /// parent before its first tick and applying caps is byte-identical
    /// to building with the static-cap mitigation.
    pub fn apply_static_caps(&mut self, caps: &StaticCapping) {
        for server in &mut self.servers {
            caps.apply(server);
        }
        self.mitigation_name = "static-cap".into();
    }

    /// Diverges a fork: swaps the mitigation strategy, rebuilding the
    /// speculation policy, Dolly cloning, and every node manager.
    ///
    /// Exact only **before the first sampling instant**: until then no
    /// placement view has been published and no sample ingested, so the
    /// node managers (and the detector/identifier/controller state inside
    /// them) are still in their just-built state — rebuilding them is a
    /// no-op observationally. All mitigation pipelines share the sampling
    /// cadence, so the control plane (built once from the chaos seed) is
    /// already exact. This is what lets one neutral parent cover a whole
    /// mitigation comparison: run the shared prefix once, fork per
    /// system, swap, continue.
    pub fn set_mitigation(&mut self, mitigation: Mitigation) {
        assert!(
            self.now < SimTime::ZERO + self.sample_interval,
            "set_mitigation at {:?} is past the first sampling instant",
            self.now
        );
        self.mitigation_name = mitigation.name();
        let MitigationParts { policy, dolly, pc_config, pipeline, placement, actuation } =
            resolve_mitigation(mitigation, self.pipeline, &mut self.servers);
        assert_eq!(
            pc_config.sample_interval, self.sample_interval,
            "set_mitigation cannot change the sampling cadence"
        );
        self.policy = policy;
        self.dolly = dolly;
        self.placement = placement.as_ref().map(PlacementRuntime::new);
        self.node_managers = (0..self.servers.len())
            .map(|_| {
                let mut nm = NodeManager::with_pipeline(pc_config.clone(), pipeline);
                nm.set_actuation(actuation);
                nm
            })
            .collect();
        if let Some(scenario) = &self.fault_scenario {
            for (i, nm) in self.node_managers.iter_mut().enumerate() {
                nm.attach_faults(NodeFaults::new(self.chaos_seed, scenario.clone(), i as u32));
            }
        }
        if let Some(capacity) = self.flight_capacity {
            for nm in &mut self.node_managers {
                nm.attach_flight(capacity);
            }
        }
        apply_telemetry(&self.telemetry, &mut self.node_managers);
    }

    /// Advances one tick.
    pub fn step_tick(&mut self) {
        self.now += self.tick;
        self.ticks_stepped += 1;
        let now = self.now;

        // Start due antagonists. The hosting server comes from the live
        // registry, not the placement-time index — a late-starting VM may
        // have been migrated before its workload begins.
        let antagonist_vms = &self.antagonist_vms;
        let seeds = &self.antagonist_seeds;
        let servers = &mut self.servers;
        let cloud = &self.cloud;
        self.pending_antagonists.retain(|&i| {
            let (vm, p) = antagonist_vms[i];
            if p.start <= now {
                let host = cloud.record(vm).expect("antagonist registered").server.0 as usize;
                servers[host].spawn(vm, p.kind.spawn(p.duration, seeds[i]));
                false
            } else {
                true
            }
        });

        // Live-migration phase transitions happen between ticks: a freeze
        // or a completed move applies to the tick crossing its deadline.
        if let Some(rt) = self.placement.as_mut() {
            rt.advance(now, &mut self.servers, &mut self.cloud, &mut self.plane);
        }

        // Submit due jobs.
        while let Some((t, _)) = self.pending_jobs.last() {
            if *t > now {
                break;
            }
            let (t, spec) = self.pending_jobs.pop().expect("peeked");
            match &self.dolly {
                Some(d) => {
                    d.submit(&mut self.scheduler, spec, t.max(now));
                }
                None => {
                    self.scheduler.submit(spec, t.max(now));
                }
            }
            self.submitted_jobs += 1;
        }

        // Advance the world: tick every server; the finished list, in
        // server-index order, feeds the framework scheduler.
        self.tick_servers();
        let finished = std::mem::take(&mut self.finished_buf);
        self.scheduler.on_tick(now, &mut self.servers, &finished, self.policy.as_mut());
        self.finished_buf = finished;

        // Control plane first: at the sampling cadence the live coordinator
        // publishes fresh placement views, and every tick delivers whatever
        // messages are due (on the default zero-latency loopback a publish
        // lands within the same instant, reproducing the old direct fetch).
        let sampling = now >= self.next_sample;
        if sampling {
            self.plane.begin_interval(now, &self.cloud);
        }
        self.plane.tick(now, &mut self.cloud, &mut self.node_managers);

        // Node managers at the sampling cadence.
        if sampling {
            self.sample_node_managers(now);
            self.next_sample += self.sample_interval;
            // Placement decisions ride the same cadence, after every node
            // manager has sampled, so identify verdicts are fresh.
            if let Some(rt) = self.placement.as_mut() {
                rt.on_sample(
                    now,
                    &self.node_managers,
                    &mut self.servers,
                    &self.cloud,
                    &mut self.plane,
                );
            }
        }

        if let Some(trace) = self.trace.as_mut() {
            for (at, event) in self.plane.drain_events() {
                trace.record_ctrl(at, &event);
            }
        } else {
            self.plane.drain_events();
        }
    }

    /// Ticks every server, collecting `(server, finished)` pairs into
    /// `finished_buf` in server-index order.
    fn tick_servers(&mut self) {
        self.finished_buf.clear();
        let tick = self.tick;
        for (i, server) in self.servers.iter_mut().enumerate() {
            let report = server.tick(tick);
            for f in report.finished {
                self.finished_buf.push((i, f));
            }
        }
    }

    /// Runs every node manager's sampling step in server-index order,
    /// applying each step's control-plane effects as it returns.
    fn sample_node_managers(&mut self, now: SimTime) {
        for (i, nm) in self.node_managers.iter_mut().enumerate() {
            let stalled = self.plane.stalled(i, now);
            nm.step_synced(now, &mut self.servers[i], stalled, &mut self.report_buf);
            if self.report_buf.restarted {
                // The stalled process died with its freeze.
                self.plane.clear_stall(i);
            }
            while let Some(apps) = nm.take_colocation_notice() {
                self.plane.send_colocation(now, i, apps);
            }
            if let Some(trace) = self.trace.as_mut() {
                trace.record(now, i, &self.report_buf);
            }
        }
        self.drain_tees();
    }

    /// Drains every node manager's teed samples into the recording writer
    /// in server-index order.
    fn drain_tees(&mut self) {
        let Some(writer) = self.tee_writer.as_mut() else { return };
        for (i, nm) in self.node_managers.iter_mut().enumerate() {
            self.tee_buf.clear();
            nm.drain_tee_into(&mut self.tee_buf);
            for s in &self.tee_buf {
                writer.append(i as u32, s);
            }
        }
        self.tee_flushes += 1;
    }

    /// Serializes and takes the teed recording, disarming the writer.
    /// `None` when [`TelemetrySpec::tee`] was not configured.
    pub fn take_recording(&mut self) -> Option<Vec<u8>> {
        self.tee_writer.take().map(TelemetryWriter::finish)
    }

    /// The in-memory recording teed so far, ready to feed back through
    /// [`TelemetrySpec::replay`]. `None` when teeing is off.
    pub fn recording(&self) -> Option<TelemetryRecording> {
        self.tee_writer.as_ref().map(TelemetryWriter::recording)
    }

    /// True when all jobs have been submitted and completed.
    pub fn drained(&self) -> bool {
        self.pending_jobs.is_empty() && self.submitted_jobs > 0 && self.scheduler.is_idle()
    }

    /// Runs to completion: until the jobs drain, or — for job-less runs —
    /// until `max_sim_time`. Panics if jobs fail to drain before the wall.
    pub fn run(&mut self) -> ExperimentResult {
        let has_jobs = !self.pending_jobs.is_empty() || self.submitted_jobs > 0;
        while self.now < self.max_sim_time {
            if has_jobs && self.drained() {
                break;
            }
            self.step_tick();
        }
        assert!(
            !has_jobs || self.drained(),
            "jobs did not drain within {} simulated seconds",
            self.max_sim_time.as_secs_f64()
        );
        self.result()
    }

    /// Runs for a fixed additional span of simulated time.
    pub fn run_for(&mut self, span: SimDuration) {
        let end = self.now + span;
        while self.now < end {
            self.step_tick();
        }
    }

    /// Collects the result snapshot.
    pub fn result(&self) -> ExperimentResult {
        let antagonists = self
            .antagonist_vms
            .iter()
            .map(|&(vm, p)| {
                // Resolve the hosting server through the registry: the VM
                // may have been live-migrated off its placement-time host.
                let host = self.cloud.record(vm).expect("antagonist registered").server.0 as usize;
                let c = self.servers[host].counters(vm).expect("antagonist VM exists").counters;
                AntagonistStats {
                    vm,
                    kind: p.kind,
                    io_ops: c.io_serviced,
                    io_bytes: c.io_service_bytes,
                    instructions: c.instructions,
                    cpu_time: c.cpu_time,
                }
            })
            .collect();
        ExperimentResult {
            mitigation: self.mitigation_name.clone(),
            outcomes: self.scheduler.outcomes().to_vec(),
            duration: self.now.saturating_since(SimTime::ZERO),
            antagonists,
            ingest: self.ingest_stats(),
        }
    }
}

/// Applies a telemetry spec to freshly built node managers: swaps in each
/// server's replay stream and arms the tee. Idempotent, so rebuilds
/// ([`Experiment::set_mitigation`]) can re-apply it.
fn apply_telemetry(spec: &TelemetrySpec, node_managers: &mut [NodeManager]) {
    for (i, nm) in node_managers.iter_mut().enumerate() {
        if let Some(rec) = &spec.replay {
            nm.set_source(Box::new(ReplaySource::for_server(rec, i as u32)));
        }
        if spec.tee.is_some() {
            nm.enable_tee();
        }
    }
}

/// A PerfCloud configuration that samples and records but never detects
/// contention (thresholds at infinity) — used to trace deviations under
/// non-PerfCloud mitigations.
fn monitoring_only() -> PerfCloudConfig {
    PerfCloudConfig { h_io: f64::INFINITY, h_cpi: f64::INFINITY, ..Default::default() }
}

/// The concrete machinery a [`Mitigation`] strategy resolves to.
struct MitigationParts {
    policy: Box<dyn SpeculationPolicy>,
    dolly: Option<Dolly>,
    pc_config: PerfCloudConfig,
    pipeline: PipelineSpec,
    /// Placement runtime configuration, for migration-capable strategies.
    placement: Option<PlacementConfig>,
    /// Whether node managers may enroll VMs for throttling. `MigrateOnly`
    /// keeps the full detect/identify pipeline but turns actuation off, so
    /// migration is the sole mitigation.
    actuation: bool,
}

/// Resolves a mitigation into its parts, applying immediate side effects
/// (static caps) to `servers`. The `pipeline` spec only applies when
/// PerfCloud's pipeline is actually in control; passive mitigations keep
/// the paper's monitoring-only pipeline so an alternative detector can
/// never act through them.
fn resolve_mitigation(
    mitigation: Mitigation,
    pipeline: PipelineSpec,
    servers: &mut [PhysicalServer],
) -> MitigationParts {
    let passive = |policy: Box<dyn SpeculationPolicy>, dolly| MitigationParts {
        policy,
        dolly,
        pc_config: monitoring_only(),
        pipeline: PipelineSpec::paper(),
        placement: None,
        actuation: true,
    };
    let active = |policy, cfg, placement, actuation| MitigationParts {
        policy,
        dolly: None,
        pc_config: cfg,
        pipeline,
        placement,
        actuation,
    };
    match mitigation {
        Mitigation::Default => passive(Box::new(NoSpeculation), None),
        Mitigation::Late(l) => passive(Box::new(l), None),
        Mitigation::Dolly(d) => passive(Box::new(NoSpeculation), Some(d)),
        Mitigation::StaticCap(s) => {
            for server in servers {
                s.apply(server);
            }
            passive(Box::new(NoSpeculation), None)
        }
        Mitigation::PerfCloud(cfg) => active(Box::new(NoSpeculation), cfg, None, true),
        Mitigation::PerfCloudWithLate(cfg, late) => active(Box::new(late), cfg, None, true),
        Mitigation::MigrateOnly(p) => {
            active(Box::new(NoSpeculation), PerfCloudConfig::default(), Some(p), false)
        }
        Mitigation::Hybrid(cfg, p) => active(Box::new(NoSpeculation), cfg, Some(p), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcloud_frameworks::Benchmark;

    fn one_job_config(
        bench: Benchmark,
        tasks: usize,
        mitigation: Mitigation,
        antagonist_at: Option<u64>,
    ) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(7), mitigation);
        cfg.jobs.push((SimTime::from_secs(10), bench.job(tasks)));
        if let Some(at) = antagonist_at {
            cfg.antagonists.push(
                AntagonistPlacement::pinned(AntagonistKind::Fio, 0)
                    .starting_at(SimTime::from_secs(at)),
            );
        }
        cfg.max_sim_time = SimTime::from_secs(2_000);
        cfg
    }

    #[test]
    fn terasort_completes_on_clean_cluster() {
        let mut e =
            Experiment::build(one_job_config(Benchmark::Terasort, 10, Mitigation::Default, None));
        let r = e.run();
        assert_eq!(r.outcomes.len(), 1);
        let jct = r.sole_jct();
        assert!(jct > 5.0 && jct < 600.0, "implausible JCT {jct}");
        assert_eq!(r.mitigation, "default");
    }

    #[test]
    fn antagonist_slows_the_job_down() {
        // The fio antagonist runs for the whole job (degradation scenario).
        let clean =
            Experiment::build(one_job_config(Benchmark::Terasort, 10, Mitigation::Default, None))
                .run();
        let dirty = Experiment::build(one_job_config(
            Benchmark::Terasort,
            10,
            Mitigation::Default,
            Some(0),
        ))
        .run();
        assert!(
            dirty.sole_jct() > 1.25 * clean.sole_jct(),
            "fio must hurt terasort: clean {} dirty {}",
            clean.sole_jct(),
            dirty.sole_jct()
        );
        assert_eq!(dirty.antagonists.len(), 1);
        assert!(dirty.antagonists[0].io_ops > 0.0);
    }

    #[test]
    fn perfcloud_recovers_part_of_the_loss() {
        // A longer I/O-heavy job with the antagonist arriving mid-run, so
        // the identification pipeline observes the onset (as in Figs. 9-10).
        let bench = Benchmark::Terasort;
        let clean = Experiment::build(one_job_config(bench, 20, Mitigation::Default, None)).run();
        let dirty =
            Experiment::build(one_job_config(bench, 20, Mitigation::Default, Some(15))).run();
        let pc = Experiment::build(one_job_config(
            bench,
            20,
            Mitigation::PerfCloud(PerfCloudConfig::default()),
            Some(15),
        ))
        .run();
        let c = clean.sole_jct();
        let d = dirty.sole_jct();
        let p = pc.sole_jct();
        assert!(d > c, "antagonist must slow the job: {d} !> {c}");
        assert!(p < d, "PerfCloud must beat the default under contention: {p} !< {d}");
        let recovered = (d - p) / (d - c);
        assert!(
            recovered > 0.25,
            "recovered only {:.0}% (clean {c:.0} dirty {d:.0} pc {p:.0})",
            recovered * 100.0
        );
    }

    #[test]
    fn dolly_clones_small_jobs_and_reduces_efficiency() {
        let mut cfg =
            ExperimentConfig::new(ClusterSpec::small_scale(9), Mitigation::Dolly(Dolly::new(4)));
        cfg.jobs.push((SimTime::from_secs(5), Benchmark::Wordcount.job(4)));
        cfg.max_sim_time = SimTime::from_secs(2_000);
        let r = Experiment::build(cfg).run();
        assert_eq!(r.outcomes.len(), 1);
        assert_eq!(r.outcomes[0].clones, 4);
        assert!(r.outcomes[0].efficiency() < 0.8, "cloning must waste work");
        assert_eq!(r.mitigation, "dolly-4");
    }

    #[test]
    fn job_less_run_terminates_at_wall() {
        let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(3), Mitigation::Default);
        cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Fio, 0));
        cfg.max_sim_time = SimTime::from_secs(30);
        let r = Experiment::build(cfg).run();
        assert!(r.outcomes.is_empty());
        assert!((r.duration.as_secs_f64() - 30.0).abs() < 0.2);
        assert!(r.antagonists[0].io_ops > 0.0);
    }

    #[test]
    fn hybrid_runs_speculation_and_control_together() {
        let mut cfg = ExperimentConfig::new(
            ClusterSpec::small_scale(13),
            Mitigation::PerfCloudWithLate(
                PerfCloudConfig::default(),
                perfcloud_baselines::LatePolicy::default(),
            ),
        );
        cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(12)));
        cfg.antagonists.push(
            AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(15)),
        );
        cfg.max_sim_time = SimTime::from_secs(2_000);
        let mut e = Experiment::build(cfg);
        let r = e.run();
        assert_eq!(r.mitigation, "perfcloud+late");
        assert_eq!(r.outcomes.len(), 1);
        assert!(r.outcomes[0].jct > 0.0);
    }

    #[test]
    fn observability_is_pure_and_exports_all_tracks() {
        let build = || {
            let mut cfg = ExperimentConfig::new(
                ClusterSpec::small_scale(3),
                Mitigation::PerfCloud(PerfCloudConfig::default()),
            );
            cfg.antagonists.push(AntagonistPlacement::pinned(AntagonistKind::Fio, 0));
            cfg.max_sim_time = SimTime::from_secs(60);
            Experiment::build(cfg)
        };
        let mut plain = build();
        plain.enable_decision_trace();
        let r_plain = plain.run();
        let mut observed = build();
        observed.enable_decision_trace();
        observed.enable_observability(4096);
        let r_obs = observed.run();
        // Pure observation: results and decision traces are identical.
        assert_eq!(r_plain, r_obs);
        assert_eq!(
            plain.decision_trace().unwrap().canonical(),
            observed.decision_trace().unwrap().canonical()
        );
        // Every track is present: 1 server + ctrl + net.
        let sources = observed.flight_sources();
        assert_eq!(sources.len(), 3);
        assert!(plain.flight_sources().is_empty());
        // Exports are deterministic and well-formed.
        let json = observed.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(
            json.contains("\"server0\"") && json.contains("\"ctrl\"") && json.contains("\"net\"")
        );
        assert_eq!(json, observed.chrome_trace());
        assert!(!observed.jsonl_trace().is_empty());
        assert!(!observed.flight_dump(32).is_empty());
        // Metrics surface ingest and network tallies in BENCH flat form.
        let snap = observed.metrics_snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert!(get("ingest_recorded") > 0.0);
        assert!(get("net_sent") > 0.0);
        assert_eq!(get("ingest_rejected"), 0.0, "no faults: nothing rejected");
    }

    fn migration_testbed(mitigation: Mitigation) -> ExperimentConfig {
        // Two servers, the second held spare: all workers and the fio
        // antagonist land on server 0, leaving server 1 as the migration
        // target the migration rule should discover.
        let mut cluster = ClusterSpec::small_scale(7);
        cluster.servers = 2;
        cluster.spare_servers = 1;
        let mut cfg = ExperimentConfig::new(cluster, mitigation);
        cfg.jobs.push((SimTime::from_secs(10), Benchmark::Terasort.job(20)));
        cfg.antagonists.push(
            AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(15)),
        );
        cfg.max_sim_time = SimTime::from_secs(2_000);
        cfg
    }

    #[test]
    fn migrate_only_moves_the_antagonist_and_recovers_jct() {
        use perfcloud_place::PlacementConfig;
        let dirty = Experiment::build(migration_testbed(Mitigation::Default)).run();
        let mut e = Experiment::build(migration_testbed(Mitigation::MigrateOnly(PlacementConfig)));
        let r = e.run();
        assert_eq!(r.mitigation, "migrate-only");
        let rt = e.placement().expect("placement runtime installed");
        let vm = e.antagonist_vms()[0].0;
        assert_eq!(rt.starts_of(vm), 1, "exactly one migration of the antagonist");
        assert_eq!(rt.active_count(), 0, "migration completed");
        // The registry and the host agree the VM now lives on the spare.
        assert_eq!(e.cloud.record(vm).unwrap().server, ServerId(1));
        assert!(e.servers[1].hosts(vm) && !e.servers[0].hosts(vm));
        // Stop-and-copy ended: the VM's I/O counter advances on the spare.
        let io_before = e.servers[1].counters(vm).unwrap().counters.io_serviced;
        e.run_for(SimDuration::from_secs(1.0));
        let io_after = e.servers[1].counters(vm).unwrap().counters.io_serviced;
        assert!(io_after > io_before, "VM resumed after stop-and-copy");
        assert!(
            r.sole_jct() < dirty.sole_jct(),
            "migrating the antagonist away must beat no mitigation: {} !< {}",
            r.sole_jct(),
            dirty.sole_jct()
        );
        // The antagonist keeps running on the spare server (cluster
        // utilization is preserved, unlike throttling).
        assert!(r.antagonists[0].io_ops > 0.0);
    }

    #[test]
    fn hybrid_beats_throttle_only_on_victim_jct() {
        use perfcloud_place::PlacementConfig;
        let throttle =
            Experiment::build(migration_testbed(Mitigation::PerfCloud(PerfCloudConfig::default())))
                .run();
        let mut e = Experiment::build(migration_testbed(Mitigation::Hybrid(
            PerfCloudConfig::default(),
            PlacementConfig,
        )));
        let hybrid = e.run();
        assert_eq!(hybrid.mitigation, "hybrid");
        assert!(e.placement().unwrap().migrations_started() >= 1);
        assert!(
            hybrid.sole_jct() <= throttle.sole_jct(),
            "hybrid (throttle + migrate) must not lose to throttle-only: {} !<= {}",
            hybrid.sole_jct(),
            throttle.sole_jct()
        );
    }

    #[test]
    fn tee_then_replay_reproduces_the_run() {
        // Record a faulted PerfCloud run, replay the recording through a
        // second build of the same config: result, decision trace, and
        // re-teed recording bytes must all match.
        let config = || {
            let mut cfg = one_job_config(
                Benchmark::Terasort,
                10,
                Mitigation::PerfCloud(PerfCloudConfig::default()),
                Some(15),
            );
            use perfcloud_sim::{FaultKind, FaultRule};
            cfg.faults = Some(
                FaultScenario::named("tee-replay")
                    .rule(
                        FaultRule::new("drop", FaultKind::DropSample)
                            .window(SimTime::from_secs(20), SimTime::from_secs(120))
                            .with_probability(0.2),
                    )
                    .rule(
                        FaultRule::new("delay", FaultKind::DelaySample { intervals: 2 })
                            .window(SimTime::from_secs(20), SimTime::from_secs(120))
                            .with_probability(0.2),
                    ),
            );
            cfg
        };
        let mut recorded = config();
        recorded.telemetry.tee = Some(RecordingFormat::Binary);
        let mut a = Experiment::build(recorded);
        a.enable_decision_trace();
        let ra = a.run();
        let rec = a.recording().expect("tee was armed");
        assert!(!rec.samples.is_empty());
        let bytes_a = a.take_recording().expect("tee was armed");
        assert!(a.take_recording().is_none(), "take disarms the tee");

        let mut replayed = config();
        replayed.telemetry.replay = Some(Arc::new(rec));
        replayed.telemetry.tee = Some(RecordingFormat::Binary);
        let mut b = Experiment::build(replayed);
        assert_eq!(b.node_managers[0].source_name(), "replay");
        b.enable_decision_trace();
        let rb = b.run();
        assert_eq!(ra, rb, "replayed result diverged");
        assert_eq!(
            a.decision_trace().unwrap().canonical(),
            b.decision_trace().unwrap().canonical(),
            "replayed decision trace diverged"
        );
        // The replayed run re-tees the identical sample stream; only the
        // header's source name differs.
        let rec_b = b.recording().unwrap();
        assert_eq!(rec_b.source, "replay");
        let parsed_a =
            perfcloud_telemetry::TelemetryReader::parse(&bytes_a).expect("recording parses");
        assert_eq!(parsed_a.samples, rec_b.samples);
    }

    #[test]
    fn telemetry_counters_surface_in_metrics() {
        let mut cfg = one_job_config(
            Benchmark::Terasort,
            10,
            Mitigation::PerfCloud(PerfCloudConfig::default()),
            Some(0),
        );
        cfg.telemetry.tee = Some(RecordingFormat::Jsonl);
        let mut e = Experiment::build(cfg);
        e.run();
        // The registry holds exactly these counters, in this order, and no
        // gauge: its fixed capacity is sized to them.
        let reg = e.metrics_registry();
        let names: Vec<&str> = reg.counters().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "ingest_baselines",
                "ingest_recorded",
                "ingest_stale",
                "ingest_duplicates",
                "ingest_regressions",
                "ingest_rejected",
                "net_sent",
                "net_delivered",
                "net_dropped",
                "net_duplicated",
                "telemetry_teed_samples",
                "telemetry_flush_batches",
            ]
        );
        assert_eq!(reg.gauges().count(), 0);
        let snap = e.metrics_snapshot();
        assert!(snap.iter().map(|(n, _)| n.as_str()).eq(names), "snapshot adds nothing");
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert!(get("telemetry_teed_samples") > 0.0);
        assert!(get("telemetry_flush_batches") > 0.0);
        // The Prometheus exposition reads the same registry.
        let text = e.prometheus_metrics();
        assert!(text.contains("# TYPE telemetry_teed_samples counter"));
        assert!(text.contains("# TYPE ingest_recorded counter"));
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            Experiment::build(one_job_config(Benchmark::Terasort, 10, Mitigation::Default, Some(0)))
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.sole_jct(), b.sole_jct());
        assert_eq!(a.antagonists[0].io_ops, b.antagonists[0].io_ops);
    }
}
