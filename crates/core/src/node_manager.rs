//! The node manager: Algorithm 1 (§III-D.2).
//!
//! One decentralized agent per physical server. Each sampling interval it
//! (1) takes the VM priorities and application membership the cloud
//! manager last published to it, (2) samples the performance monitor, (3)
//! computes the across-VM deviations of block-iowait ratio and CPI for the
//! high-priority application, (4) identifies antagonists by
//! cross-correlation, and (5) runs the CUBIC CPU-control and I/O-control
//! modules, applying the resulting caps through the hypervisor's
//! `vcpu_quota` and blkio-throttle actuators. Caps are released once the controller has probed past the
//! point where the throttle binds.

use crate::antagonist::Resource;
use crate::chaos::{ManagerFault, NodeFaults};
use crate::cloud::{AppId, Placement, PlacementEpoch};
use crate::config::PerfCloudConfig;
use crate::cubic::{CubicController, CubicState};
use crate::detector::ContentionSignal;
use crate::monitor::{PerformanceMonitor, VmMetricKind};
use crate::pipeline::{Detector, Identifier, PipelineSpec};
use perfcloud_host::throttle::{CpuCap, IoThrottle};
use perfcloud_host::{PhysicalServer, VmId};
use perfcloud_obs::{FlightEvent, SAMPLE_EVENT_DECIMATION};
use perfcloud_sim::SimTime;
use perfcloud_telemetry::{CounterSource, Sample, SimSource};
use std::collections::BTreeMap;

/// Floors below which an observed usage is not worth capping at; avoids
/// freezing a VM that happened to be momentarily idle when control began.
const MIN_REF_IOPS: f64 = 20.0;
const MIN_REF_BPS: f64 = 1.0e6;
const MIN_REF_CORES: f64 = 0.1;

#[derive(Debug, Clone, Copy)]
struct Controlled {
    state: CubicState,
    ref_iops: f64,
    ref_bps: f64,
    ref_cores: f64,
}

/// What one node-manager step observed and did: the agent's only record of
/// its decisions and events, which the decision trace stores and renders
/// into the server's flight track. The default is an interval in which the
/// manager took no action.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepReport {
    /// The contention signal at this interval (for the controlled app).
    pub signal: Option<ContentionSignal>,
    /// VMs identified as I/O antagonists this interval.
    pub io_antagonists: Vec<VmId>,
    /// VMs identified as processor antagonists this interval.
    pub cpu_antagonists: Vec<VmId>,
    /// Normalized I/O caps currently applied (VM, cap fraction).
    pub io_caps: Vec<(VmId, f64)>,
    /// Normalized CPU caps currently applied (VM, cap fraction).
    pub cpu_caps: Vec<(VmId, f64)>,
    /// VMs newly enrolled for I/O control this interval, in identification
    /// order; their first caps are in `io_caps`.
    pub io_enrolled: Vec<VmId>,
    /// VMs newly enrolled for CPU control this interval.
    pub cpu_enrolled: Vec<VmId>,
    /// VMs still hosted here whose I/O cap came off this interval because
    /// they left the suspect set, or because no high-priority application
    /// is left here to protect.
    pub io_released: Vec<VmId>,
    /// VMs still hosted here whose CPU cap came off for the same reasons.
    pub cpu_released: Vec<VmId>,
    /// The interval's other events in order, filled only while observed
    /// ([`NodeManager::set_observed`]): collector (`FlushBatch`, decimated
    /// `SampleIngested`), chaos (`Fault`, `IngestRejected`), `PlacementStale`.
    pub events: Vec<FlightEvent>,
    /// The manager was stalled and skipped this interval entirely.
    pub stalled: bool,
    /// The manager crash-restarted this interval, losing its windows.
    pub restarted: bool,
    /// Decisions ran on a cached (or no) placement view this interval.
    pub placement_stale: bool,
}

impl StepReport {
    /// Resets to the idle state, keeping the list buffers' capacity, so one
    /// report can be refilled every interval by
    /// [`NodeManager::step_synced`].
    pub fn clear(&mut self) {
        self.signal = None;
        self.io_antagonists.clear();
        self.cpu_antagonists.clear();
        self.io_caps.clear();
        self.cpu_caps.clear();
        self.io_enrolled.clear();
        self.cpu_enrolled.clear();
        self.io_released.clear();
        self.cpu_released.clear();
        self.events.clear();
        self.stalled = false;
        self.restarted = false;
        self.placement_stale = false;
    }
}

/// What [`NodeManager::apply_placement`] did with an incoming update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementApplyOutcome {
    /// The update was at or above the last-applied epoch and was cached.
    Applied,
    /// The update's epoch was below the last-applied one (a restarted or
    /// superseded coordinator): ignored, and — deliberately — the staleness
    /// clock was *not* reset, so the bounded-staleness guard keeps counting.
    RejectedStaleEpoch,
}

/// The per-server PerfCloud agent.
#[derive(Clone)]
pub struct NodeManager {
    config: PerfCloudConfig,
    pipeline: PipelineSpec,
    controller: CubicController,
    monitor: PerformanceMonitor,
    detector: Box<dyn Detector>,
    identifier: Box<dyn Identifier>,
    /// VMs under CUBIC control per resource, indexed by `Resource as usize`
    /// (I/O, then CPU).
    controlled: [BTreeMap<VmId, Controlled>; 2],
    faults: Option<NodeFaults>,
    /// Where counter samples come from. Defaults to [`SimSource`] (the
    /// direct hypervisor read); experiments can swap in a replay stream.
    /// Deliberately *not* reset on crash-restart: the source is not part
    /// of the agent's state.
    source: Box<dyn CounterSource>,
    /// Scratch for the current interval's collected batch; reused so the
    /// steady-state sample path stays allocation-free.
    sample_buf: Vec<Sample>,
    /// When teeing, raw (pre-fault) samples accumulate here until the
    /// experiment drains them into its recording writer.
    tee: Option<Vec<Sample>>,
    /// Samples collected since construction, for decimating
    /// `SampleIngested` flight events.
    collected: u64,
    /// Whether the step fills the report's `events` list. Every hook is a
    /// single branch on it. Pure observation: it changes no decision.
    observed: bool,
    /// Last placement view applied from a `PlacementUpdate`, for riding out
    /// desynchronization; `cache_fetched` is its delivery time.
    placement_cache: Placement,
    cache_fetched: Option<SimTime>,
    /// Epoch of the last applied [`Self::apply_placement`] update; updates
    /// below it are rejected (epoch-regression protection).
    last_epoch: Option<PlacementEpoch>,
    /// Set by [`Self::apply_placement`], consumed by [`Self::step_synced`]:
    /// whether an update arrived since the previous step.
    placement_fresh: bool,
    /// Colocation notices waiting to be shipped to the cloud manager as
    /// `Colocation` messages.
    colocation_outbox: Vec<Vec<AppId>>,
    /// Scratch for VMs leaving the controlled set in [`Self::control`].
    departed: Vec<VmId>,
    /// Whether the control modules may actuate caps. With actuation off
    /// the full detect/identify pipeline still runs (and its verdicts are
    /// exported via [`Self::identified`]) but no throttle is ever
    /// enrolled — the migrate-only mitigation mode.
    actuation: bool,
    /// Verdicts of the most recent decision interval, exported for the
    /// placement runtime: every `(vm, resource)` the identifier fingered
    /// this step. Cleared at the start of each step.
    identified: Vec<(VmId, Resource)>,
}

impl NodeManager {
    /// Creates an agent with the given configuration and the paper's own
    /// detection/identification pipeline.
    pub fn new(config: PerfCloudConfig) -> Self {
        NodeManager::with_pipeline(config, PipelineSpec::default())
    }

    /// Creates an agent running an alternative pipeline over the same
    /// monitor, controller, and actuators. The default spec reproduces
    /// [`NodeManager::new`] byte-for-byte.
    pub fn with_pipeline(config: PerfCloudConfig, pipeline: PipelineSpec) -> Self {
        config.validate();
        NodeManager {
            controller: CubicController::new(config.beta, config.gamma),
            monitor: PerformanceMonitor::new(&config),
            detector: pipeline.build_detector(&config),
            identifier: pipeline.build_identifier(&config),
            config,
            pipeline,
            controlled: Default::default(),
            faults: None,
            source: Box::new(SimSource::new()),
            sample_buf: Vec::new(),
            tee: None,
            collected: 0,
            observed: false,
            placement_cache: Placement::default(),
            cache_fetched: None,
            last_epoch: None,
            placement_fresh: false,
            colocation_outbox: Vec::new(),
            departed: Vec::new(),
            actuation: true,
            identified: Vec::new(),
        }
    }

    /// Enables or disables cap actuation. With actuation off the agent
    /// still detects and identifies (feeding [`Self::identified`]) but
    /// never enrolls a VM for throttling; caps already applied keep being
    /// stepped and released normally.
    pub fn set_actuation(&mut self, on: bool) {
        self.actuation = on;
    }

    /// This interval's identify verdicts: every `(vm, resource)` pair the
    /// identifier fingered in the most recent step, in report order (I/O
    /// first, then CPU; VMs in identifier order within each resource).
    pub fn identified(&self) -> &[(VmId, Resource)] {
        &self.identified
    }

    /// Intervals the manager will run on a cached placement view before
    /// refusing to make decisions (bounded staleness).
    pub const MAX_PLACEMENT_STALENESS: u32 = 12;

    /// Attaches a fault scenario; every subsequent step goes through it.
    pub fn attach_faults(&mut self, faults: NodeFaults) {
        self.faults = Some(faults);
    }

    /// Turns on the report's `events` list: collector, chaos and
    /// placement-staleness events join every later step's report.
    pub fn set_observed(&mut self, on: bool) {
        self.observed = on;
    }

    /// The underlying monitor (read access for experiments).
    pub fn monitor(&self) -> &PerformanceMonitor {
        &self.monitor
    }

    /// The identifier, which holds the victim deviation time series.
    pub fn identifier(&self) -> &dyn Identifier {
        self.identifier.as_ref()
    }

    /// The pipeline this agent runs (the default is the paper's).
    pub fn pipeline(&self) -> PipelineSpec {
        self.pipeline
    }

    /// Epoch of the last applied placement update, if any arrived via
    /// [`Self::apply_placement`].
    pub fn last_epoch(&self) -> Option<PlacementEpoch> {
        self.last_epoch
    }

    /// Delivers a `PlacementUpdate` message: caches `view` as the current
    /// placement unless its `epoch` is below the last-applied one.
    ///
    /// On rejection nothing changes — in particular `cache_fetched` keeps its
    /// old timestamp, so a stale coordinator cannot silently reset the
    /// bounded-staleness clock with outdated views (the epoch-regression
    /// window of a restarted cloud manager whose volatile publish counter
    /// started over).
    pub fn apply_placement(
        &mut self,
        now: SimTime,
        epoch: PlacementEpoch,
        view: &Placement,
    ) -> PlacementApplyOutcome {
        if self.last_epoch.is_some_and(|last| epoch < last) {
            return PlacementApplyOutcome::RejectedStaleEpoch;
        }
        self.last_epoch = Some(epoch);
        self.placement_cache.clone_from(view);
        self.cache_fetched = Some(now);
        self.placement_fresh = true;
        PlacementApplyOutcome::Applied
    }

    /// Pops one pending colocation notice (multiple high-priority apps seen
    /// on this server), for shipping to the cloud manager as a message.
    pub fn take_colocation_notice(&mut self) -> Option<Vec<AppId>> {
        self.colocation_outbox.pop()
    }

    /// One interval of Algorithm 1. Call every `config.sample_interval`.
    ///
    /// Placement arrives beforehand via [`Self::apply_placement`], stalls
    /// are imposed by the control plane (`stalled`), and colocation notices
    /// are left in the outbox for the caller to ship
    /// ([`Self::take_colocation_notice`]). `report` is cleared first and its
    /// buffers reused, so the steady-state step is allocation-free.
    ///
    /// If no update arrived since the previous step, the manager rides its
    /// cached view up to [`Self::MAX_PLACEMENT_STALENESS`] intervals, then
    /// keeps the metric windows warm but stops making control decisions.
    pub fn step_synced(
        &mut self,
        now: SimTime,
        server: &mut PhysicalServer,
        stalled: bool,
        report: &mut StepReport,
    ) {
        report.clear();
        self.identified.clear();

        // (0) A crash beats a stall: the process dies and restarts with
        // clean state.
        let crashed = self
            .faults
            .as_mut()
            .is_some_and(|faults| faults.begin_interval(now) == ManagerFault::Crashed);
        if crashed {
            self.crash_restart(server);
            report.restarted = true;
        } else if stalled {
            report.stalled = true;
        } else {
            // (1) Use the placement update that arrived this interval — or
            // ride the cached view up to the bounded-staleness limit.
            report.placement_stale = !std::mem::take(&mut self.placement_fresh);
            let limit = self.config.sample_interval.mul_f64(Self::MAX_PLACEMENT_STALENESS as f64);
            let decides = !report.placement_stale
                || self.cache_fetched.is_some_and(|fetched| now.saturating_since(fetched) <= limit);

            // (2) Sample all VMs (through the fault filter, when attached).
            // Past the limit the cached view is too old to act on safely:
            // the metric windows stay warm but no control decision is made.
            self.sample(now, server, report);
            if self.observed && report.placement_stale {
                let staleness = self.cache_fetched.map_or(u32::MAX, |fetched| {
                    (now.saturating_since(fetched).as_micros()
                        / self.config.sample_interval.as_micros()) as u32
                });
                report.events.push(FlightEvent::PlacementStale { server: server.id.0, staleness });
            }

            if decides {
                // Decide on the cached view moved out of `self`, so the
                // decision path can borrow the manager mutably; moving a
                // `Placement` swaps pointers, it does not copy or allocate.
                let placement = std::mem::take(&mut self.placement_cache);
                self.decide(now, server, &placement, report);
                self.placement_cache = placement;
            }
        }
    }

    /// Steps (3)–(5) of Algorithm 1 on the applied placement view.
    fn decide(
        &mut self,
        now: SimTime,
        server: &mut PhysicalServer,
        placement: &Placement,
        report: &mut StepReport,
    ) {
        // Multiple high-priority applications colocated → queue a notice for
        // the cloud manager (the paper's hook for migration-based
        // resolution); control the first.
        if placement.apps.len() > 1 {
            self.colocation_outbox.push(placement.apps.clone());
        }
        if placement.apps.is_empty() {
            // Nothing to protect on this server: every cap comes off, as if
            // every suspect had left.
            self.control(Resource::Io, false, &[], server, report);
            self.control(Resource::Cpu, false, &[], server, report);
            return;
        }

        // (3) Deviations across the application's VMs.
        let signal = self.detector.detect(&self.monitor, &placement.members);
        self.identifier.observe(
            now,
            signal.io_deviation,
            signal.cpi_deviation,
            &self.monitor,
            &placement.suspects,
        );

        // (4) Identify antagonists.
        self.identifier.identify_into(
            &placement.suspects,
            Resource::Io,
            &self.monitor,
            &mut report.io_antagonists,
        );
        self.identifier.identify_into(
            &placement.suspects,
            Resource::Cpu,
            &self.monitor,
            &mut report.cpu_antagonists,
        );

        // Export the verdicts for the placement runtime, independent of
        // whether actuation will act on them.
        self.identified.extend(report.io_antagonists.iter().map(|&vm| (vm, Resource::Io)));
        self.identified.extend(report.cpu_antagonists.iter().map(|&vm| (vm, Resource::Cpu)));

        // (5) Control modules.
        self.control(Resource::Io, signal.io_contended, &placement.suspects, server, report);
        self.control(Resource::Cpu, signal.cpu_contended, &placement.suspects, server, report);

        report.signal = Some(signal);
    }

    /// Samples all VMs: collect from the configured [`CounterSource`], tee
    /// the raw batch if a recording is active, then ingest through the
    /// fault filter when one is attached. Collector and chaos events go to
    /// `report.events` when observed.
    fn sample(&mut self, now: SimTime, server: &PhysicalServer, report: &mut StepReport) {
        self.sample_buf.clear();
        self.source.collect_into(now, server, &mut self.sample_buf);
        if let Some(tee) = self.tee.as_mut() {
            tee.extend_from_slice(&self.sample_buf);
        }
        // Collector events are gated on telemetry actually being in play (a
        // tee or a non-sim source) so the default simulated path emits
        // byte-identical flight tracks to before this seam existed.
        if self.tee.is_some() || !self.source.is_sim() {
            if self.observed {
                let (server, count) = (server.id.0, self.sample_buf.len() as u64);
                report.events.push(FlightEvent::FlushBatch { server, count });
                for (k, s) in (self.collected..).zip(&self.sample_buf) {
                    if k.is_multiple_of(SAMPLE_EVENT_DECIMATION) {
                        let vm = u64::from(s.vm.0);
                        report.events.push(FlightEvent::SampleIngested { server, vm });
                    }
                }
            }
            self.collected += self.sample_buf.len() as u64;
        }
        match self.faults.as_mut() {
            Some(faults) => faults.sample(
                now,
                self.config.sample_interval,
                &mut self.monitor,
                &self.sample_buf,
                self.observed.then_some(&mut report.events),
            ),
            None => {
                for s in &self.sample_buf {
                    let _ = self.monitor.ingest(s.time, s.vm, s.snapshot);
                }
            }
        }
    }

    /// Replaces the counter source. The default is [`SimSource`]; pass a
    /// `ReplaySource` to re-drive a recording.
    pub fn set_source(&mut self, source: Box<dyn CounterSource>) {
        self.source = source;
    }

    /// Name of the active counter source (`"sim"` or `"replay"`).
    pub fn source_name(&self) -> &'static str {
        self.source.name()
    }

    /// Starts teeing every raw (pre-fault) collected sample into an
    /// internal buffer, drained by [`NodeManager::drain_tee_into`].
    pub fn enable_tee(&mut self) {
        if self.tee.is_none() {
            self.tee = Some(Vec::new());
        }
    }

    /// Appends all teed samples since the last drain to `out` and clears
    /// the internal buffer. No-op when the tee is disabled.
    pub fn drain_tee_into(&mut self, out: &mut Vec<Sample>) {
        if let Some(tee) = self.tee.as_mut() {
            out.append(tee);
        }
    }

    /// Models the agent process dying and restarting: every in-memory rolling
    /// window, EWMA, controller state and cached placement is gone. The fresh
    /// process finds hypervisor caps it has no record of and releases them —
    /// clean-slate recovery; re-detection re-applies them within a bounded
    /// number of intervals (the windows re-warm from empty).
    fn crash_restart(&mut self, server: &mut PhysicalServer) {
        self.monitor = PerformanceMonitor::new(&self.config);
        self.detector.reset();
        self.identifier.reset();
        self.controlled = Default::default();
        self.placement_cache.clear();
        self.cache_fetched = None;
        self.last_epoch = None;
        self.placement_fresh = false;
        self.colocation_outbox.clear();
        self.identified.clear();
        for vm in server.vm_ids() {
            if server.io_throttle(vm).is_some_and(|t| t.is_throttled()) {
                server.set_io_throttle(vm, IoThrottle::unlimited());
            }
            if server.cpu_cap(vm).is_some_and(|c| c.is_capped()) {
                server.set_cpu_cap(vm, CpuCap::unlimited());
            }
        }
    }

    /// Runs the `resource` control module: releases VMs that left the
    /// suspect set, enrolls the report's newly identified antagonists while
    /// contention persists, and steps every controlled VM's CUBIC cap,
    /// filling the report's cap, enrolled and released lists for
    /// `resource`.
    fn control(
        &mut self,
        resource: Resource,
        contended: bool,
        suspects: &[VmId],
        server: &mut PhysicalServer,
        report: &mut StepReport,
    ) {
        let (antagonists, applied, enrolled, released) = match resource {
            Resource::Io => (
                &report.io_antagonists,
                &mut report.io_caps,
                &mut report.io_enrolled,
                &mut report.io_released,
            ),
            Resource::Cpu => (
                &report.cpu_antagonists,
                &mut report.cpu_caps,
                &mut report.cpu_enrolled,
                &mut report.cpu_released,
            ),
        };
        let controlled = &mut self.controlled[resource as usize];
        // Drop control state for VMs that left the suspect set. One that is
        // still hosted here (deregistered or promoted in the cloud manager)
        // must have its cap released — nothing else will ever do it; one
        // that migrated keeps its caps, which travel with the hypervisor.
        self.departed.clear();
        self.departed.extend(controlled.keys().filter(|vm| !suspects.contains(vm)).copied());
        for &vm in &self.departed {
            controlled.remove(&vm);
            if server.hosts(vm) {
                match resource {
                    Resource::Io => server.set_io_throttle(vm, IoThrottle::unlimited()),
                    Resource::Cpu => server.set_cpu_cap(vm, CpuCap::unlimited()),
                }
                released.push(vm);
            }
        }
        // Enroll newly identified antagonists while contention persists —
        // unless actuation is off (migrate-only mode), in which case the
        // verdicts are exported but no cap is ever applied.
        if contended && self.actuation {
            for &vm in antagonists {
                if controlled.contains_key(&vm) {
                    continue;
                }
                let usage = |kind, floor: f64| {
                    self.monitor.latest_present(vm, kind).unwrap_or(0.0).max(floor)
                };
                let c = Controlled {
                    state: CubicState::new(),
                    ref_iops: usage(VmMetricKind::IoIops, MIN_REF_IOPS),
                    ref_bps: usage(VmMetricKind::IoBps, MIN_REF_BPS),
                    ref_cores: usage(VmMetricKind::CpuCores, MIN_REF_CORES),
                };
                controlled.insert(vm, c);
                enrolled.push(vm);
            }
        }

        // Step every controlled VM. Control is persistent, as in Algorithm 1:
        // once identified, an antagonist stays under CUBIC control — during
        // quiet periods the cap probes up to `release_level` × the reference
        // usage, where the throttle no longer binds, and the next contention
        // event crashes it multiplicatively without needing a fresh
        // identification.
        let controller = self.controller;
        let ceiling = self.config.release_level;
        for (&vm, c) in controlled.iter_mut() {
            let cap = controller.step(&mut c.state, contended).min(ceiling);
            c.state.cap = cap;
            match resource {
                Resource::Io => {
                    server.set_io_throttle(
                        vm,
                        IoThrottle { iops: Some(cap * c.ref_iops), bps: Some(cap * c.ref_bps) },
                    );
                }
                Resource::Cpu => {
                    server.set_cpu_cap(vm, CpuCap { cores: Some(cap * c.ref_cores) });
                }
            }
            applied.push((vm, cap));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{CloudManager, VmRecord};
    use perfcloud_host::{Priority, ServerConfig, ServerId, VmConfig};
    use perfcloud_sim::{RngFactory, SimDuration};
    use perfcloud_workloads::{FioRandRead, SysbenchCpu};

    const DT: SimDuration = SimDuration::from_micros(100_000);

    struct Testbed {
        server: PhysicalServer,
        cloud: CloudManager,
        nm: NodeManager,
        now: SimTime,
        victims: Vec<VmId>,
    }

    /// 4 victim VMs (mild fio) + heavy fio antagonist (VM 10) + CPU decoy
    /// (VM 11) on one server.
    fn testbed(with_perfcloud_thresholds: (f64, f64)) -> Testbed {
        let mut server =
            PhysicalServer::new(ServerId(0), ServerConfig::default(), RngFactory::new(31), DT);
        let mut cloud = CloudManager::new();
        let victims: Vec<VmId> = (0..4).map(VmId).collect();
        for &vm in &victims {
            server.add_vm(vm, VmConfig::high_priority());
            server.spawn(vm, Box::new(FioRandRead::with_rate(300.0, 4096.0, None)));
            cloud.register(
                vm,
                VmRecord { server: ServerId(0), priority: Priority::High, app: Some(AppId(1)) },
            );
        }
        for vm in [VmId(10), VmId(11)] {
            server.add_vm(vm, VmConfig::low_priority());
            cloud
                .register(vm, VmRecord { server: ServerId(0), priority: Priority::Low, app: None });
        }
        server.spawn(VmId(11), Box::new(SysbenchCpu::new()));
        let (h_io, h_cpi) = with_perfcloud_thresholds;
        let nm = NodeManager::new(PerfCloudConfig { h_io, h_cpi, ..Default::default() });
        Testbed { server, cloud, nm, now: SimTime::ZERO, victims }
    }

    /// One interval as the control plane's zero-latency loopback runs it:
    /// the registry's view is applied at a fresh epoch, the agent steps,
    /// and its colocation notices go straight to the cloud manager.
    fn loopback_step(
        nm: &mut NodeManager,
        now: SimTime,
        server: &mut PhysicalServer,
        cloud: &mut CloudManager,
    ) -> StepReport {
        let mut view = Placement::default();
        cloud.placement_into(server.id, &mut view);
        nm.apply_placement(now, PlacementEpoch { term: 1, seq: now.as_micros() }, &view);
        let mut report = StepReport::default();
        nm.step_synced(now, server, false, &mut report);
        while let Some(apps) = nm.take_colocation_notice() {
            cloud.notify_colocation(server.id, apps);
        }
        report
    }

    impl Testbed {
        /// Runs `n` sampling intervals (5 s each), returning all reports.
        fn run(&mut self, n: usize) -> Vec<StepReport> {
            let mut reports = Vec::new();
            for _ in 0..n {
                for _ in 0..50 {
                    self.server.tick(DT);
                }
                self.now += SimDuration::from_secs(5.0);
                reports.push(loopback_step(
                    &mut self.nm,
                    self.now,
                    &mut self.server,
                    &mut self.cloud,
                ));
            }
            reports
        }

        /// Starts the heavy fio antagonist on VM 10 (the identification
        /// signal keys on this onset, as in the paper's case studies).
        fn start_antagonist(&mut self) {
            self.server.spawn(VmId(10), Box::new(FioRandRead::with_rate(20_000.0, 4096.0, None)));
        }
    }

    #[test]
    fn detects_identifies_and_throttles_the_fio_antagonist() {
        let mut tb = testbed((10.0, 1.0));
        let mut reports = tb.run(3);
        tb.start_antagonist();
        reports.extend(tb.run(10));
        // Detection: some interval flagged I/O contention.
        assert!(
            reports.iter().any(|r| r.signal.is_some_and(|s| s.io_contended)),
            "contention never detected"
        );
        // Identification: the fio VM (10) and never the CPU decoy (11).
        let ants: Vec<VmId> = reports.iter().flat_map(|r| r.io_antagonists.clone()).collect();
        assert!(ants.contains(&VmId(10)), "fio antagonist not identified");
        assert!(!ants.contains(&VmId(11)), "decoy wrongly identified");
        // Actuation: a throttle was applied to VM 10.
        assert!(
            reports.iter().any(|r| r.io_caps.iter().any(|&(vm, _)| vm == VmId(10))),
            "no cap applied"
        );
    }

    #[test]
    fn throttling_reduces_victim_deviation() {
        // Same scenario with PerfCloud active vs. detection disabled
        // (thresholds at infinity): the tail-end deviation must be lower
        // with control.
        let tail_dev = |active: bool| {
            let th = if active { (10.0, 1.0) } else { (f64::INFINITY, f64::INFINITY) };
            let mut tb = testbed(th);
            tb.run(3);
            tb.start_antagonist();
            let reports = tb.run(16);
            let tail: Vec<f64> =
                reports[8..].iter().filter_map(|r| r.signal.and_then(|s| s.io_deviation)).collect();
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        let with = tail_dev(true);
        let without = tail_dev(false);
        assert!(
            with < 0.7 * without,
            "PerfCloud should cut the iowait deviation: with={with:.2} without={without:.2}"
        );
    }

    #[test]
    fn caps_follow_cubic_shape() {
        let mut tb = testbed((10.0, 1.0));
        tb.run(3);
        tb.start_antagonist();
        let caps: Vec<f64> = tb
            .run(30)
            .iter()
            .flat_map(|r| r.io_caps.iter().filter(|&&(vm, _)| vm == VmId(10)).map(|&(_, cap)| cap))
            .collect();
        assert!(caps.len() >= 3);
        // First applied cap is the multiplicative decrease (≈ 0.2).
        assert!((caps[0] - 0.2).abs() < 1e-9, "first cap should be 1-β = 0.2, got {}", caps[0]);
        // Caps must later recover above 0.5 of the reference (cubic growth).
        assert!(
            caps.iter().any(|&c| c > 0.5),
            "caps never recovered: max {:?}",
            caps.iter().cloned().fold(0.0f64, f64::max)
        );
    }

    #[test]
    fn no_app_on_server_means_no_control() {
        let mut server =
            PhysicalServer::new(ServerId(0), ServerConfig::default(), RngFactory::new(3), DT);
        let mut cloud = CloudManager::new();
        server.add_vm(VmId(0), VmConfig::low_priority());
        cloud.register(
            VmId(0),
            VmRecord { server: ServerId(0), priority: Priority::Low, app: None },
        );
        server.spawn(VmId(0), Box::new(FioRandRead::new(None)));
        let mut nm = NodeManager::new(PerfCloudConfig::default());
        for k in 1..=5u64 {
            for _ in 0..50 {
                server.tick(DT);
            }
            let r = loopback_step(&mut nm, SimTime::from_secs(5 * k), &mut server, &mut cloud);
            assert_eq!(r.signal, None);
            assert!(r.io_caps.is_empty());
        }
        assert!(!server.io_throttle(VmId(0)).unwrap().is_throttled());
    }

    #[test]
    fn colocated_apps_trigger_notification() {
        let mut tb = testbed((10.0, 1.0));
        // Add a second high-priority app on the same server.
        tb.server.add_vm(VmId(20), VmConfig::high_priority());
        tb.cloud.register(
            VmId(20),
            VmRecord { server: ServerId(0), priority: Priority::High, app: Some(AppId(2)) },
        );
        tb.run(2);
        assert!(
            !tb.cloud.notifications().is_empty(),
            "node manager must notify the cloud manager about colocated apps"
        );
    }

    #[test]
    fn throttle_released_when_antagonist_leaves_placement() {
        let mut tb = testbed((10.0, 1.0));
        tb.run(3);
        tb.start_antagonist();
        tb.run(10);
        assert!(
            tb.server.io_throttle(VmId(10)).unwrap().is_throttled(),
            "precondition: antagonist under throttle"
        );
        // The VM is torn down in the cloud manager but the guest lingers on
        // this host: it leaves the suspect set, so the cap must come off.
        tb.cloud.deregister(VmId(10));
        tb.run(1);
        assert!(
            !tb.server.io_throttle(VmId(10)).unwrap().is_throttled(),
            "cap must be released when the VM disappears from placement"
        );
    }

    #[test]
    fn crash_restart_rewarns_and_redetects() {
        let mut tb = testbed((10.0, 1.0));
        tb.run(3);
        tb.start_antagonist();
        tb.run(10);
        assert!(tb.server.io_throttle(VmId(10)).unwrap().is_throttled());
        // Crash at the next interval boundary via an attached scenario.
        let crash_at = tb.now + SimDuration::from_secs(5.0);
        let scenario = perfcloud_sim::FaultScenario::named("crash-once").rule(
            perfcloud_sim::FaultRule::new("crash", perfcloud_sim::FaultKind::CrashRestart)
                .window(crash_at, crash_at + SimDuration::from_secs(1.0)),
        );
        tb.nm.attach_faults(crate::chaos::NodeFaults::new(1, scenario, 0));
        let reports = tb.run(1);
        assert!(reports[0].restarted);
        // Clean-slate recovery: the unknown cap was released…
        assert!(!tb.server.io_throttle(VmId(10)).unwrap().is_throttled());
        // …and with the antagonist still raging, re-detection re-throttles
        // within a bounded number of intervals (warm-up ≥ min_corr_samples).
        let reports = tb.run(8);
        assert!(
            reports.iter().any(|r| r.io_caps.iter().any(|&(vm, _)| vm == VmId(10))),
            "no re-throttle within 8 intervals of the restart"
        );
    }

    #[test]
    fn epoch_regression_is_ignored_and_does_not_reset_staleness() {
        let mut tb = testbed((10.0, 1.0));
        let interval = SimDuration::from_secs(5.0);
        let mut view = Placement::default();
        tb.cloud.placement_into(ServerId(0), &mut view);

        // A current coordinator publishes at epoch (term 2, seq 5).
        let fresh = PlacementEpoch { term: 2, seq: 5 };
        let t0 = SimTime::from_secs(5);
        assert_eq!(tb.nm.apply_placement(t0, fresh, &view), PlacementApplyOutcome::Applied);
        assert_eq!(tb.nm.last_epoch(), Some(fresh));

        // A restarted coordinator (same term, volatile seq back at 1) keeps
        // republishing stale epochs: every one must be rejected, the applied
        // epoch must not move, and the staleness clock must keep running.
        let mut report = StepReport::default();
        let mut now = t0;
        let mut stale_intervals = 0;
        for k in 0..(NodeManager::MAX_PLACEMENT_STALENESS as u64 + 2) {
            now += interval;
            let seq = k % 4 + 1; // always below the applied seq of 5
            let outcome = tb.nm.apply_placement(now, PlacementEpoch { term: 2, seq }, &view);
            assert_eq!(outcome, PlacementApplyOutcome::RejectedStaleEpoch, "seq {seq}");
            assert_eq!(tb.nm.last_epoch(), Some(fresh), "epoch must never regress");
            for _ in 0..50 {
                tb.server.tick(DT);
            }
            tb.nm.step_synced(now, &mut tb.server, false, &mut report);
            if report.placement_stale {
                stale_intervals += 1;
            }
        }
        // Had a rejection reset the clock, the stale counter would have been
        // wiped each interval and the bounded-staleness guard never tripped.
        assert!(
            stale_intervals > NodeManager::MAX_PLACEMENT_STALENESS,
            "rejected updates must not reset the staleness clock \
             (saw {stale_intervals} stale intervals)"
        );
        // Once the restarted coordinator's seq catches up, it is accepted.
        let caught_up = PlacementEpoch { term: 2, seq: 6 };
        assert_eq!(tb.nm.apply_placement(now, caught_up, &view), PlacementApplyOutcome::Applied);
        assert_eq!(tb.nm.last_epoch(), Some(caught_up));
        // A newer term always supersedes, whatever its seq.
        let new_term = PlacementEpoch { term: 3, seq: 1 };
        assert_eq!(tb.nm.apply_placement(now, new_term, &view), PlacementApplyOutcome::Applied);
    }

    #[test]
    fn staleness_is_bounded_without_updates() {
        // Twelve intervals with an update applied each time, then updates
        // cut off: the manager rides its cache (stale but deciding) for
        // MAX_PLACEMENT_STALENESS intervals, then stops deciding entirely.
        let mut tb = testbed((10.0, 1.0));
        tb.run(3);
        tb.start_antagonist();
        tb.run(9);
        tb.nm.set_observed(true);
        let mut report = StepReport::default();
        let interval = SimDuration::from_secs(5.0);
        let mut decided_while_stale = 0;
        let mut refused = 0;
        for staleness in 1..=(NodeManager::MAX_PLACEMENT_STALENESS + 4) {
            for _ in 0..50 {
                tb.server.tick(DT);
            }
            tb.now += interval;
            tb.nm.step_synced(tb.now, &mut tb.server, false, &mut report);
            assert!(report.placement_stale);
            // Each stale step reports its staleness; a deciding one also
            // caps the antagonist, a refusing one does nothing more.
            let stale = FlightEvent::PlacementStale { server: 0, staleness };
            assert_eq!(report.events, [stale], "stale step {staleness}");
            if report.signal.is_some() {
                decided_while_stale += 1;
                assert_eq!(report.io_caps.len(), 1);
            } else {
                refused += 1;
                assert!(report.io_caps.is_empty());
            }
        }
        assert_eq!(decided_while_stale, NodeManager::MAX_PLACEMENT_STALENESS);
        assert!(refused >= 4, "past the limit the manager must refuse to decide");
        // A stalled interval does nothing at all.
        tb.nm.step_synced(tb.now + interval, &mut tb.server, true, &mut report);
        assert!(report.stalled && report.signal.is_none());
    }

    #[test]
    fn observing_fills_events_without_changing_decisions() {
        // Both agents tee, so their collectors are in play; only one is
        // observed and reports the collector events.
        let mut plain = testbed((10.0, 1.0));
        let mut observed = testbed((10.0, 1.0));
        plain.nm.enable_tee();
        observed.nm.enable_tee();
        observed.nm.set_observed(true);
        let mut ra = plain.run(3);
        let mut rb = observed.run(3);
        plain.start_antagonist();
        observed.start_antagonist();
        ra.extend(plain.run(10));
        rb.extend(observed.run(10));
        let without_events: Vec<StepReport> =
            rb.iter().map(|r| StepReport { events: Vec::new(), ..r.clone() }).collect();
        assert_eq!(ra, without_events, "observing must not change any decision");
        assert!(ra.iter().all(|r| r.events.is_empty()));
        // Every observed step flushes the six VMs' samples; one sample in
        // 64 is reported as ingested (the 1st and the 65th of 78).
        for r in &rb {
            assert_eq!(r.events[0], FlightEvent::FlushBatch { server: 0, count: 6 });
        }
        let ingested: Vec<&FlightEvent> = rb
            .iter()
            .flat_map(|r| &r.events[1..])
            .filter(|e| matches!(e, FlightEvent::SampleIngested { .. }))
            .collect();
        assert_eq!(ingested.len(), 2);
        // The first contended interval (t = 20 s) identifies and enrolls
        // the antagonist at the first cap (1 − β); later intervals only
        // step the cap, through the episode's end (t = 35 s).
        let first = &rb[3];
        assert!(rb[2].signal.is_some_and(|s| !s.io_contended));
        assert!(first.signal.is_some_and(|s| s.io_contended && !s.cpu_contended));
        assert_eq!(first.io_antagonists, [VmId(10)]);
        assert_eq!(first.io_enrolled, [VmId(10)]);
        assert_eq!(first.io_caps.len(), 1);
        assert!((first.io_caps[0].1 - 0.2).abs() < 1e-9);
        for r in &rb[4..7] {
            assert!(r.io_enrolled.is_empty());
            assert_eq!(r.io_caps.len(), 1);
        }
        assert!(rb[6].signal.is_some_and(|s| !s.io_contended));
    }

    #[test]
    fn crash_restart_and_release_reach_the_report() {
        let mut tb = testbed((10.0, 1.0));
        tb.nm.set_observed(true);
        tb.run(3);
        tb.start_antagonist();
        tb.run(10);
        let crash_at = tb.now + SimDuration::from_secs(5.0);
        let scenario = perfcloud_sim::FaultScenario::named("crash-once").rule(
            perfcloud_sim::FaultRule::new("crash", perfcloud_sim::FaultKind::CrashRestart)
                .window(crash_at, crash_at + SimDuration::from_secs(1.0)),
        );
        tb.nm.attach_faults(crate::chaos::NodeFaults::new(1, scenario, 0));
        // The crashed interval reports the restart and nothing else: the
        // caps it drops are not releases.
        let crashed = tb.run(1).pop().unwrap();
        assert_eq!(crashed, StepReport { restarted: true, ..StepReport::default() });
        // Deregistering the antagonist releases its cap with no cap update.
        let reports = tb.run(8);
        assert!(reports.last().unwrap().io_caps.iter().any(|&(vm, _)| vm == VmId(10)));
        tb.cloud.deregister(VmId(10));
        let released = tb.run(1).pop().unwrap();
        assert_eq!(released.io_released, [VmId(10)]);
        assert!(released.io_caps.is_empty() && released.events.is_empty());
    }

    #[test]
    fn releasing_every_cap_reports_the_releases() {
        // With every victim gone the server has no application to protect:
        // the manager takes all caps off and reports each one released.
        let mut tb = testbed((10.0, 1.0));
        tb.run(3);
        tb.start_antagonist();
        tb.run(10);
        assert!(tb.server.io_throttle(VmId(10)).unwrap().is_throttled());
        for &vm in &tb.victims {
            tb.cloud.deregister(vm);
        }
        let report = tb.run(1).pop().unwrap();
        assert!(!tb.server.io_throttle(VmId(10)).unwrap().is_throttled());
        assert_eq!(report.signal, None);
        assert_eq!(report.io_released, [VmId(10)]);
        assert!(report.cpu_released.is_empty() && report.io_caps.is_empty());
    }

    #[test]
    fn actuation_off_still_identifies_but_never_throttles() {
        let mut tb = testbed((10.0, 1.0));
        tb.nm.set_actuation(false);
        tb.run(3);
        tb.start_antagonist();
        let reports = tb.run(12);
        // The pipeline still runs end to end: detection and identification.
        assert!(reports.iter().any(|r| r.signal.is_some_and(|s| s.io_contended)));
        assert!(reports.iter().any(|r| r.io_antagonists.contains(&VmId(10))));
        // The verdict export mirrors the last report's antagonist lists.
        tb.start_antagonist(); // keep the signal hot for one more interval
        let last = tb.run(1).pop().unwrap();
        let exported: Vec<(VmId, Resource)> = tb.nm.identified().to_vec();
        let expect: Vec<(VmId, Resource)> = last
            .io_antagonists
            .iter()
            .map(|&vm| (vm, Resource::Io))
            .chain(last.cpu_antagonists.iter().map(|&vm| (vm, Resource::Cpu)))
            .collect();
        assert_eq!(exported, expect);
        // But nothing was ever actuated.
        assert!(reports.iter().all(|r| r.io_caps.is_empty() && r.cpu_caps.is_empty()));
        assert!(!tb.server.io_throttle(VmId(10)).unwrap().is_throttled());
        assert!(!tb.server.cpu_cap(VmId(10)).unwrap().is_capped());
    }

    #[test]
    fn antagonist_keeps_nonzero_throughput_under_control() {
        let mut tb = testbed((10.0, 1.0));
        tb.run(3);
        tb.start_antagonist();
        tb.run(20);
        let c = tb.server.counters(VmId(10)).unwrap().counters;
        assert!(c.io_serviced > 0.0, "throttled antagonist must still make progress");
        // And the victims must still be doing I/O too.
        for &vm in &tb.victims {
            assert!(tb.server.counters(vm).unwrap().counters.io_serviced > 0.0);
        }
    }
}
