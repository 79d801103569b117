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
use perfcloud_obs::{FlightEvent, FlightRecorder, SAMPLE_EVENT_DECIMATION};
use perfcloud_sim::SimTime;
use perfcloud_stats::TimeSeries;
use perfcloud_telemetry::{CounterSource, Sample, SimSource};
use std::collections::BTreeMap;

/// Maps the agent's resource dimension onto the obs crate's copy of it
/// (obs is dependency-free and cannot use [`Resource`] directly).
fn obs_resource(resource: Resource) -> perfcloud_obs::flight::Resource {
    match resource {
        Resource::Io => perfcloud_obs::flight::Resource::Io,
        Resource::Cpu => perfcloud_obs::flight::Resource::Cpu,
    }
}

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

/// What one node-manager step observed and did. The default is an interval
/// in which the manager took no action.
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
    io_controlled: BTreeMap<VmId, Controlled>,
    cpu_controlled: BTreeMap<VmId, Controlled>,
    io_cap_trace: BTreeMap<VmId, TimeSeries>,
    cpu_cap_trace: BTreeMap<VmId, TimeSeries>,
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
    /// Optional flight recorder; all hooks are a single branch when absent
    /// and record fixed-size `Copy` events when present (never allocating
    /// either way). Pure observation: attaching one changes no decision.
    flight: Option<FlightRecorder>,
    /// Whether the previous decision interval saw contention, so the
    /// recorder logs onset/clear *transitions* rather than every interval.
    was_contended: bool,
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
            io_controlled: BTreeMap::new(),
            cpu_controlled: BTreeMap::new(),
            io_cap_trace: BTreeMap::new(),
            cpu_cap_trace: BTreeMap::new(),
            faults: None,
            source: Box::new(SimSource::new()),
            sample_buf: Vec::new(),
            tee: None,
            collected: 0,
            flight: None,
            was_contended: false,
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

    /// Attaches a flight recorder retaining the last `capacity` agent
    /// events (detection onset/clear, antagonist identification, throttle
    /// and release, cap updates, crash/restart, placement staleness, and
    /// ingest rejections). All recorder storage is allocated here; the
    /// record path stays allocation-free.
    pub fn attach_flight(&mut self, capacity: usize) {
        self.flight = Some(FlightRecorder::with_capacity(capacity));
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
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

    /// Trace of normalized I/O caps applied to `vm` over time.
    pub fn io_cap_trace(&self, vm: VmId) -> Option<&TimeSeries> {
        self.io_cap_trace.get(&vm)
    }

    /// Trace of normalized CPU caps applied to `vm` over time.
    pub fn cpu_cap_trace(&self, vm: VmId) -> Option<&TimeSeries> {
        self.cpu_cap_trace.get(&vm)
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
        if let Some(faults) = self.faults.as_mut() {
            if faults.begin_interval(now) == ManagerFault::Crashed {
                self.crash_restart(now, server);
                report.restarted = true;
                return;
            }
        }
        if stalled {
            report.stalled = true;
            return;
        }

        // (1) Use the placement update that arrived this interval — or ride
        // the cached view up to the bounded-staleness limit.
        if !std::mem::take(&mut self.placement_fresh) {
            let limit = self.config.sample_interval.mul_f64(Self::MAX_PLACEMENT_STALENESS as f64);
            let fresh_enough =
                self.cache_fetched.is_some_and(|fetched| now.saturating_since(fetched) <= limit);
            if let Some(fl) = self.flight.as_mut() {
                let staleness = match self.cache_fetched {
                    Some(fetched) => {
                        (now.saturating_since(fetched).as_micros()
                            / self.config.sample_interval.as_micros())
                            as u32
                    }
                    None => u32::MAX,
                };
                fl.record(
                    now.as_micros(),
                    FlightEvent::PlacementStale { server: server.id.0, staleness },
                );
            }
            if !fresh_enough {
                // The cached view is too old to act on safely. Keep the
                // metric windows warm but make no control decisions.
                self.sample(now, server);
                report.placement_stale = true;
                return;
            }
            report.placement_stale = true;
        }

        // (2) Sample all VMs (through the fault filter, when attached).
        self.sample(now, server);

        // Decide on the cached view moved out of `self`, so the decision
        // path can borrow the manager mutably; moving a `Placement` swaps
        // pointers, it does not copy or allocate.
        let placement = std::mem::take(&mut self.placement_cache);
        self.decide(now, server, &placement, report);
        self.placement_cache = placement;
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
            // Nothing to protect on this server; release any leftover caps.
            self.release_all(server);
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

        // Flight: detection transitions and newly identified antagonists
        // (ones not yet under control — enrollment records the throttle).
        if let Some(fl) = self.flight.as_mut() {
            let t = now.as_micros();
            let contended = signal.io_contended || signal.cpu_contended;
            if contended && !self.was_contended {
                fl.record(
                    t,
                    FlightEvent::DetectOnset {
                        server: server.id.0,
                        io: signal.io_contended,
                        cpu: signal.cpu_contended,
                    },
                );
            } else if !contended && self.was_contended {
                fl.record(t, FlightEvent::DetectClear { server: server.id.0 });
            }
            self.was_contended = contended;
            for &vm in report.io_antagonists.iter() {
                if !self.io_controlled.contains_key(&vm) {
                    fl.record(
                        t,
                        FlightEvent::AntagonistIdentified {
                            server: server.id.0,
                            vm: u64::from(vm.0),
                            resource: perfcloud_obs::flight::Resource::Io,
                        },
                    );
                }
            }
            for &vm in report.cpu_antagonists.iter() {
                if !self.cpu_controlled.contains_key(&vm) {
                    fl.record(
                        t,
                        FlightEvent::AntagonistIdentified {
                            server: server.id.0,
                            vm: u64::from(vm.0),
                            resource: perfcloud_obs::flight::Resource::Cpu,
                        },
                    );
                }
            }
        }

        // (5) Control modules.
        self.control(
            Resource::Io,
            signal.io_contended,
            &report.io_antagonists,
            &placement.suspects,
            server,
            now,
            &mut report.io_caps,
        );
        self.control(
            Resource::Cpu,
            signal.cpu_contended,
            &report.cpu_antagonists,
            &placement.suspects,
            server,
            now,
            &mut report.cpu_caps,
        );

        report.signal = Some(signal);
    }

    /// Samples all VMs: collect from the configured [`CounterSource`], tee
    /// the raw batch if a recording is active, then ingest through the
    /// fault filter when one is attached.
    fn sample(&mut self, now: SimTime, server: &PhysicalServer) {
        self.sample_buf.clear();
        self.source.collect_into(now, server, &mut self.sample_buf);
        if let Some(tee) = self.tee.as_mut() {
            tee.extend_from_slice(&self.sample_buf);
        }
        // Collector flight events are gated on telemetry actually being in
        // play (a tee or a non-sim source) so the default simulated path
        // emits byte-identical flight traces to before this seam existed.
        let telemetry_active = self.tee.is_some() || !self.source.is_sim();
        if telemetry_active {
            if let Some(fl) = self.flight.as_mut() {
                let t = now.as_micros();
                fl.record(
                    t,
                    FlightEvent::FlushBatch {
                        server: server.id.0,
                        count: self.sample_buf.len() as u64,
                    },
                );
                for s in &self.sample_buf {
                    if self.collected.is_multiple_of(SAMPLE_EVENT_DECIMATION) {
                        fl.record(
                            t,
                            FlightEvent::SampleIngested {
                                server: server.id.0,
                                vm: u64::from(s.vm.0),
                            },
                        );
                    }
                    self.collected += 1;
                }
            } else {
                self.collected += self.sample_buf.len() as u64;
            }
        }
        match self.faults.as_mut() {
            Some(faults) => faults.sample(
                now,
                self.config.sample_interval,
                &mut self.monitor,
                &self.sample_buf,
                self.flight.as_mut(),
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
    fn crash_restart(&mut self, now: SimTime, server: &mut PhysicalServer) {
        if let Some(fl) = self.flight.as_mut() {
            fl.record(now.as_micros(), FlightEvent::ManagerRestart { server: server.id.0 });
        }
        self.was_contended = false;
        self.monitor = PerformanceMonitor::new(&self.config);
        self.detector.reset();
        self.identifier.reset();
        self.io_controlled.clear();
        self.cpu_controlled.clear();
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

    #[allow(clippy::too_many_arguments)]
    fn control(
        &mut self,
        resource: Resource,
        contended: bool,
        antagonists: &[VmId],
        suspects: &[VmId],
        server: &mut PhysicalServer,
        now: SimTime,
        applied: &mut Vec<(VmId, f64)>,
    ) {
        applied.clear();
        let sid = server.id.0;
        let mut flight = self.flight.as_mut();
        // Drop control state for VMs that left the suspect set. One that is
        // still hosted here (deregistered or promoted in the cloud manager)
        // must have its cap released — nothing else will ever do it; one
        // that migrated keeps its caps, which travel with the hypervisor.
        {
            let departed = &mut self.departed;
            let controlled = match resource {
                Resource::Io => &mut self.io_controlled,
                Resource::Cpu => &mut self.cpu_controlled,
            };
            departed.clear();
            departed.extend(controlled.keys().filter(|vm| !suspects.contains(vm)).copied());
            for &vm in departed.iter() {
                controlled.remove(&vm);
                if server.hosts(vm) {
                    match resource {
                        Resource::Io => server.set_io_throttle(vm, IoThrottle::unlimited()),
                        Resource::Cpu => server.set_cpu_cap(vm, CpuCap::unlimited()),
                    }
                    if let Some(fl) = flight.as_deref_mut() {
                        fl.record(
                            now.as_micros(),
                            FlightEvent::Release { server: sid, vm: u64::from(vm.0) },
                        );
                    }
                }
            }
        }
        // Enroll newly identified antagonists while contention persists —
        // unless actuation is off (migrate-only mode), in which case the
        // verdicts are exported but no cap is ever applied.
        if contended && self.actuation {
            for &vm in antagonists {
                let already = match resource {
                    Resource::Io => self.io_controlled.contains_key(&vm),
                    Resource::Cpu => self.cpu_controlled.contains_key(&vm),
                };
                if already {
                    continue;
                }
                let ref_iops = self
                    .monitor
                    .latest_present(vm, VmMetricKind::IoIops)
                    .unwrap_or(0.0)
                    .max(MIN_REF_IOPS);
                let ref_bps = self
                    .monitor
                    .latest_present(vm, VmMetricKind::IoBps)
                    .unwrap_or(0.0)
                    .max(MIN_REF_BPS);
                let ref_cores = self
                    .monitor
                    .latest_present(vm, VmMetricKind::CpuCores)
                    .unwrap_or(0.0)
                    .max(MIN_REF_CORES);
                let c = Controlled { state: CubicState::new(), ref_iops, ref_bps, ref_cores };
                match resource {
                    Resource::Io => self.io_controlled.insert(vm, c),
                    Resource::Cpu => self.cpu_controlled.insert(vm, c),
                };
                if let Some(fl) = flight.as_deref_mut() {
                    fl.record(
                        now.as_micros(),
                        FlightEvent::Throttle {
                            server: sid,
                            vm: u64::from(vm.0),
                            resource: obs_resource(resource),
                        },
                    );
                }
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
        let controlled = match resource {
            Resource::Io => &mut self.io_controlled,
            Resource::Cpu => &mut self.cpu_controlled,
        };
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
            if let Some(fl) = flight.as_deref_mut() {
                fl.record(
                    now.as_micros(),
                    FlightEvent::CapUpdate {
                        server: sid,
                        vm: u64::from(vm.0),
                        resource: obs_resource(resource),
                        level: cap,
                    },
                );
            }
        }

        // Trace the applied caps for the Fig. 10 harness.
        let trace = match resource {
            Resource::Io => &mut self.io_cap_trace,
            Resource::Cpu => &mut self.cpu_cap_trace,
        };
        for &(vm, cap) in applied.iter() {
            let series = trace.entry(vm).or_default();
            series.push(now, Some(cap));
            series.retain_last(4096);
        }
    }

    fn release_all(&mut self, server: &mut PhysicalServer) {
        for (&vm, _) in self.io_controlled.iter() {
            server.set_io_throttle(vm, IoThrottle::unlimited());
        }
        for (&vm, _) in self.cpu_controlled.iter() {
            server.set_cpu_cap(vm, CpuCap::unlimited());
        }
        self.io_controlled.clear();
        self.cpu_controlled.clear();
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
        assert!(tb.nm.io_cap_trace(VmId(10)).is_some());
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
        tb.run(30);
        let trace = tb.nm.io_cap_trace(VmId(10)).expect("trace exists");
        let caps: Vec<f64> = trace.values().iter().filter_map(|v| *v).collect();
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
        let mut report = StepReport::default();
        let interval = SimDuration::from_secs(5.0);
        let mut decided_while_stale = 0;
        let mut refused = 0;
        for _ in 0..(NodeManager::MAX_PLACEMENT_STALENESS + 4) {
            for _ in 0..50 {
                tb.server.tick(DT);
            }
            tb.now += interval;
            tb.nm.step_synced(tb.now, &mut tb.server, false, &mut report);
            assert!(report.placement_stale);
            if report.signal.is_some() {
                decided_while_stale += 1;
            } else {
                refused += 1;
            }
        }
        assert_eq!(decided_while_stale, NodeManager::MAX_PLACEMENT_STALENESS);
        assert!(refused >= 4, "past the limit the manager must refuse to decide");
        // A stalled interval does nothing at all.
        tb.nm.step_synced(tb.now + interval, &mut tb.server, true, &mut report);
        assert!(report.stalled && report.signal.is_none());
    }

    #[test]
    fn flight_recorder_captures_agent_events_without_changing_decisions() {
        let mut plain = testbed((10.0, 1.0));
        let mut observed = testbed((10.0, 1.0));
        observed.nm.attach_flight(512);
        plain.run(3);
        observed.run(3);
        plain.start_antagonist();
        observed.start_antagonist();
        let ra = plain.run(10);
        let rb = observed.run(10);
        assert_eq!(ra, rb, "attaching a flight recorder must not change any decision");
        let fl = observed.nm.flight().expect("recorder attached");
        assert!(fl.total_recorded() > 0);
        let has = |pred: fn(&FlightEvent) -> bool| fl.iter().any(|r| pred(&r.event));
        assert!(has(|e| matches!(e, FlightEvent::DetectOnset { io: true, .. })));
        assert!(has(|e| matches!(e, FlightEvent::AntagonistIdentified { vm: 10, .. })));
        assert!(has(|e| matches!(e, FlightEvent::Throttle { vm: 10, .. })));
        assert!(has(|e| matches!(e, FlightEvent::CapUpdate { vm: 10, .. })));
        // Events come out time-ordered with contiguous sequence numbers.
        let recs: Vec<_> = fl.iter().collect();
        assert!(recs.windows(2).all(|w| w[0].t <= w[1].t && w[0].seq + 1 == w[1].seq));
    }

    #[test]
    fn flight_recorder_captures_crash_restart_and_release() {
        let mut tb = testbed((10.0, 1.0));
        tb.nm.attach_flight(256);
        tb.run(3);
        tb.start_antagonist();
        tb.run(10);
        let crash_at = tb.now + SimDuration::from_secs(5.0);
        let scenario = perfcloud_sim::FaultScenario::named("crash-once").rule(
            perfcloud_sim::FaultRule::new("crash", perfcloud_sim::FaultKind::CrashRestart)
                .window(crash_at, crash_at + SimDuration::from_secs(1.0)),
        );
        tb.nm.attach_faults(crate::chaos::NodeFaults::new(1, scenario, 0));
        tb.run(1);
        let fl = tb.nm.flight().unwrap();
        assert!(fl.iter().any(|r| matches!(r.event, FlightEvent::ManagerRestart { server: 0 })));
        // Deregistering the antagonist must log the cap release.
        tb.run(8);
        tb.cloud.deregister(VmId(10));
        tb.run(1);
        let fl = tb.nm.flight().unwrap();
        assert!(fl.iter().any(|r| matches!(r.event, FlightEvent::Release { vm: 10, .. })));
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
