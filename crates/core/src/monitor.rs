//! The performance monitor (§III-D.1).
//!
//! Every sampling interval (5 s in the paper) the monitor reads each VM's
//! cumulative counters from the hypervisor, computes delta-derived interval
//! metrics, smooths them with an EWMA, and appends them as one row to the
//! VM's series ring (one shared timestamp, six values). Metrics with no
//! activity in the interval are recorded as missing (`None`): the
//! block-iowait ratio is undefined with no serviced I/O, and "LLC miss
//! rates are not counted when the VMs are not running any workload".

use crate::config::PerfCloudConfig;
use perfcloud_host::counters::IntervalMetrics;
use perfcloud_host::{CounterSnapshot, PhysicalServer, VmId};
use perfcloud_sim::SimTime;
use perfcloud_stats::{Ewma, SeriesRing, SeriesView};
use std::collections::BTreeMap;

/// The per-VM metrics the monitor maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VmMetricKind {
    /// Block iowait ratio, ms per op (victim detection signal).
    IowaitRatio,
    /// Cycles per instruction (victim detection signal).
    Cpi,
    /// LLC miss rate (suspect correlation signal).
    LlcMissRate,
    /// I/O throughput, bytes/s (suspect correlation signal).
    IoBps,
    /// I/O throughput, ops/s (cap reference).
    IoIops,
    /// CPU usage, cores (cap reference).
    CpuCores,
}

impl VmMetricKind {
    /// All metric kinds, in declaration (and `Ord`) order.
    pub const ALL: [VmMetricKind; 6] = [
        VmMetricKind::IowaitRatio,
        VmMetricKind::Cpi,
        VmMetricKind::LlcMissRate,
        VmMetricKind::IoBps,
        VmMetricKind::IoIops,
        VmMetricKind::CpuCores,
    ];

    /// Position in [`Self::ALL`]: the slot of this kind's per-VM state and
    /// its column in the VM's series ring.
    fn index(self) -> usize {
        self as usize
    }
}

/// What the monitor did with one delivered snapshot — the graceful-
/// degradation contract the fault layer exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// First snapshot for this VM: establishes the delta baseline only.
    Baseline,
    /// Metrics were derived and recorded.
    Recorded,
    /// Rejected: the snapshot's timestamp is older than state already held
    /// (a delayed delivery overtaken by fresher samples).
    Stale,
    /// Rejected: a snapshot for this instant was already ingested.
    Duplicate,
    /// Rejected: the cumulative counters ran backwards relative to the
    /// held baseline (a late pre-baseline delivery, or a counter reset);
    /// computing the delta would go negative.
    CounterRegression,
}

/// Running totals of every [`IngestOutcome`] a monitor has produced.
/// Previously the rejection outcomes were dropped silently; these counts
/// feed the obs counters and experiment summaries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Baseline-establishing first samples.
    pub baselines: u64,
    /// Samples that produced recorded metrics.
    pub recorded: u64,
    /// Timestamp-stale rejections.
    pub stale: u64,
    /// Duplicate-instant rejections.
    pub duplicates: u64,
    /// Counter-regression rejections.
    pub regressions: u64,
}

impl IngestStats {
    /// Total rejected deliveries.
    pub fn rejected(&self) -> u64 {
        self.stale + self.duplicates + self.regressions
    }

    /// Element-wise sum, for aggregating across node managers.
    pub fn merge(&mut self, other: &IngestStats) {
        self.baselines += other.baselines;
        self.recorded += other.recorded;
        self.stale += other.stale;
        self.duplicates += other.duplicates;
        self.regressions += other.regressions;
    }
}

/// One VM's monitor state. The EWMA slots and the ring's columns are
/// indexed by [`VmMetricKind::index`]; a column the ring has never
/// recorded is a kind never recorded.
#[derive(Debug, Clone)]
struct VmMonitorState {
    prev: Option<CounterSnapshot>,
    last_ingest: Option<SimTime>,
    ewma: [Option<Ewma>; 6],
    series: SeriesRing<6>,
}

impl VmMonitorState {
    fn new(retain: usize) -> Self {
        VmMonitorState {
            prev: None,
            last_ingest: None,
            ewma: [None; 6],
            series: SeriesRing::new(retain),
        }
    }

    /// Smooths one raw reading of `kind`. A corrupted non-finite reading is
    /// recorded as missing: it must not enter the EWMA (which would hold it
    /// forever) or the series.
    fn smooth(&mut self, alpha: f64, kind: VmMetricKind, raw: Option<f64>) -> Option<f64> {
        let x = raw.filter(|v| v.is_finite())?;
        let e = self.ewma[kind.index()].get_or_insert_with(|| Ewma::new(alpha));
        Some(e.update(x))
    }
}

/// Samples and retains smoothed per-VM metric series for one server.
#[derive(Debug, Clone)]
pub struct PerformanceMonitor {
    alpha: f64,
    retain: usize,
    vms: BTreeMap<VmId, VmMonitorState>,
    stats: IngestStats,
}

impl PerformanceMonitor {
    /// Creates a monitor with the pipeline configuration.
    pub fn new(config: &PerfCloudConfig) -> Self {
        config.validate();
        PerformanceMonitor {
            alpha: config.ewma_alpha,
            // Keep an ample multiple of the correlation window.
            retain: (config.corr_window * 8).max(64),
            vms: BTreeMap::new(),
            stats: IngestStats::default(),
        }
    }

    /// Running outcome totals across every delivery this monitor has seen.
    pub fn ingest_stats(&self) -> IngestStats {
        self.stats
    }

    /// Samples every VM on `server` at time `now` — one batched pass over
    /// the server's snapshots in boot order, allocation-free in steady
    /// state. The first sample of a VM only establishes its baseline
    /// snapshot (no series point).
    pub fn sample(&mut self, now: SimTime, server: &PhysicalServer) {
        for (vm, snap) in server.snapshots() {
            self.ingest(now, vm, snap);
        }
    }

    /// Ingests one VM snapshot delivered at `now` (the per-VM unit `sample`
    /// iterates; the fault layer calls it directly to drop, delay, duplicate
    /// or corrupt individual deliveries).
    pub fn ingest(&mut self, now: SimTime, vm: VmId, snap: CounterSnapshot) -> IngestOutcome {
        self.ingest_tweaked(now, vm, snap, |_, raw| raw)
    }

    /// [`Self::ingest`] with a hook that may rewrite each raw metric value
    /// before smoothing — the corruption point for NaN/spike/stuck-at
    /// faults. Returning `None` records the metric as missing.
    pub fn ingest_tweaked(
        &mut self,
        now: SimTime,
        vm: VmId,
        snap: CounterSnapshot,
        tweak: impl FnMut(VmMetricKind, Option<f64>) -> Option<f64>,
    ) -> IngestOutcome {
        let outcome = self.ingest_inner(now, vm, snap, tweak);
        match outcome {
            IngestOutcome::Baseline => self.stats.baselines += 1,
            IngestOutcome::Recorded => self.stats.recorded += 1,
            IngestOutcome::Stale => self.stats.stale += 1,
            IngestOutcome::Duplicate => self.stats.duplicates += 1,
            IngestOutcome::CounterRegression => self.stats.regressions += 1,
        }
        outcome
    }

    fn ingest_inner(
        &mut self,
        now: SimTime,
        vm: VmId,
        snap: CounterSnapshot,
        mut tweak: impl FnMut(VmMetricKind, Option<f64>) -> Option<f64>,
    ) -> IngestOutcome {
        let interval_guess = 5.0; // replaced below by the actual delta time
        let (alpha, retain) = (self.alpha, self.retain);
        let state = self.vms.entry(vm).or_insert_with(|| VmMonitorState::new(retain));
        if let Some(last) = state.last_ingest {
            if now == last {
                return IngestOutcome::Duplicate;
            }
            if now < last {
                return IngestOutcome::Stale;
            }
        }
        let outcome = match state.prev {
            Some(prev) => {
                if snap.regressed_since(&prev) {
                    // A late delivery of a pre-baseline snapshot; computing
                    // its delta would go negative. Reject, keep state as-is.
                    return IngestOutcome::CounterRegression;
                }
                let delta = prev.delta_to(&snap);
                // Interval length: derive from the previous row's timestamp
                // if any.
                let interval = state
                    .series
                    .last_time()
                    .map(|t| now.saturating_since(t).as_secs_f64())
                    .filter(|&s| s > 0.0)
                    .unwrap_or(interval_guess);
                let m = IntervalMetrics::from_delta(&delta, interval);
                let raw = [
                    m.iowait_ratio_ms,
                    m.cpi,
                    m.llc_miss_rate,
                    Some(m.io_bps),
                    Some(m.io_iops),
                    Some(m.cpu_cores),
                ];
                let mut row = [None; 6];
                for ((kind, raw), slot) in VmMetricKind::ALL.into_iter().zip(raw).zip(&mut row) {
                    *slot = state.smooth(alpha, kind, tweak(kind, raw));
                }
                state.series.push(now, row);
                IngestOutcome::Recorded
            }
            None => IngestOutcome::Baseline,
        };
        state.prev = Some(snap);
        state.last_ingest = Some(now);
        outcome
    }

    /// The last snapshot successfully ingested for `vm` (the baseline for
    /// its next delta). The fault layer uses it to re-deliver duplicates.
    pub fn previous_snapshot(&self, vm: VmId) -> Option<CounterSnapshot> {
        self.vms.get(&vm)?.prev
    }

    /// Writes a raw (unsmoothed) point of one kind to a VM's series — a
    /// test hook for driving the identifier with exactly known values. A
    /// push at the VM's newest row time fills `kind` in that row; a later
    /// `now` opens a row whose other kinds are missing. Push a VM's kinds
    /// at shared timestamps.
    #[doc(hidden)]
    pub fn push_synthetic(
        &mut self,
        vm: VmId,
        kind: VmMetricKind,
        now: SimTime,
        value: Option<f64>,
    ) {
        let retain = self.retain;
        let state = self.vms.entry(vm).or_insert_with(|| VmMonitorState::new(retain));
        state.series.set(now, kind.index(), value);
    }

    /// The smoothed series of `kind` for `vm`, if any samples exist.
    pub fn series(&self, vm: VmId, kind: VmMetricKind) -> Option<SeriesView<'_>> {
        let series = &self.vms.get(&vm)?.series;
        series.recorded(kind.index()).then(|| series.column(kind.index()))
    }

    /// Latest smoothed value of `kind` for `vm` (missing samples yield
    /// `None`).
    pub fn latest(&self, vm: VmId, kind: VmMetricKind) -> Option<f64> {
        self.series(vm, kind)?.last()?.1
    }

    /// Latest *present* smoothed value, looking back past missing samples.
    pub fn latest_present(&self, vm: VmId, kind: VmMetricKind) -> Option<f64> {
        self.series(vm, kind)?.last_present().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcloud_host::{ServerConfig, ServerId, VmConfig};
    use perfcloud_sim::{RngFactory, SimDuration};
    use perfcloud_workloads::FioRandRead;

    const DT: SimDuration = SimDuration::from_micros(100_000);

    fn busy_server() -> PhysicalServer {
        let mut s =
            PhysicalServer::new(ServerId(0), ServerConfig::default(), RngFactory::new(5), DT);
        s.add_vm(VmId(0), VmConfig::high_priority());
        s.spawn(VmId(0), Box::new(FioRandRead::with_rate(1000.0, 4096.0, None)));
        s.add_vm(VmId(1), VmConfig::low_priority());
        s
    }

    fn sample_after(
        monitor: &mut PerformanceMonitor,
        server: &mut PhysicalServer,
        now: &mut SimTime,
    ) {
        for _ in 0..50 {
            server.tick(DT);
        }
        *now += SimDuration::from_secs(5.0);
        monitor.sample(*now, server);
    }

    #[test]
    fn first_sample_is_baseline_only() {
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        mon.sample(SimTime::from_secs(5), &server);
        assert!(mon.series(VmId(0), VmMetricKind::IoBps).is_none());
        for _ in 0..50 {
            server.tick(DT);
        }
        mon.sample(SimTime::from_secs(10), &server);
        let s = mon.series(VmId(0), VmMetricKind::IoBps).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.last().unwrap().1.unwrap() > 0.0);
    }

    #[test]
    fn active_vm_has_iowait_and_cpi() {
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        let mut now = SimTime::ZERO;
        mon.sample(now, &server);
        for _ in 0..3 {
            sample_after(&mut mon, &mut server, &mut now);
        }
        assert!(mon.latest(VmId(0), VmMetricKind::IowaitRatio).unwrap() > 0.0);
        assert!(mon.latest(VmId(0), VmMetricKind::Cpi).unwrap() > 0.0);
        assert!(mon.latest(VmId(0), VmMetricKind::IoIops).unwrap() > 0.0);
    }

    #[test]
    fn idle_vm_metrics_are_missing_not_zero() {
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        let mut now = SimTime::ZERO;
        mon.sample(now, &server);
        sample_after(&mut mon, &mut server, &mut now);
        // VM 1 runs nothing: ratio/CPI/LLC are missing, throughputs are 0.
        assert_eq!(mon.latest(VmId(1), VmMetricKind::IowaitRatio), None);
        assert_eq!(mon.latest(VmId(1), VmMetricKind::Cpi), None);
        assert_eq!(mon.latest(VmId(1), VmMetricKind::LlcMissRate), None);
        assert_eq!(mon.latest(VmId(1), VmMetricKind::IoBps), Some(0.0));
        assert_eq!(mon.latest(VmId(1), VmMetricKind::CpuCores), Some(0.0));
    }

    #[test]
    fn ewma_smooths_spikes() {
        // Alternate busy/idle intervals; smoothed IoBps must move gradually.
        let mut server = busy_server();
        let cfg = PerfCloudConfig { ewma_alpha: 0.3, ..Default::default() };
        let mut mon = PerformanceMonitor::new(&cfg);
        let mut now = SimTime::ZERO;
        mon.sample(now, &server);
        sample_after(&mut mon, &mut server, &mut now);
        let v1 = mon.latest(VmId(0), VmMetricKind::IoBps).unwrap();
        // Next interval: no ticking (no I/O activity) -> raw value 0.
        now += SimDuration::from_secs(5.0);
        mon.sample(now, &server);
        let v2 = mon.latest(VmId(0), VmMetricKind::IoBps).unwrap();
        assert!(v2 > 0.0, "EWMA must not jump straight to zero");
        assert!(v2 < v1);
        assert!((v2 - 0.7 * v1).abs() < 0.01 * v1, "alpha=0.3: v2 = 0.7*v1");
    }

    #[test]
    fn series_are_retained_with_bounded_length() {
        let mut server = busy_server();
        let cfg = PerfCloudConfig { corr_window: 8, ..Default::default() };
        let mut mon = PerformanceMonitor::new(&cfg);
        let mut now = SimTime::ZERO;
        mon.sample(now, &server);
        for _ in 0..100 {
            now += SimDuration::from_secs(5.0);
            server.tick(DT);
            mon.sample(now, &server);
        }
        let len = mon.series(VmId(0), VmMetricKind::CpuCores).unwrap().len();
        assert_eq!(len, 64);
    }

    #[test]
    fn duplicate_and_stale_deliveries_are_rejected() {
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        let t0 = SimTime::from_secs(5);
        let snap0 = server.counters(VmId(0)).unwrap();
        assert_eq!(mon.ingest(t0, VmId(0), snap0), IngestOutcome::Baseline);
        for _ in 0..50 {
            server.tick(DT);
        }
        let t1 = SimTime::from_secs(10);
        let snap1 = server.counters(VmId(0)).unwrap();
        assert_eq!(mon.ingest(t1, VmId(0), snap1), IngestOutcome::Recorded);
        // Re-delivery at the same instant: rejected, series unchanged.
        assert_eq!(mon.ingest(t1, VmId(0), snap1), IngestOutcome::Duplicate);
        // A delivery from the past: rejected on timestamp alone.
        assert_eq!(mon.ingest(t0, VmId(0), snap1), IngestOutcome::Stale);
        // A later-timestamped delivery of regressed counters: rejected as a
        // counter regression (distinguished from timestamp staleness).
        assert_eq!(
            mon.ingest(SimTime::from_secs(15), VmId(0), snap0),
            IngestOutcome::CounterRegression
        );
        assert_eq!(mon.series(VmId(0), VmMetricKind::IoBps).unwrap().len(), 1);
        // The pipeline recovers with the next good delivery.
        for _ in 0..50 {
            server.tick(DT);
        }
        let snap2 = server.counters(VmId(0)).unwrap();
        assert_eq!(mon.ingest(SimTime::from_secs(20), VmId(0), snap2), IngestOutcome::Recorded);
        // Every outcome above was tallied, including the rejections that
        // used to vanish silently.
        let stats = mon.ingest_stats();
        assert_eq!(stats.baselines, 1);
        assert_eq!(stats.recorded, 2);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.regressions, 1);
        assert_eq!(stats.rejected(), 3);
    }

    #[test]
    fn tweaked_nan_is_recorded_as_missing() {
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        let mut now = SimTime::ZERO;
        mon.sample(now, &server);
        sample_after(&mut mon, &mut server, &mut now);
        let before = mon.latest_present(VmId(0), VmMetricKind::IowaitRatio).unwrap();
        for _ in 0..50 {
            server.tick(DT);
        }
        now += SimDuration::from_secs(5.0);
        let snap = server.counters(VmId(0)).unwrap();
        let outcome = mon.ingest_tweaked(now, VmId(0), snap, |kind, raw| {
            if kind == VmMetricKind::IowaitRatio {
                Some(f64::NAN)
            } else {
                raw
            }
        });
        assert_eq!(outcome, IngestOutcome::Recorded);
        // NaN became a missing sample; the EWMA held its previous state.
        assert_eq!(mon.latest(VmId(0), VmMetricKind::IowaitRatio), None);
        assert_eq!(mon.latest_present(VmId(0), VmMetricKind::IowaitRatio), Some(before));
        // Other metrics in the same delivery were unaffected.
        assert!(mon.latest(VmId(0), VmMetricKind::IoBps).unwrap() > 0.0);
    }

    #[test]
    fn duplicate_snapshot_content_yields_missing_metrics() {
        // The duplicate *fault* re-delivers the previous snapshot content at
        // a fresh timestamp: zero delta => iowait/CPI missing, rates zero.
        let mut server = busy_server();
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        let mut now = SimTime::ZERO;
        mon.sample(now, &server);
        sample_after(&mut mon, &mut server, &mut now);
        let prev = mon.previous_snapshot(VmId(0)).unwrap();
        now += SimDuration::from_secs(5.0);
        assert_eq!(mon.ingest(now, VmId(0), prev), IngestOutcome::Recorded);
        assert_eq!(mon.latest(VmId(0), VmMetricKind::IowaitRatio), None);
        assert_eq!(mon.latest(VmId(0), VmMetricKind::Cpi), None);
    }
}
