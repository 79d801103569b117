//! Antagonist identification by online cross-correlation (§III-B).
//!
//! The identifier keeps the victim application's deviation time series (one
//! per resource dimension) and correlates its sliding window against each
//! low-priority VM's resource-usage series: **I/O throughput** for disk
//! contention, **LLC miss rate** for processor contention. Pearson
//! correlation ≥ 0.8 marks a suspect as an antagonist; missing suspect
//! samples count as zero, so a VM that was idle while the victim suffered is
//! (correctly) exonerated rather than judged on two data points.

use crate::config::PerfCloudConfig;
use crate::monitor::{PerformanceMonitor, VmMetricKind};
use crate::pipeline::Identifier;
use perfcloud_host::VmId;
use perfcloud_sim::SimTime;
use perfcloud_stats::timeseries::align_tail;
use perfcloud_stats::{RollingPearson, SeriesRing, SeriesView};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

pub use perfcloud_obs::flight::Resource;

/// The suspect-side metric `resource` is correlated on: I/O throughput
/// against the block-iowait deviation, LLC misses against the CPI
/// deviation.
pub fn suspect_metric(resource: Resource) -> VmMetricKind {
    match resource {
        Resource::Io => VmMetricKind::IoBps,
        Resource::Cpu => VmMetricKind::LlcMissRate,
    }
}

/// Maintains victim deviation series and identifies antagonists.
///
/// Correlation state is **incremental**: one [`RollingPearson`] window per
/// (suspect, resource) is advanced by a single O(1) push per sampling
/// interval in [`observe`](Self::observe), so [`correlation`] and
/// [`identify`] are constant-time reads instead of re-aligning and
/// re-summing the full window per suspect per tick.
///
/// [`correlation`]: Self::correlation
/// [`identify`]: Self::identify
#[derive(Debug, Clone)]
pub struct AntagonistIdentifier {
    corr_threshold: f64,
    window: usize,
    min_samples: usize,
    max_lag: usize,
    /// The victim's I/O (column 0) and CPI (column 1) deviations, one row
    /// per interval.
    deviations: SeriesRing<2>,
    io_windows: BTreeMap<VmId, RollingPearson>,
    cpu_windows: BTreeMap<VmId, RollingPearson>,
}

impl AntagonistIdentifier {
    /// Creates an identifier with the pipeline configuration.
    pub fn new(config: &PerfCloudConfig) -> Self {
        config.validate();
        AntagonistIdentifier {
            corr_threshold: config.corr_threshold,
            window: config.corr_window,
            min_samples: config.min_corr_samples,
            max_lag: config.corr_max_lag,
            deviations: SeriesRing::new(config.corr_window * 8),
            io_windows: BTreeMap::new(),
            cpu_windows: BTreeMap::new(),
        }
    }

    fn advance(
        &mut self,
        resource: Resource,
        dev: Option<f64>,
        monitor: &PerformanceMonitor,
        suspects: &[VmId],
    ) {
        let window = self.window;
        let dev_series = self.deviations.column(resource as usize);
        let windows = match resource {
            Resource::Io => &mut self.io_windows,
            Resource::Cpu => &mut self.cpu_windows,
        };
        // Suspects that left this server (migration, teardown) stop
        // accumulating evidence; their windows go with them.
        windows.retain(|vm, _| suspects.contains(vm));
        let metric = suspect_metric(resource);
        for &vm in suspects {
            // No usage series at all (the monitor has never seen the VM)
            // means no evidence either way — leave no window behind, so
            // `correlation` keeps answering `None` for unknown suspects.
            let Some(usage) = monitor.series(vm, metric) else {
                continue;
            };
            match windows.entry(vm) {
                Entry::Occupied(mut e) => {
                    let sample = usage.last().and_then(|(_, v)| v);
                    e.get_mut().push(dev, sample);
                }
                Entry::Vacant(slot) => {
                    // A suspect (re)entering the suspect set starts with its
                    // full retained history — both series keep `window * 8`
                    // ticks — so identification is as fast as the batch path
                    // that re-aligned at every read. The current tick is
                    // already in both series, so no extra push here. O(window)
                    // once on entry; O(1) every tick after.
                    let (mut x, mut y) = (Vec::new(), Vec::new());
                    align_tail(dev_series, usage, window, &mut x, &mut y);
                    let mut rp = RollingPearson::new(window);
                    for (v, s) in x.into_iter().zip(y) {
                        rp.push(v, s);
                    }
                    slot.insert(rp);
                }
            }
        }
    }

    /// Number of live correlation windows for `resource` — one per suspect
    /// currently accumulating evidence. Bounded by the suspect set:
    /// [`observe`](Self::observe) evicts windows of departed suspects, so a
    /// churn of short-lived VMs cannot grow this without bound.
    pub fn window_count(&self, resource: Resource) -> usize {
        match resource {
            Resource::Io => self.io_windows.len(),
            Resource::Cpu => self.cpu_windows.len(),
        }
    }

    /// The suspects whose correlation meets the threshold.
    pub fn identify(&self, suspects: &[VmId], resource: Resource) -> Vec<VmId> {
        let mut out = Vec::new();
        self.identify_into(suspects, resource, &mut out);
        out
    }

    /// [`identify`](Self::identify) into a reused buffer: clears `out`, then
    /// appends the qualifying suspects in suspect order.
    pub fn identify_into(&self, suspects: &[VmId], resource: Resource, out: &mut Vec<VmId>) {
        out.clear();
        out.extend(suspects.iter().copied().filter(|&vm| {
            self.correlation(vm, resource).is_some_and(|r| r >= self.corr_threshold)
        }));
    }
}

/// The paper's identifier is its own [`Identifier`]: the seam's methods are
/// its implementation. `identify_into` thresholds [`correlation`] through
/// the inherent form, which needs no monitor because `observe` already
/// windowed the suspects' usage.
///
/// [`correlation`]: Identifier::correlation
impl Identifier for AntagonistIdentifier {
    /// Appends the victim's deviations observed at `now` and advances each
    /// suspect's correlation window with its latest usage sample. Call once
    /// per sampling interval, after `monitor.sample(now, …)`, so the
    /// suspect series' freshest entries line up with the deviations.
    fn observe(
        &mut self,
        now: SimTime,
        io_dev: Option<f64>,
        cpi_dev: Option<f64>,
        monitor: &PerformanceMonitor,
        suspects: &[VmId],
    ) {
        self.deviations.push(now, [io_dev, cpi_dev]);
        self.advance(Resource::Io, io_dev, monitor, suspects);
        self.advance(Resource::Cpu, cpi_dev, monitor, suspects);
    }

    fn identify_into(
        &mut self,
        suspects: &[VmId],
        resource: Resource,
        _monitor: &PerformanceMonitor,
        out: &mut Vec<VmId>,
    ) {
        AntagonistIdentifier::identify_into(self, suspects, resource, out);
    }

    /// Cross-correlation between the victim deviation and one suspect's
    /// usage series, over the sliding window: the best Pearson coefficient
    /// across victim-delay alignments `0..=corr_max_lag`, each requiring at
    /// least `min_corr_samples` contributing pairs. `None` until enough
    /// contributing samples exist (intervals where the victim was idle carry
    /// no evidence about suspects) or when either series is constant.
    ///
    /// The lag scan matters at contention onset: the antagonist's usage
    /// steps up a full sampling interval before the victim's EWMA-smoothed
    /// deviation reflects it, so the same-interval alignment blends the
    /// clean step with post-onset execution noise and can stay below the
    /// threshold for the whole episode. Scanning small victim delays
    /// recovers the step.
    fn correlation(&self, suspect: VmId, resource: Resource) -> Option<f64> {
        let windows = match resource {
            Resource::Io => &self.io_windows,
            Resource::Cpu => &self.cpu_windows,
        };
        let w = windows.get(&suspect)?;
        if w.contributing() < self.min_samples {
            return None;
        }
        w.correlation_lagged(self.max_lag, self.min_samples)
    }

    /// The victim deviation series for `resource`.
    fn deviation_series(&self, resource: Resource) -> SeriesView<'_> {
        self.deviations.column(resource as usize)
    }

    /// Drops every deviation sample and correlation window, keeping buffer
    /// capacity — the state a freshly constructed identifier has. Used by
    /// the crash-restart path, where the agent process loses its memory.
    fn reset(&mut self) {
        self.deviations.clear();
        self.io_windows.clear();
        self.cpu_windows.clear();
    }

    fn name(&self) -> &'static str {
        "paper"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PerfCloudConfig;
    use perfcloud_host::{PhysicalServer, ServerConfig, ServerId, VmConfig};
    use perfcloud_sim::{RngFactory, SimDuration};
    use perfcloud_workloads::{FioRandRead, SysbenchCpu};

    const DT: SimDuration = SimDuration::from_micros(100_000);

    /// Drives a server where VM 0 is the victim (mild fio), VM 1 an
    /// on-off heavy fio antagonist, VM 2 a CPU-only decoy. Returns the
    /// identifier (fed with victim deviations) and the monitor.
    fn scenario() -> (AntagonistIdentifier, PerformanceMonitor) {
        let cfg = PerfCloudConfig::default();
        let mut server =
            PhysicalServer::new(ServerId(0), ServerConfig::default(), RngFactory::new(23), DT);
        // Victim application: 4 VMs with mild I/O.
        let victims: Vec<VmId> = (0..4).map(VmId).collect();
        for &vm in &victims {
            server.add_vm(vm, VmConfig::high_priority());
            server.spawn(vm, Box::new(FioRandRead::with_rate(300.0, 4096.0, None)));
        }
        server.add_vm(VmId(10), VmConfig::low_priority()); // fio antagonist
        server.add_vm(VmId(11), VmConfig::low_priority()); // cpu decoy
        server.spawn(VmId(11), Box::new(SysbenchCpu::new()));

        let mut mon = PerformanceMonitor::new(&cfg);
        let mut ident = AntagonistIdentifier::new(&cfg);
        let mut now = perfcloud_sim::SimTime::ZERO;
        mon.sample(now, &server);
        // 12 intervals; antagonist active on intervals 4..9.
        for k in 0..12 {
            if k == 4 {
                server.spawn(
                    VmId(10),
                    Box::new(FioRandRead::with_rate(
                        20_000.0,
                        4096.0,
                        Some(SimDuration::from_secs(25.0)),
                    )),
                );
            }
            for _ in 0..50 {
                server.tick(DT);
            }
            now += SimDuration::from_secs(5.0);
            mon.sample(now, &server);
            let dev =
                crate::detector::deviation_across_vms(&mon, &victims, VmMetricKind::IowaitRatio);
            let cdev = crate::detector::deviation_across_vms(&mon, &victims, VmMetricKind::Cpi);
            ident.observe(now, dev, cdev, &mon, &[VmId(10), VmId(11)]);
        }
        (ident, mon)
    }

    #[test]
    fn fio_antagonist_correlates_decoy_does_not() {
        let (ident, _mon) = scenario();
        let r_fio = ident.correlation(VmId(10), Resource::Io).unwrap();
        let r_cpu = ident.correlation(VmId(11), Resource::Io).unwrap_or(0.0);
        assert!(r_fio > 0.8, "fio should correlate strongly, got {r_fio}");
        assert!(r_cpu < 0.8, "decoy must not cross the threshold, got {r_cpu}");
        let found = ident.identify(&[VmId(10), VmId(11)], Resource::Io);
        assert_eq!(found, vec![VmId(10)]);
    }

    #[test]
    fn rolling_correlation_matches_batch_alignment() {
        // The incremental windows must agree with the original batch path
        // (align the series' tails, then victim-aware Pearson) to float
        // round-off.
        let (ident, mon) = scenario();
        let cfg = PerfCloudConfig::default();
        for suspect in [VmId(10), VmId(11)] {
            let victim = ident.deviation_series(Resource::Io);
            let usage = mon.series(suspect, suspect_metric(Resource::Io)).unwrap();
            let (mut x, mut y) = (Vec::new(), Vec::new());
            perfcloud_stats::timeseries::align_tail(victim, usage, cfg.corr_window, &mut x, &mut y);
            let batch = perfcloud_stats::pearson::pearson_victim_aware_lagged(
                &x,
                &y,
                cfg.corr_max_lag,
                cfg.min_corr_samples,
            );
            let rolled = ident.correlation(suspect, Resource::Io);
            match (rolled, batch) {
                (Some(r), Some(b)) => assert!(
                    (r - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "suspect {suspect:?}: rolled {r} vs batch {b}"
                ),
                (r, b) => assert_eq!(r, b, "suspect {suspect:?}"),
            }
        }
    }

    #[test]
    fn late_suspect_enters_with_full_history() {
        // A suspect added to the suspect set late must be judged on the
        // retained history, exactly like the batch path — not start from an
        // empty window.
        let cfg = PerfCloudConfig::default();
        let mut server =
            PhysicalServer::new(ServerId(0), ServerConfig::default(), RngFactory::new(23), DT);
        let victims: Vec<VmId> = (0..4).map(VmId).collect();
        for &vm in &victims {
            server.add_vm(vm, VmConfig::high_priority());
            server.spawn(vm, Box::new(FioRandRead::with_rate(300.0, 4096.0, None)));
        }
        server.add_vm(VmId(10), VmConfig::low_priority());
        server.spawn(VmId(10), Box::new(FioRandRead::with_rate(20_000.0, 4096.0, None)));

        let mut mon = PerformanceMonitor::new(&cfg);
        let mut late = AntagonistIdentifier::new(&cfg);
        let mut always = AntagonistIdentifier::new(&cfg);
        let mut now = perfcloud_sim::SimTime::ZERO;
        mon.sample(now, &server);
        for k in 0..12 {
            for _ in 0..50 {
                server.tick(DT);
            }
            now += SimDuration::from_secs(5.0);
            mon.sample(now, &server);
            let dev =
                crate::detector::deviation_across_vms(&mon, &victims, VmMetricKind::IowaitRatio);
            let cdev = crate::detector::deviation_across_vms(&mon, &victims, VmMetricKind::Cpi);
            // `late` only starts suspecting VM 10 at interval 8.
            let suspects: &[VmId] = if k < 8 { &[] } else { &[VmId(10)] };
            late.observe(now, dev, cdev, &mon, suspects);
            always.observe(now, dev, cdev, &mon, &[VmId(10)]);
        }
        let r_late = late.correlation(VmId(10), Resource::Io);
        let r_always = always.correlation(VmId(10), Resource::Io);
        match (r_late, r_always) {
            (Some(a), Some(b)) => {
                assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "late {a} vs always {b}")
            }
            (a, b) => assert_eq!(a, b),
        }
    }

    #[test]
    fn unknown_suspect_yields_none() {
        let (ident, _mon) = scenario();
        assert_eq!(ident.correlation(VmId(99), Resource::Io), None);
    }

    #[test]
    fn requires_min_samples() {
        let cfg = PerfCloudConfig { min_corr_samples: 3, ..Default::default() };
        let mut ident = AntagonistIdentifier::new(&cfg);
        let mon = PerformanceMonitor::new(&cfg);
        let suspects = [VmId(0)];
        ident.observe(perfcloud_sim::SimTime::from_secs(5), Some(1.0), None, &mon, &suspects);
        ident.observe(perfcloud_sim::SimTime::from_secs(10), Some(2.0), None, &mon, &suspects);
        // Monitor has no series for the suspect at all -> None regardless.
        assert_eq!(ident.correlation(VmId(0), Resource::Io), None);
    }

    #[test]
    fn deviation_series_retained() {
        let cfg = PerfCloudConfig::default();
        let mut ident = AntagonistIdentifier::new(&cfg);
        let mon = PerformanceMonitor::new(&cfg);
        for k in 1..=1000u64 {
            ident.observe(
                perfcloud_sim::SimTime::from_secs(5 * k),
                Some(k as f64),
                None,
                &mon,
                &[],
            );
        }
        assert_eq!(ident.deviation_series(Resource::Io).len(), cfg.corr_window * 8);
    }

    #[test]
    fn suspect_metric_mapping() {
        assert_eq!(suspect_metric(Resource::Io), VmMetricKind::IoBps);
        assert_eq!(suspect_metric(Resource::Cpu), VmMetricKind::LlcMissRate);
    }
}
