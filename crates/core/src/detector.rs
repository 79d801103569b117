//! Interference detection: across-VM deviation vs. threshold (§III-A).
//!
//! Scale-out frameworks distribute work evenly across worker VMs, so under
//! healthy conditions the block-iowait ratio and CPI look similar on every
//! VM of the application. Contention breaks that symmetry: "the standard
//! deviation of the ratio of blkio.io_wait_time and blkio.io_serviced across
//! the various VMs … can serve as an early indicator", and likewise for CPI.
//! The deviation exceeding threshold ℋ (10 for the iowait ratio, 1 for CPI)
//! *is* the contention signal `I(t)` of Eq. 1.

use crate::config::PerfCloudConfig;
use crate::monitor::{PerformanceMonitor, VmMetricKind};
use crate::pipeline::Detector;
use perfcloud_host::VmId;
use perfcloud_stats::population_stddev_stable;

/// The detector's verdict for one sampling instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionSignal {
    /// Standard deviation of the block-iowait ratio across the application's
    /// VMs (ms/op); `None` if fewer than two VMs had I/O activity.
    pub io_deviation: Option<f64>,
    /// Standard deviation of CPI across the application's VMs; `None` if
    /// fewer than two VMs executed instructions.
    pub cpi_deviation: Option<f64>,
    /// `io_deviation > ℋ_io`.
    pub io_contended: bool,
    /// `cpi_deviation > ℋ_cpi`.
    pub cpu_contended: bool,
}

/// Standard deviation of the latest smoothed `kind` across `vms`. VMs with
/// a missing latest sample are excluded; at least two present values are
/// required for a meaningful deviation.
pub fn deviation_across_vms(
    monitor: &PerformanceMonitor,
    vms: &[VmId],
    kind: VmMetricKind,
) -> Option<f64> {
    // A fixed-order (vms order) two-pass compensated reduction: this value
    // is compared against a threshold downstream, and a single-pass Welford
    // stream rounds its running mean once per observation — enough last-bit
    // drift to flip near-threshold decisions depending on how the sum was
    // formed. It runs once per metric per server per sampling tick, so it
    // must not allocate a scratch Vec; the monitor is iterated twice instead.
    population_stddev_stable(|| vms.iter().filter_map(|&vm| monitor.latest(vm, kind)), 2)
}

/// Evaluates the contention signal for one application's VM group.
pub fn detect(
    monitor: &PerformanceMonitor,
    app_vms: &[VmId],
    h_io: f64,
    h_cpi: f64,
) -> ContentionSignal {
    let io_deviation = deviation_across_vms(monitor, app_vms, VmMetricKind::IowaitRatio);
    let cpi_deviation = deviation_across_vms(monitor, app_vms, VmMetricKind::Cpi);
    ContentionSignal {
        io_deviation,
        cpi_deviation,
        io_contended: io_deviation.is_some_and(|d| d > h_io),
        cpu_contended: cpi_deviation.is_some_and(|d| d > h_cpi),
    }
}

/// The paper's detector behind the [`Detector`] seam: [`detect`] with the
/// thresholds ℋ from the pipeline configuration.
#[derive(Debug, Clone)]
pub struct PaperDetector {
    h_io: f64,
    h_cpi: f64,
}

impl PaperDetector {
    /// Creates the detector with the paper's thresholds from `config`.
    pub fn new(config: &PerfCloudConfig) -> Self {
        config.validate();
        PaperDetector { h_io: config.h_io, h_cpi: config.h_cpi }
    }
}

impl Detector for PaperDetector {
    fn detect(&mut self, monitor: &PerformanceMonitor, app_vms: &[VmId]) -> ContentionSignal {
        detect(monitor, app_vms, self.h_io, self.h_cpi)
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "paper"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcloud_host::{PhysicalServer, ServerConfig, ServerId, VmConfig};
    use perfcloud_sim::{RngFactory, SimDuration, SimTime};
    use perfcloud_workloads::FioRandRead;

    const DT: SimDuration = SimDuration::from_micros(100_000);

    /// Builds a server with `n` VMs each running a mild fio load plus an
    /// optional heavy antagonist, then samples the monitor a few times.
    fn monitored(n: u32, antagonist: bool) -> (PerformanceMonitor, Vec<VmId>) {
        let mut server =
            PhysicalServer::new(ServerId(0), ServerConfig::default(), RngFactory::new(17), DT);
        let vms: Vec<VmId> = (0..n).map(VmId).collect();
        for &vm in &vms {
            server.add_vm(vm, VmConfig::high_priority());
            server.spawn(vm, Box::new(FioRandRead::with_rate(300.0, 4096.0, None)));
        }
        if antagonist {
            server.add_vm(VmId(100), VmConfig::low_priority());
            server.spawn(VmId(100), Box::new(FioRandRead::with_rate(20_000.0, 4096.0, None)));
        }
        let mut mon = PerformanceMonitor::new(&PerfCloudConfig::default());
        let mut now = SimTime::ZERO;
        mon.sample(now, &server);
        for _ in 0..8 {
            for _ in 0..50 {
                server.tick(DT);
            }
            now += SimDuration::from_secs(5.0);
            mon.sample(now, &server);
        }
        (mon, vms)
    }

    #[test]
    fn deviation_requires_two_active_vms() {
        let (mon, vms) = monitored(1, false);
        assert_eq!(deviation_across_vms(&mon, &vms, VmMetricKind::IowaitRatio), None);
    }

    #[test]
    fn contention_raises_io_deviation() {
        let (mon_alone, vms) = monitored(6, false);
        let (mon_contended, _) = monitored(6, true);
        let alone = deviation_across_vms(&mon_alone, &vms, VmMetricKind::IowaitRatio).unwrap();
        let contended =
            deviation_across_vms(&mon_contended, &vms, VmMetricKind::IowaitRatio).unwrap();
        assert!(
            contended > 3.0 * alone,
            "deviation should blow up under contention: {alone:.3} vs {contended:.3}"
        );
    }

    #[test]
    fn detect_applies_thresholds() {
        let (mon, vms) = monitored(6, true);
        let dev = deviation_across_vms(&mon, &vms, VmMetricKind::IowaitRatio).unwrap();
        // Threshold just below the observed deviation → contended.
        let sig = detect(&mon, &vms, dev * 0.9, 1.0);
        assert!(sig.io_contended);
        // Threshold just above → not contended.
        let sig = detect(&mon, &vms, dev * 1.1, 1.0);
        assert!(!sig.io_contended);
        assert_eq!(sig.io_deviation, Some(dev));
    }

    #[test]
    fn missing_deviation_is_never_contended() {
        let (mon, _) = monitored(2, false);
        let sig = detect(&mon, &[VmId(50), VmId(51)], 0.001, 0.001);
        assert_eq!(sig.io_deviation, None);
        assert_eq!(sig.cpi_deviation, None);
        assert!(!sig.io_contended);
        assert!(!sig.cpu_contended);
    }

    #[test]
    fn identical_vms_have_near_zero_deviation_when_uncontended() {
        let (mon, vms) = monitored(6, false);
        let dev = deviation_across_vms(&mon, &vms, VmMetricKind::IowaitRatio).unwrap();
        // Mild load, jitter amplitude ≈ 0 below the onset: tiny deviation.
        assert!(dev < 1.0, "uncontended deviation should be small, got {dev}");
    }
}
