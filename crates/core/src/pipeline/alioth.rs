//! Alioth-style learned contention monitor.
//!
//! Instead of comparing the across-VM moment deviation against a hand-set
//! threshold ℋ, this detector evaluates a tiny logistic model over two
//! deviation features per resource:
//!
//! - `ln1p` of the paper's **moment** deviation (population stddev), and
//! - `ln1p` of the **robust** deviation (1.4826 × MAD), which a minority of
//!   corrupted counters cannot move.
//!
//! The weights are fixed-point constants checked in below — "trained
//! offline" by sweeping the simulator's scenario families with
//! `accuracy_bench` and picking the separating plane by hand; there is no
//! runtime ML dependency and no floating-point nondeterminism (the features
//! are deterministic functions of the monitor and the weights are exact
//! micro-unit decimals). Robust evidence carries most of the weight, which
//! buys the two properties the paper's threshold lacks: sensitivity to
//! low-signal antagonists that keep the deviation below ℋ, and immunity to
//! single-VM counter spikes that shove the moment deviation over it.
//!
//! The signal's `io_deviation` / `cpi_deviation` fields still carry the
//! paper's moment deviations, so decision traces and figure harnesses stay
//! comparable across detectors; only the contended verdicts differ.

use super::Detector;
use crate::config::PerfCloudConfig;
use crate::detector::{deviation_across_vms, ContentionSignal};
use crate::monitor::{PerformanceMonitor, VmMetricKind};
use perfcloud_host::VmId;
use perfcloud_stats::robust_stddev;

/// Fixed-point scale: weights are integer micro-units (1e-6).
const MICRO: f64 = 1e-6;

/// I/O verdict: `w_r·ln1p(robust) + w_m·ln1p(moment) + bias > 0`.
/// Calibrated against the accuracy matrix's measured features: an
/// interference-free terasort peaks at (moment 0.57, robust 0.62) ⇒
/// z ≈ −0.12, the weakest in-window step of the rate-limited low-signal
/// antagonist measures (1.55, 1.16) ⇒ z ≈ +0.20, and a spike that shoves
/// the moment to 60 while the MAD holds 0.3 scores 0.26 + 0.05·ln1p(60) ≈
/// 0.47, still quiet — the moment term is a tiebreaker, never a verdict.
const IO_W_ROBUST: i64 = 1_000_000; // 1.0
const IO_W_MOMENT: i64 = 50_000; // 0.05
const IO_BIAS: i64 = -620_000; // -0.62

/// CPI verdict, same form. Processor contention spreads unevenly across the
/// workers (STREAM peaks at moment ≈ 2.0 but robust ≈ 0.4–0.9), so the
/// moment term is kept tiny — just enough to tip genuinely shared episodes —
/// and the bias sits where spike-corrupted CPI (moment ≈ 20+, robust ≈
/// baseline 0.01) still lands negative: 0.1·ln1p(22) ≈ 0.31 < 0.5 quiet,
/// while STREAM's (1.53, 0.89) step scores 0.64 + 0.09 > 0.5.
const CPI_W_ROBUST: i64 = 1_000_000; // 1.0
const CPI_W_MOMENT: i64 = 100_000; // 0.1
const CPI_BIAS: i64 = -500_000; // -0.5

fn verdict(
    robust: Option<f64>,
    moment: Option<f64>,
    w_robust: i64,
    w_moment: i64,
    bias: i64,
) -> bool {
    // No deviation estimate at all (under two active VMs) is never
    // contended, matching the paper detector's missing policy.
    let (Some(r), Some(m)) = (robust, moment) else {
        return false;
    };
    let z = (w_robust as f64) * MICRO * r.max(0.0).ln_1p()
        + (w_moment as f64) * MICRO * m.max(0.0).ln_1p()
        + (bias as f64) * MICRO;
    z > 0.0
}

/// Learned monitor over robust + moment deviation features.
#[derive(Debug, Clone, Default)]
pub struct AliothDetector {
    /// Scratch for the latest across-VM values; reused between calls.
    scratch: Vec<f64>,
}

impl AliothDetector {
    /// Creates the detector. The thresholds in `config` are not used — the
    /// decision surface is the checked-in weight constants — but the config
    /// is still validated for parity with the other constructors.
    pub fn new(config: &PerfCloudConfig) -> Self {
        config.validate();
        AliothDetector { scratch: Vec::new() }
    }

    /// Robust (MAD-based) deviation of the latest smoothed `kind` across
    /// `vms`, with the same ≥ 2 present-values floor as the moment path.
    fn robust_deviation(
        &mut self,
        monitor: &PerformanceMonitor,
        vms: &[VmId],
        kind: VmMetricKind,
    ) -> Option<f64> {
        self.scratch.clear();
        self.scratch.extend(vms.iter().filter_map(|&vm| monitor.latest(vm, kind)));
        robust_stddev(&mut self.scratch)
    }
}

impl Detector for AliothDetector {
    fn detect(&mut self, monitor: &PerformanceMonitor, app_vms: &[VmId]) -> ContentionSignal {
        let io_deviation = deviation_across_vms(monitor, app_vms, VmMetricKind::IowaitRatio);
        let cpi_deviation = deviation_across_vms(monitor, app_vms, VmMetricKind::Cpi);
        let io_robust = self.robust_deviation(monitor, app_vms, VmMetricKind::IowaitRatio);
        let cpi_robust = self.robust_deviation(monitor, app_vms, VmMetricKind::Cpi);
        ContentionSignal {
            io_deviation,
            cpi_deviation,
            io_contended: verdict(io_robust, io_deviation, IO_W_ROBUST, IO_W_MOMENT, IO_BIAS),
            cpu_contended: verdict(cpi_robust, cpi_deviation, CPI_W_ROBUST, CPI_W_MOMENT, CPI_BIAS),
        }
    }

    fn reset(&mut self) {
        self.scratch.clear();
    }

    fn name(&self) -> &'static str {
        "alioth"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_features_never_fire() {
        assert!(!verdict(None, Some(100.0), IO_W_ROBUST, IO_W_MOMENT, IO_BIAS));
        assert!(!verdict(Some(100.0), None, IO_W_ROBUST, IO_W_MOMENT, IO_BIAS));
    }

    #[test]
    fn robust_evidence_dominates() {
        // Low-signal contention: moment 4 (below ℋ_io = 10), robust 2.5.
        assert!(verdict(Some(2.5), Some(4.0), IO_W_ROBUST, IO_W_MOMENT, IO_BIAS));
        // Clean: both small.
        assert!(!verdict(Some(0.3), Some(0.4), IO_W_ROBUST, IO_W_MOMENT, IO_BIAS));
        // A single corrupted VM: the moment explodes, the MAD does not.
        assert!(!verdict(Some(0.3), Some(60.0), IO_W_ROBUST, IO_W_MOMENT, IO_BIAS));
    }
}
