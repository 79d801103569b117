//! PANDA-style noise-resilient antagonist identification.
//!
//! Plain Pearson (the paper's choice) has two production failure modes PANDA
//! calls out: it is **scale-invariant**, so an innocent VM whose small load
//! merely co-moves with the victim's suffering scores as high as the heavy
//! antagonist causing it, and it is **moment-based**, so one corrupted
//! counter spike drags the coefficient arbitrarily. This identifier keeps
//! the paper's victim-aware lagged windowing but swaps in three rank-robust
//! tests, all of which must pass:
//!
//! 1. **Spearman rank correlation** ≥ the configured threshold — bounded
//!    influence per sample, invariant to monotone counter distortion.
//! 2. **Sign agreement**: the majority of intervals where both series moved
//!    must move in the same direction — a cheap guard against coincidental
//!    rank alignment of slow drifts.
//! 3. **Usage share**: the suspect's mean usage over the window must be a
//!    non-trivial fraction of the heaviest suspect's — correlation without
//!    magnitude is co-suffering, not causation.

use super::Identifier;
use crate::antagonist::{suspect_metric, Resource};
use crate::config::PerfCloudConfig;
use crate::monitor::PerformanceMonitor;
use perfcloud_host::VmId;
use perfcloud_sim::SimTime;
use perfcloud_stats::timeseries::align_tail;
use perfcloud_stats::{spearman_victim_aware_lagged, RankScratch, SeriesRing, SeriesView};

/// Minimum fraction of movement intervals that must agree in direction.
const SIGN_AGREEMENT_MIN: f64 = 0.5;
/// Minimum mean-usage share of the heaviest suspect required to be judged
/// a cause rather than a fellow victim.
const USAGE_SHARE_MIN: f64 = 0.3;

/// Noise-resilient identifier: Spearman + sign agreement + usage share.
///
/// Every buffer an identification pass needs is held here and reused, so a
/// steady-state pass allocates nothing.
#[derive(Debug, Clone)]
pub struct PandaIdentifier {
    corr_threshold: f64,
    window: usize,
    min_samples: usize,
    max_lag: usize,
    /// The victim's I/O (column 0) and CPI (column 1) deviations, one row
    /// per interval.
    deviations: SeriesRing<2>,
    /// The latest pass's Spearman score per scored suspect, in suspect order.
    io_scores: Vec<(VmId, f64)>,
    cpu_scores: Vec<(VmId, f64)>,
    /// Aligned victim-deviation / suspect-usage windows of one suspect.
    x: Vec<Option<f64>>,
    y: Vec<Option<f64>>,
    /// Suspects that passed the correlation and sign gates, with their mean
    /// usage for the share gate.
    passed: Vec<(VmId, f64)>,
    ranks: RankScratch,
}

impl PandaIdentifier {
    /// Creates the identifier with the pipeline configuration (reusing the
    /// paper's window, lag, and threshold knobs — only the statistics
    /// change).
    pub fn new(config: &PerfCloudConfig) -> Self {
        config.validate();
        PandaIdentifier {
            corr_threshold: config.corr_threshold,
            window: config.corr_window,
            min_samples: config.min_corr_samples,
            max_lag: config.corr_max_lag,
            deviations: SeriesRing::new(config.corr_window * 8),
            io_scores: Vec::new(),
            cpu_scores: Vec::new(),
            x: Vec::new(),
            y: Vec::new(),
            passed: Vec::new(),
            ranks: RankScratch::default(),
        }
    }

    /// Fraction of consecutive intervals, among those where both aligned
    /// series moved, in which they moved the same direction. `None` when
    /// neither series ever moved together (no evidence either way).
    fn sign_agreement(x: &[Option<f64>], y: &[Option<f64>]) -> Option<f64> {
        let mut agree = 0u32;
        let mut moved = 0u32;
        let mut prev: Option<(f64, f64)> = None;
        for (a, b) in x.iter().zip(y.iter()) {
            let Some(a) = a.filter(|v| v.is_finite()) else {
                // Victim idle: no deviation evidence this interval; break the
                // difference chain rather than bridging across the gap.
                prev = None;
                continue;
            };
            let b = b.filter(|v| v.is_finite()).unwrap_or(0.0);
            if let Some((pa, pb)) = prev {
                let (dx, dy) = (a - pa, b - pb);
                if dx != 0.0 && dy != 0.0 {
                    moved += 1;
                    if (dx > 0.0) == (dy > 0.0) {
                        agree += 1;
                    }
                }
            }
            prev = Some((a, b));
        }
        (moved > 0).then(|| f64::from(agree) / f64::from(moved))
    }

    /// Mean of the suspect's usage over the aligned window, victim-gated
    /// (only intervals where the victim deviation was present count, missing
    /// suspect samples count as zero) — the same evidence base the
    /// correlation uses.
    fn mean_usage(x: &[Option<f64>], y: &[Option<f64>]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for (a, b) in x.iter().zip(y.iter()) {
            if a.filter(|v| v.is_finite()).is_none() {
                continue;
            }
            sum += b.filter(|v| v.is_finite()).unwrap_or(0.0);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }
}

impl Identifier for PandaIdentifier {
    fn observe(
        &mut self,
        now: SimTime,
        io_dev: Option<f64>,
        cpi_dev: Option<f64>,
        _monitor: &PerformanceMonitor,
        _suspects: &[VmId],
    ) {
        self.deviations.push(now, [io_dev, cpi_dev]);
    }

    fn identify_into(
        &mut self,
        suspects: &[VmId],
        resource: Resource,
        monitor: &PerformanceMonitor,
        out: &mut Vec<VmId>,
    ) {
        out.clear();
        let metric = suspect_metric(resource);
        let dev = self.deviations.column(resource as usize);
        let scores = match resource {
            Resource::Io => &mut self.io_scores,
            Resource::Cpu => &mut self.cpu_scores,
        };
        let (x, y) = (&mut self.x, &mut self.y);
        scores.clear();
        self.passed.clear();
        // Pass 1: score every suspect (Spearman + the two gates) and find
        // the heaviest mean usage for the share gate.
        let mut max_usage = 0.0f64;
        for &vm in suspects {
            let Some(usage) = monitor.series(vm, metric) else {
                continue;
            };
            align_tail(dev, usage, self.window, x, y);
            let mean = Self::mean_usage(x, y);
            max_usage = max_usage.max(mean);
            let Some(r) =
                spearman_victim_aware_lagged(x, y, self.max_lag, self.min_samples, &mut self.ranks)
            else {
                continue;
            };
            scores.push((vm, r));
            if r < self.corr_threshold {
                continue;
            }
            if Self::sign_agreement(x, y).is_some_and(|f| f < SIGN_AGREEMENT_MIN) {
                continue;
            }
            self.passed.push((vm, mean));
        }
        // Pass 2: the share gate needs the heaviest suspect known first.
        out.extend(
            self.passed
                .iter()
                .filter(|&&(_, mean)| mean >= USAGE_SHARE_MIN * max_usage)
                .map(|&(vm, _)| vm),
        );
    }

    fn correlation(&self, suspect: VmId, resource: Resource) -> Option<f64> {
        let scores = match resource {
            Resource::Io => &self.io_scores,
            Resource::Cpu => &self.cpu_scores,
        };
        scores.iter().find(|&&(vm, _)| vm == suspect).map(|&(_, r)| r)
    }

    fn deviation_series(&self, resource: Resource) -> SeriesView<'_> {
        self.deviations.column(resource as usize)
    }

    fn reset(&mut self) {
        self.deviations.clear();
        self.io_scores.clear();
        self.cpu_scores.clear();
    }

    fn name(&self) -> &'static str {
        "panda"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_agreement_counts_joint_movement() {
        let x = [Some(1.0), Some(2.0), Some(3.0), Some(2.0)];
        let y = [Some(10.0), Some(20.0), Some(30.0), Some(40.0)];
        // Diffs: (+,+) (+,+) (-,+): 2 of 3 agree.
        let f = PandaIdentifier::sign_agreement(&x, &y).unwrap();
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sign_agreement_breaks_chain_at_victim_gaps() {
        // The gap means (1→3) must not be treated as one movement.
        let x = [Some(1.0), None, Some(3.0)];
        let y = [Some(1.0), Some(2.0), Some(3.0)];
        assert_eq!(PandaIdentifier::sign_agreement(&x, &y), None);
    }

    #[test]
    fn mean_usage_is_victim_gated() {
        let x = [Some(1.0), None, Some(3.0)];
        let y = [Some(10.0), Some(999.0), None];
        // Intervals with victim present: usage 10 and (missing → 0).
        assert_eq!(PandaIdentifier::mean_usage(&x, &y), 5.0);
    }
}
