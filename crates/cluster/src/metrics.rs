//! Evaluation metrics: normalized JCT, degradation breakdowns, efficiency.

use perfcloud_frameworks::JobOutcome;
use std::collections::HashMap;

/// Normalizes each outcome's JCT by the baseline (interference-free) JCT of
/// the same job name. Jobs without a baseline are skipped.
pub fn normalize_jcts(outcomes: &[JobOutcome], baselines: &HashMap<String, f64>) -> Vec<f64> {
    outcomes
        .iter()
        .filter_map(|o| {
            let base = *baselines.get(&o.name)?;
            (base > 0.0).then(|| o.jct / base)
        })
        .collect()
}

/// The paper's Fig. 11a/b buckets: fraction of jobs whose performance
/// degradation (normalized JCT − 1) falls under 10%, between 10–30%, and
/// above 30%.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationBreakdown {
    /// Fraction of jobs with degradation < 10%.
    pub under_10: f64,
    /// Fraction with 10% ≤ degradation < 30%.
    pub from_10_to_30: f64,
    /// Fraction with degradation ≥ 30%.
    pub over_30: f64,
    /// Number of jobs classified.
    pub count: usize,
}

impl DegradationBreakdown {
    /// Classifies normalized JCTs (1.0 = no degradation).
    pub fn from_normalized(normalized: &[f64]) -> Self {
        let n = normalized.len();
        if n == 0 {
            return DegradationBreakdown {
                under_10: 0.0,
                from_10_to_30: 0.0,
                over_30: 0.0,
                count: 0,
            };
        }
        let mut u10 = 0usize;
        let mut u30 = 0usize;
        let mut o30 = 0usize;
        for &x in normalized {
            let d = x - 1.0;
            if d < 0.10 {
                u10 += 1;
            } else if d < 0.30 {
                u30 += 1;
            } else {
                o30 += 1;
            }
        }
        DegradationBreakdown {
            under_10: u10 as f64 / n as f64,
            from_10_to_30: u30 as f64 / n as f64,
            over_30: o30 as f64 / n as f64,
            count: n,
        }
    }

    /// Fraction with degradation < 30% (the paper's "100% of all jobs to be
    /// less than 30%" claim for PerfCloud).
    pub fn under_30(&self) -> f64 {
        self.under_10 + self.from_10_to_30
    }
}

/// Mean resource-utilization efficiency over outcomes (Fig. 11c).
pub fn mean_efficiency(outcomes: &[JobOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 1.0;
    }
    outcomes.iter().map(JobOutcome::efficiency).sum::<f64>() / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcloud_sim::SimTime;

    fn outcome(name: &str, jct: f64, ok: f64, total: f64) -> JobOutcome {
        JobOutcome {
            name: name.into(),
            submitted: SimTime::ZERO,
            jct,
            successful_task_secs: ok,
            total_task_secs: total,
            task_count: 4,
            clones: 1,
        }
    }

    #[test]
    fn normalization_uses_per_name_baselines() {
        let outcomes = vec![outcome("a", 20.0, 1.0, 1.0), outcome("b", 30.0, 1.0, 1.0)];
        let mut base = HashMap::new();
        base.insert("a".to_string(), 10.0);
        base.insert("b".to_string(), 30.0);
        let n = normalize_jcts(&outcomes, &base);
        assert_eq!(n, vec![2.0, 1.0]);
    }

    #[test]
    fn missing_baselines_are_skipped() {
        let outcomes = vec![outcome("a", 20.0, 1.0, 1.0), outcome("zzz", 30.0, 1.0, 1.0)];
        let mut base = HashMap::new();
        base.insert("a".to_string(), 10.0);
        assert_eq!(normalize_jcts(&outcomes, &base).len(), 1);
    }

    #[test]
    fn breakdown_buckets() {
        let normalized = vec![1.0, 1.05, 1.09, 1.10, 1.25, 1.30, 2.0];
        let b = DegradationBreakdown::from_normalized(&normalized);
        assert_eq!(b.count, 7);
        assert!((b.under_10 - 3.0 / 7.0).abs() < 1e-12);
        assert!((b.from_10_to_30 - 2.0 / 7.0).abs() < 1e-12);
        assert!((b.over_30 - 2.0 / 7.0).abs() < 1e-12);
        assert!((b.under_30() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = DegradationBreakdown::from_normalized(&[]);
        assert_eq!(b.count, 0);
        assert_eq!(b.under_10, 0.0);
    }

    #[test]
    fn speedups_count_as_under_10() {
        let b = DegradationBreakdown::from_normalized(&[0.9, 0.95]);
        assert_eq!(b.under_10, 1.0);
    }

    #[test]
    fn efficiency_aggregations() {
        let outcomes = vec![outcome("a", 1.0, 8.0, 10.0), outcome("b", 1.0, 1.0, 10.0)];
        assert!((mean_efficiency(&outcomes) - (0.8 + 0.1) / 2.0).abs() < 1e-12);
        assert_eq!(mean_efficiency(&[]), 1.0);
    }
}
