//! Sliding-window statistics whose queries are pure functions of the
//! window.
//!
//! The identifier correlates the victim's deviation series against every
//! suspect VM's usage series over a sliding window, every sampling interval
//! (paper §III-B). These windows used to maintain O(1) incremental running
//! sums (`n, Σx, Σy, Σx², Σy², Σxy`) updated on push/evict, with periodic
//! exact refreshes to bound drift — but an incrementally maintained sum is
//! not summation-order-stable: its low bits depend on the *history* of
//! pushes and evictions, not just on the values currently in the window, so
//! two windows holding identical contents could answer near-threshold
//! queries differently. Those last-bit disagreements are amplified by the
//! threshold comparisons downstream (correlation > ℋ decides who gets
//! throttled) into divergent decision traces.
//!
//! Queries are therefore computed **exactly from the retained window, in
//! window order, with the same operations as the batch kernels** —
//! [`RollingPearson::correlation`] is bit-identical to
//! [`crate::pearson::pearson_victim_aware`] over the window. A window
//! is at most a few dozen slots (`corr_window`, default 24), so the exact
//! pass costs a few dozen multiply-adds per query — cheaper than the old
//! scheme's refresh amortization, and allocation-free either way.
//!
//! The missing-value policy matches [`crate::pearson::pearson_victim_aware`]:
//! pairs where the **victim** observation is missing contribute nothing (an
//! idle victim yields no evidence), while a missing **suspect** observation
//! counts as zero per the paper's rule.

use std::collections::VecDeque;

/// Windowed Pearson correlation with the paper's victim-aware missing
/// policy. Pushes are O(1); the correlation query is an exact fixed-order
/// pass over the window.
#[derive(Debug, Clone)]
pub struct RollingPearson {
    window: usize,
    /// Raw observations in window order: (victim, suspect).
    pairs: VecDeque<(Option<f64>, Option<f64>)>,
    /// Pairs with a present victim observation (exact integer bookkeeping).
    contributing: usize,
}

impl RollingPearson {
    /// An empty window of capacity `window` (≥ 2).
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "a correlation window needs at least 2 slots");
        RollingPearson { window, pairs: VecDeque::with_capacity(window), contributing: 0 }
    }

    /// The window capacity.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Observations currently held (contributing or not).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of pairs currently contributing to the correlation (pairs
    /// with a present victim observation) — the identifier's evidence count.
    pub fn contributing(&self) -> usize {
        self.contributing
    }

    /// Pushes one (victim, suspect) observation, evicting the oldest when
    /// the window is full.
    ///
    /// Non-finite observations (NaN/inf from corrupted telemetry) are
    /// demoted to *missing* before entering the window, so they can poison
    /// no query: a non-finite victim contributes nothing, a non-finite
    /// suspect counts as zero — the same policy
    /// [`crate::pearson::pearson_victim_aware`] applies.
    pub fn push(&mut self, victim: Option<f64>, suspect: Option<f64>) {
        let victim = victim.filter(|v| v.is_finite());
        let suspect = suspect.filter(|s| s.is_finite());
        if self.pairs.len() == self.window {
            self.evict();
        }
        if victim.is_some() {
            self.contributing += 1;
        }
        self.pairs.push_back((victim, suspect));
    }

    /// Drops the oldest observation, if any.
    pub fn evict(&mut self) {
        if let Some((victim, _)) = self.pairs.pop_front() {
            if victim.is_some() {
                self.contributing -= 1;
            }
        }
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.contributing = 0;
    }

    /// The correlation over the current window, or `None` with fewer than
    /// two contributing pairs or degenerate variance.
    ///
    /// Computed exactly from the retained pairs in window order — the same
    /// pair stream and operations as
    /// [`crate::pearson::pearson_victim_aware`], so the result is
    /// bit-identical to the batch path and depends only on the window
    /// contents, never on how the window got there.
    pub fn correlation(&self) -> Option<f64> {
        if self.contributing < 2 {
            return None;
        }
        crate::pearson::pearson_of_pairs(
            self.pairs.iter().filter_map(|&(v, s)| v.map(|v| (v, s.unwrap_or(0.0)))),
        )
    }

    /// Cross-correlation: the best Pearson coefficient over victim-delay
    /// alignments `0..=max_lag`, or `None` if no alignment has at least
    /// `min_pairs` contributing pairs (and never fewer than 2).
    ///
    /// At lag `k` the victim observation at window slot `i + k` is paired
    /// with the suspect observation at slot `i`: the victim's deviation is
    /// allowed to *respond late* to the suspect's resource usage. A victim's
    /// smoothed metrics lag the cause by one or two sampling intervals (EWMA
    /// smoothing, plus the time it takes contention to turn into measurable
    /// slowdown), and at lag 0 that phase shift dilutes an otherwise clean
    /// onset step. Only non-negative lags are scanned — a victim that
    /// *anticipates* a suspect's usage is noise, not causation.
    ///
    /// Each lag's coefficient is computed exactly like [`Self::correlation`]
    /// over the shifted alignment, so the result is a pure function of the
    /// window contents.
    pub fn correlation_lagged(&self, max_lag: usize, min_pairs: usize) -> Option<f64> {
        let min_pairs = min_pairs.max(2);
        let mut best: Option<f64> = None;
        for lag in 0..=max_lag.min(self.pairs.len().saturating_sub(1)) {
            let aligned = || {
                self.pairs
                    .iter()
                    .skip(lag)
                    .zip(self.pairs.iter())
                    .filter_map(|(&(v, _), &(_, s))| v.map(|v| (v, s.unwrap_or(0.0))))
            };
            if aligned().count() < min_pairs {
                continue;
            }
            if let Some(r) = crate::pearson::pearson_of_pairs(aligned()) {
                best = Some(match best {
                    Some(b) if b >= r => b,
                    _ => r,
                });
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pearson::pearson_victim_aware;

    #[test]
    fn rolling_pearson_matches_batch_on_full_window() {
        let mut rp = RollingPearson::new(4);
        let victim = [Some(0.1), Some(0.5), Some(0.9), Some(0.4)];
        let suspect = [Some(0.2), Some(0.55), Some(1.0), Some(0.35)];
        for (&v, &s) in victim.iter().zip(&suspect) {
            rp.push(v, s);
        }
        let batch = pearson_victim_aware(&victim, &suspect).unwrap();
        assert_eq!(rp.correlation().unwrap(), batch);
    }

    #[test]
    fn rolling_pearson_honors_victim_missing_policy() {
        let mut rp = RollingPearson::new(8);
        // Victim idle for two intervals, then suffering; suspect flat-out.
        let victim = [None, None, Some(0.2), Some(0.9), Some(1.0)];
        let suspect = [Some(1.0), Some(1.0), Some(0.3), Some(0.95), Some(1.0)];
        for (&v, &s) in victim.iter().zip(&suspect) {
            rp.push(v, s);
        }
        assert_eq!(rp.contributing(), 3);
        let batch = pearson_victim_aware(&victim, &suspect).unwrap();
        assert_eq!(rp.correlation().unwrap(), batch);
    }

    #[test]
    fn eviction_tracks_the_tail() {
        let mut rp = RollingPearson::new(3);
        let victim: Vec<Option<f64>> = (0..10).map(|i| Some((i as f64 * 0.7).sin())).collect();
        let suspect: Vec<Option<f64>> =
            (0..10).map(|i| Some((i as f64 * 0.7 + 0.3).sin())).collect();
        for (&v, &s) in victim.iter().zip(&suspect) {
            rp.push(v, s);
        }
        assert_eq!(rp.len(), 3);
        let batch = pearson_victim_aware(&victim[7..], &suspect[7..]).unwrap();
        assert_eq!(rp.correlation().unwrap(), batch);
    }

    #[test]
    fn correlation_depends_only_on_window_contents() {
        // Two windows that arrive at the same contents by different
        // histories must answer bit-identically — the determinism property
        // the old incremental sums violated.
        let tail = [(0.3, 0.1), (0.9, 0.8), (0.2, 0.25), (0.7, 0.6)];
        let mut direct = RollingPearson::new(4);
        for &(v, s) in &tail {
            direct.push(Some(v), Some(s));
        }
        let mut churned = RollingPearson::new(4);
        for i in 0..1000 {
            let x = (i as f64 * 0.123).sin() * 1e6;
            churned.push(Some(x), Some(-x));
        }
        for &(v, s) in &tail {
            churned.push(Some(v), Some(s));
        }
        assert_eq!(direct.correlation(), churned.correlation());
    }

    #[test]
    fn too_few_contributing_pairs_is_none() {
        let mut rp = RollingPearson::new(4);
        rp.push(Some(1.0), Some(2.0));
        assert_eq!(rp.correlation(), None);
        rp.push(None, Some(3.0));
        assert_eq!(rp.correlation(), None);
        assert_eq!(rp.contributing(), 1);
    }

    #[test]
    fn pearson_survives_nan_and_inf_inputs() {
        let mut rp = RollingPearson::new(6);
        let victim =
            [Some(0.1), Some(f64::NAN), Some(0.5), Some(f64::INFINITY), Some(0.9), Some(0.4)];
        let suspect =
            [Some(0.2), Some(0.5), Some(f64::NEG_INFINITY), Some(0.8), Some(1.0), Some(f64::NAN)];
        for (&v, &s) in victim.iter().zip(&suspect) {
            rp.push(v, s);
        }
        // NaN/inf victims contribute nothing; NaN/inf suspects count as zero.
        assert_eq!(rp.contributing(), 4);
        let r = rp.correlation().unwrap();
        assert!(r.is_finite(), "correlation poisoned: {r}");
        let batch = pearson_victim_aware(
            &[Some(0.1), Some(0.5), Some(0.9), Some(0.4)],
            &[Some(0.2), None, Some(1.0), None],
        )
        .unwrap();
        assert_eq!(r, batch);
    }

    #[test]
    fn pearson_stuck_at_constant_suspect_is_none() {
        let mut rp = RollingPearson::new(8);
        for i in 0..8 {
            // Victim varies, suspect is a stuck sensor: zero variance on one
            // side means the correlation is undefined, not NaN.
            rp.push(Some(i as f64 * 0.3), Some(7.5));
        }
        assert_eq!(rp.correlation(), None);
    }

    #[test]
    fn clear_resets_everything() {
        let mut rp = RollingPearson::new(4);
        rp.push(Some(1.0), Some(2.0));
        rp.push(Some(2.0), Some(4.0));
        rp.clear();
        assert!(rp.is_empty());
        assert_eq!(rp.contributing(), 0);
        assert_eq!(rp.correlation(), None);
    }
}
