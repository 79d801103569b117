//! Property-based tests for the statistics toolkit.

use perfcloud_sim::SimTime;
use perfcloud_stats::pearson::pearson_victim_aware;
use perfcloud_stats::timeseries::align_tail;
use perfcloud_stats::{
    mean, median, pearson, pearson_missing_as_zero, population_stddev, quantile, robust_stddev,
    BoxplotSummary, Ewma, RollingPearson, Running, TimeSeries,
};
use proptest::prelude::*;

/// 1e-9 relative agreement — the rolling accumulators' contract with their
/// batch counterparts.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, len)
}

/// The reference `TimeSeries`: one `Vec` of samples, trimmed by draining
/// its front — the straightforward form of sliding-window retention.
#[derive(Clone, Default)]
struct ModelSeries(Vec<(SimTime, Option<f64>)>);

impl ModelSeries {
    fn retain_last(&mut self, n: usize) {
        let cut = self.0.len().saturating_sub(n);
        self.0.drain(..cut);
    }

    fn times(&self) -> Vec<SimTime> {
        self.0.iter().map(|p| p.0).collect()
    }

    fn values(&self) -> Vec<Option<f64>> {
        self.0.iter().map(|p| p.1).collect()
    }

    fn last_present(&self) -> Option<(SimTime, f64)> {
        self.0.iter().rev().find_map(|&(t, v)| v.map(|v| (t, v)))
    }
}

/// Reference `align_tail`: the most recent `window` timestamps common to
/// both models, oldest first, found by a quadratic search.
fn model_align(a: &ModelSeries, b: &ModelSeries, window: usize) -> Vec<(Option<f64>, Option<f64>)> {
    let common: Vec<_> =
        a.0.iter()
            .filter_map(|&(t, x)| b.0.iter().find(|p| p.0 == t).map(|&(_, y)| (x, y)))
            .collect();
    common[common.len().saturating_sub(window)..].to_vec()
}

/// Reference robust deviation: copy, stable-sort and take medians with the
/// allocating [`median`].
fn naive_robust_stddev(xs: &[f64]) -> Option<f64> {
    let clean: Vec<f64> = xs.iter().copied().filter(|v| v.is_finite()).collect();
    if clean.len() < 2 {
        return None;
    }
    let m = median(&clean)?;
    let dev: Vec<f64> = clean.iter().map(|v| (v - m).abs()).collect();
    median(&dev).map(|mad| mad * perfcloud_stats::rank::MAD_TO_SIGMA)
}

proptest! {
    /// Pearson is always in [-1, 1] when defined.
    #[test]
    fn pearson_bounded(x in finite_vec(2..64), y in finite_vec(2..64)) {
        let n = x.len().min(y.len());
        if let Some(r) = pearson(&x[..n], &y[..n]) {
            prop_assert!((-1.0..=1.0).contains(&r));
        }
    }

    /// Pearson is symmetric: r(x, y) == r(y, x).
    #[test]
    fn pearson_symmetric(x in finite_vec(2..32), y in finite_vec(2..32)) {
        let n = x.len().min(y.len());
        let a = pearson(&x[..n], &y[..n]);
        let b = pearson(&y[..n], &x[..n]);
        match (a, b) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
            (None, None) => {}
            _ => prop_assert!(false, "asymmetric definedness"),
        }
    }

    /// Correlation of a series with a positive affine image of itself is 1.
    #[test]
    fn pearson_affine_is_one(x in finite_vec(3..32), scale in 0.001f64..100.0, shift in -1e3f64..1e3) {
        let y: Vec<f64> = x.iter().map(|v| scale * v + shift).collect();
        if let Some(r) = pearson(&x, &y) {
            prop_assert!((r - 1.0).abs() < 1e-6, "r = {r}");
        }
    }

    /// Missing-as-zero equals plain Pearson on complete data.
    #[test]
    fn missing_as_zero_consistent(x in finite_vec(2..32), y in finite_vec(2..32)) {
        let n = x.len().min(y.len());
        let xo: Vec<Option<f64>> = x[..n].iter().copied().map(Some).collect();
        let yo: Vec<Option<f64>> = y[..n].iter().copied().map(Some).collect();
        prop_assert_eq!(pearson(&x[..n], &y[..n]), pearson_missing_as_zero(&xo, &yo));
    }

    /// Population stddev is non-negative and zero iff all values equal.
    #[test]
    fn stddev_nonnegative(x in finite_vec(1..64)) {
        let sd = population_stddev(&x).unwrap();
        prop_assert!(sd >= 0.0);
        let all_same = x.iter().all(|&v| v == x[0]);
        if all_same {
            prop_assert!(sd == 0.0);
        }
    }

    /// Adding a constant shifts the mean and leaves stddev unchanged.
    #[test]
    fn stddev_translation_invariant(x in finite_vec(2..64), c in -1e4f64..1e4) {
        let shifted: Vec<f64> = x.iter().map(|v| v + c).collect();
        let sd0 = population_stddev(&x).unwrap();
        let sd1 = population_stddev(&shifted).unwrap();
        prop_assert!((sd0 - sd1).abs() < 1e-6 * (1.0 + sd0.abs()));
        let m0 = mean(&x).unwrap();
        let m1 = mean(&shifted).unwrap();
        prop_assert!((m1 - (m0 + c)).abs() < 1e-6 * (1.0 + m0.abs() + c.abs()));
    }

    /// Welford accumulator agrees with the batch formulas.
    #[test]
    fn running_matches_batch(x in finite_vec(1..128)) {
        let mut r = Running::new();
        for &v in &x {
            r.push(v);
        }
        let bm = mean(&x).unwrap();
        let bs = population_stddev(&x).unwrap();
        prop_assert!((r.mean().unwrap() - bm).abs() < 1e-6 * (1.0 + bm.abs()));
        prop_assert!((r.population_stddev().unwrap() - bs).abs() < 1e-6 * (1.0 + bs));
    }

    /// Quantiles are monotone in q and bounded by the extremes.
    #[test]
    fn quantiles_monotone(x in finite_vec(1..64), qa in 0.0f64..1.0, qb in 0.0f64..1.0) {
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let vlo = quantile(&x, lo).unwrap();
        let vhi = quantile(&x, hi).unwrap();
        prop_assert!(vlo <= vhi + 1e-12);
        let min = x.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(vlo >= min - 1e-12 && vhi <= max + 1e-12);
    }

    /// Boxplot internal ordering always holds.
    #[test]
    fn boxplot_ordering(x in finite_vec(1..64)) {
        let b = BoxplotSummary::from_data(&x).unwrap();
        prop_assert!(b.min <= b.q1);
        prop_assert!(b.q1 <= b.median);
        prop_assert!(b.median <= b.q3);
        prop_assert!(b.q3 <= b.max);
        prop_assert!(b.whisker_low >= b.min && b.whisker_high <= b.max);
        prop_assert!(b.iqr() >= 0.0);
        prop_assert_eq!(b.count, x.len());
    }

    /// EWMA output always lies within the range of inputs seen so far.
    #[test]
    fn ewma_bounded_by_inputs(alpha in 0.01f64..1.0, x in finite_vec(1..64)) {
        let mut e = Ewma::new(alpha);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &x {
            lo = lo.min(v);
            hi = hi.max(v);
            let s = e.update(v);
            prop_assert!(s >= lo - 1e-9 && s <= hi + 1e-9, "EWMA {s} outside [{lo}, {hi}]");
        }
    }

    /// After every push, `RollingPearson` agrees with the batch victim-aware
    /// Pearson over the same window to 1e-9 relative — including on whether
    /// the correlation is defined at all.
    #[test]
    fn rolling_pearson_matches_batch(
        window in 2usize..16,
        pairs in proptest::collection::vec(
            (proptest::option::of(-1e3f64..1e3), proptest::option::of(-1e3f64..1e3)),
            0..200,
        ),
    ) {
        let mut rp = RollingPearson::new(window);
        let mut mirror: Vec<(Option<f64>, Option<f64>)> = Vec::new();
        for &(v, s) in &pairs {
            rp.push(v, s);
            mirror.push((v, s));
            let start = mirror.len().saturating_sub(window);
            let x: Vec<Option<f64>> = mirror[start..].iter().map(|p| p.0).collect();
            let y: Vec<Option<f64>> = mirror[start..].iter().map(|p| p.1).collect();
            match (rp.correlation(), pearson_victim_aware(&x, &y)) {
                (Some(r), Some(b)) => prop_assert!(close(r, b), "rolled {r} vs batch {b}"),
                (None, None) => {}
                (r, b) => prop_assert!(
                    false,
                    "definedness mismatch: {r:?} vs {b:?}\nx = {x:?}\ny = {y:?}"
                ),
            }
        }
    }

    /// Same agreement under arbitrary interleavings of pushes and explicit
    /// evictions (the window is rarely full in this regime, exercising the
    /// partial-window paths and the refresh counter).
    #[test]
    fn rolling_pearson_survives_explicit_evictions(
        window in 2usize..12,
        ops in proptest::collection::vec(
            (0u8..4, proptest::option::of(-1e3f64..1e3), proptest::option::of(-1e3f64..1e3)),
            0..300,
        ),
    ) {
        let mut rp = RollingPearson::new(window);
        let mut mirror: std::collections::VecDeque<(Option<f64>, Option<f64>)> =
            std::collections::VecDeque::new();
        for &(op, v, s) in &ops {
            if op == 0 {
                // 1-in-4 ops evict; the rest push.
                rp.evict();
                mirror.pop_front();
            } else {
                if mirror.len() == window {
                    mirror.pop_front();
                }
                rp.push(v, s);
                mirror.push_back((v, s));
            }
            prop_assert_eq!(rp.len(), mirror.len());
            let x: Vec<Option<f64>> = mirror.iter().map(|p| p.0).collect();
            let y: Vec<Option<f64>> = mirror.iter().map(|p| p.1).collect();
            match (rp.correlation(), pearson_victim_aware(&x, &y)) {
                (Some(r), Some(b)) => prop_assert!(close(r, b), "rolled {r} vs batch {b}"),
                (None, None) => {}
                (r, b) => prop_assert!(false, "definedness mismatch: {r:?} vs {b:?}"),
            }
        }
    }

    /// The offset-trimmed `TimeSeries` behaves exactly like a `Vec` trimmed
    /// by draining its front, under any interleaving of pushes, trims and
    /// clones on two series: same window, same latest samples, same
    /// equality, and the same aligned tails.
    #[test]
    fn time_series_matches_drain_model(
        ops in proptest::collection::vec(
            (0u8..8, 0u8..2, 1u64..4, proptest::option::of(-1e3f64..1e3), 0usize..24),
            0..300,
        ),
        window in 1usize..32,
    ) {
        let mut series = [TimeSeries::new(), TimeSeries::new()];
        let mut models = [ModelSeries::default(), ModelSeries::default()];
        let mut clocks = [0u64; 2];
        for &(op, which, gap, value, n) in &ops {
            let (ts, model) = (&mut series[usize::from(which)], &mut models[usize::from(which)]);
            match op {
                // Half the ops push; trims and clones share the rest.
                0..=3 => {
                    let clock = &mut clocks[usize::from(which)];
                    *clock += gap;
                    ts.push(SimTime::from_secs(*clock), value);
                    model.0.push((SimTime::from_secs(*clock), value));
                }
                4..=6 => {
                    ts.retain_last(n);
                    model.retain_last(n);
                }
                _ => *ts = ts.clone(),
            }
            prop_assert_eq!(ts.times(), model.times().as_slice());
            prop_assert_eq!(ts.values(), model.values().as_slice());
            prop_assert_eq!(ts.len(), model.0.len());
            prop_assert_eq!(ts.last(), model.0.last().copied());
            prop_assert_eq!(ts.last_present(), model.last_present());
        }
        // Equality sees only the retained window, whatever the offsets.
        let fresh: Vec<TimeSeries> = models
            .iter()
            .map(|m| {
                let mut t = TimeSeries::new();
                for &(at, v) in &m.0 {
                    t.push(at, v);
                }
                t
            })
            .collect();
        prop_assert!(series[0] == fresh[0] && series[1] == fresh[1]);
        prop_assert_eq!(series[0] == series[1], models[0].0 == models[1].0);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        align_tail(&series[0], &series[1], window, &mut xs, &mut ys);
        let want = model_align(&models[0], &models[1], window);
        let got: Vec<_> = xs.into_iter().zip(ys).collect();
        prop_assert_eq!(got, want);
    }

    /// The in-place robust deviation is bit-identical to the copying,
    /// stable-sorting reference, ties and non-finite values included.
    #[test]
    fn robust_stddev_matches_copying_reference(
        xs in proptest::collection::vec(
            (0u8..8, -1e3f64..1e3).prop_map(|(k, v)| match k {
                0 => f64::NAN,
                1 => v.round(), // frequent ties
                2 => 0.0,
                _ => v,
            }),
            0..40,
        ),
    ) {
        let got = robust_stddev(&mut xs.clone());
        let want = naive_robust_stddev(&xs);
        prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{:?}", xs);
    }
}
