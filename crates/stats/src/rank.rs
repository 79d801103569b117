//! Rank (Spearman) correlation and robust scale estimates.
//!
//! The paper's identifier uses plain Pearson correlation, which is
//! scale-invariant (a tiny innocent VM whose usage merely *co-moves* with
//! the victim's suffering correlates as strongly as the heavy antagonist
//! causing it) and moment-based (one corrupted spike drags the coefficient
//! arbitrarily). The alternative pipelines trade both weaknesses away:
//! Spearman's rank correlation bounds any single sample's influence, and
//! the MAD-based robust deviation ignores a minority of corrupted VMs
//! entirely. Both follow the identifier's victim-aware missing policy so
//! they are drop-in replacements over the same aligned windows.

use crate::pearson::pearson;
use crate::quantile::median_in_place;

/// Reusable buffers for [`spearman_victim_aware_lagged`]: one lag's
/// contributing pairs, their ranks and the sort permutation. Once they have
/// grown to the correlation window, the per-interval lag scan allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct RankScratch {
    ax: Vec<f64>,
    ay: Vec<f64>,
    rx: Vec<f64>,
    ry: Vec<f64>,
    order: Vec<usize>,
}

/// Writes the average ranks (1-based) of `xs` into `out`, with ties
/// receiving the mean of the positions they span — the standard
/// "fractional ranking" Spearman uses. `order` is sort scratch. Tied
/// values share one rank, so the order the sort leaves them in is
/// irrelevant.
fn average_ranks_into(xs: &[f64], order: &mut Vec<usize>, out: &mut Vec<f64>) {
    order.clear();
    order.extend(0..xs.len());
    order.sort_unstable_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in rank input"));
    out.clear();
    out.resize(xs.len(), 0.0);
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Positions i..=j (0-based) share the value; mean 1-based rank.
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
}

/// The identifier's victim-aware missing policy applied to Spearman (Pearson
/// on the average ranks), over victim-delay alignments `0..=max_lag` (best
/// coefficient wins): pairs with a missing (or non-finite) victim
/// observation are omitted, missing suspect observations count as zero.
/// Mirrors
/// [`pearson_victim_aware_lagged`](crate::pearson::pearson_victim_aware_lagged)
/// with ranks substituted for values. A lag is skipped when either side is
/// constant.
pub fn spearman_victim_aware_lagged(
    x: &[Option<f64>],
    y: &[Option<f64>],
    max_lag: usize,
    min_pairs: usize,
    scratch: &mut RankScratch,
) -> Option<f64> {
    if x.len() != y.len() {
        return None;
    }
    let min_pairs = min_pairs.max(2);
    let RankScratch { ax, ay, rx, ry, order } = scratch;
    let mut best: Option<f64> = None;
    for lag in 0..=max_lag.min(x.len().saturating_sub(1)) {
        ax.clear();
        ay.clear();
        for (a, b) in x[lag..].iter().zip(y.iter()) {
            let Some(a) = a.filter(|v| v.is_finite()) else { continue };
            ax.push(a);
            ay.push(b.filter(|v| v.is_finite()).unwrap_or(0.0));
        }
        if ax.len() < min_pairs {
            continue;
        }
        average_ranks_into(ax, order, rx);
        average_ranks_into(ay, order, ry);
        if let Some(r) = pearson(rx, ry) {
            best = Some(match best {
                Some(b) if b >= r => b,
                _ => r,
            });
        }
    }
    best
}

/// Scale factor making the MAD a consistent estimator of the standard
/// deviation under normality (1 / Φ⁻¹(3/4)).
pub const MAD_TO_SIGMA: f64 = 1.482602218505602;

/// Robust standard-deviation estimate: `1.4826 × MAD` (median absolute
/// deviation from the median) of the finite values of `xs`. Unlike the
/// moment estimator, a minority of arbitrarily corrupted values (NaN
/// spikes, stuck counters on one VM) cannot move it. `None` below 2 finite
/// values — the same floor
/// [`population_stddev_stable`](crate::population_stddev_stable) uses for
/// the across-VM deviation.
///
/// Works in the caller's buffer: `xs` is left holding the sorted absolute
/// deviations.
pub fn robust_stddev(xs: &mut Vec<f64>) -> Option<f64> {
    xs.retain(|v| v.is_finite());
    if xs.len() < 2 {
        return None;
    }
    // A signed-zero median yields the same absolute deviations either way,
    // so the sort's order among equal values cannot reach the result.
    let m = median_in_place(xs)?;
    for v in xs.iter_mut() {
        *v = (*v - m).abs();
    }
    median_in_place(xs).map(|mad| mad * MAD_TO_SIGMA)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn average_ranks(xs: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        average_ranks_into(xs, &mut Vec::new(), &mut out);
        out
    }

    /// Spearman over complete data: every pair contributes at lag 0.
    fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
        let some = |v: &[f64]| v.iter().copied().map(Some).collect::<Vec<_>>();
        spearman_victim_aware_lagged(&some(x), &some(y), 0, 2, &mut RankScratch::default())
    }

    fn robust(xs: &[f64]) -> Option<f64> {
        robust_stddev(&mut xs.to_vec())
    }

    #[test]
    fn ranks_handle_ties() {
        assert_eq!(average_ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(average_ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
        assert_eq!(average_ranks(&[]), Vec::<f64>::new());
    }

    #[test]
    fn spearman_is_monotone_invariant() {
        // Any monotone transform leaves Spearman at exactly 1.
        let x = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -v * v * v).collect();
        assert!((spearman(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_resists_a_spike_pearson_does_not() {
        // A linear relation with one wild outlier pair: Pearson collapses
        // toward the outlier, while the outlier's influence on Spearman is
        // bounded by its rank displacement.
        let mut x: Vec<f64> = (1..=15).map(f64::from).collect();
        let mut y: Vec<f64> = x.iter().map(|v| 1.5 * v + 0.1).collect();
        x.push(1.0e6);
        y.push(-1.0e6);
        let p = pearson(&x, &y).unwrap();
        let s = spearman(&x, &y).unwrap();
        assert!(p < 0.0, "Pearson should be dragged negative, got {p}");
        assert!(s > 0.5, "Spearman should stay positive, got {s}");
    }

    #[test]
    fn spearman_constant_series_is_none() {
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(spearman(&[1.0], &[2.0]), None);
    }

    #[test]
    fn victim_aware_policy_matches_pearson_shape() {
        // Victim missing -> pair omitted; suspect missing -> zero.
        let victim = [None, Some(1.0), Some(2.0), Some(3.0), Some(4.0)];
        let suspect = [Some(9.0), Some(10.0), None, Some(30.0), Some(40.0)];
        // Contributing pairs: (1,10) (2,0) (3,30) (4,40).
        let r = spearman_victim_aware_lagged(&victim, &suspect, 0, 2, &mut RankScratch::default())
            .unwrap();
        let direct = spearman(&[1.0, 2.0, 3.0, 4.0], &[10.0, 0.0, 30.0, 40.0]).unwrap();
        assert_eq!(r, direct);
    }

    #[test]
    fn lag_scan_recovers_shifted_alignment() {
        // Victim responds one interval late: at lag 1 the series align
        // perfectly, at lag 0 they don't.
        let y = [Some(1.0), Some(5.0), Some(2.0), Some(8.0), Some(3.0), Some(9.0), None];
        let x = [None, Some(1.0), Some(5.0), Some(2.0), Some(8.0), Some(3.0), Some(9.0)];
        let mut scratch = RankScratch::default();
        let lag0 = spearman_victim_aware_lagged(&x, &y, 0, 3, &mut scratch).unwrap();
        let lag1 = spearman_victim_aware_lagged(&x, &y, 1, 3, &mut scratch).unwrap();
        assert!((lag1 - 1.0).abs() < 1e-12, "lag-1 alignment is exact, got {lag1}");
        assert!(lag1 > lag0);
    }

    #[test]
    fn mad_and_robust_stddev() {
        // Values {1..5}: median 3, |dev| = {2,1,0,1,2}, MAD = 1.
        let mut xs = vec![5.0, 2.0, 4.0, 1.0, 3.0];
        assert_eq!(robust_stddev(&mut xs), Some(MAD_TO_SIGMA));
        assert_eq!(xs, vec![0.0, 1.0, 1.0, 2.0, 2.0], "left holding the sorted deviations");
        assert_eq!(robust(&[7.0]), None);
        assert_eq!(robust(&[7.0, f64::NAN]), None);
        assert_eq!(robust(&[]), None);
    }

    #[test]
    fn robust_stddev_ignores_a_minority_outlier() {
        let clean = robust(&[10.0, 11.0, 9.0, 10.5, 9.5, 10.2]).unwrap();
        let spiked = robust(&[10.0, 11.0, 9.0, 10.5, 9.5, 500.0]).unwrap();
        // The moment estimator would explode ~50x; MAD moves by a bounded
        // amount (the outlier occupies one rank slot).
        assert!(spiked < 3.0 * clean, "robust scale must bound the spike: {clean} -> {spiked}");
        assert!(robust(&[10.0, 11.0, 9.0, f64::NAN]).is_some());
    }
}
