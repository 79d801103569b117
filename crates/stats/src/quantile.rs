//! Quantiles with linear interpolation (type-7, the R/NumPy default).

/// Returns the `q`-quantile (`0 ≤ q ≤ 1`) of the data by linear interpolation
/// between closest ranks. Returns `None` for empty input or `q` outside
/// `[0, 1]`. The input need not be sorted.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    Some(quantile_sorted(&sorted, q).expect("non-empty"))
}

/// Like [`quantile`] but assumes `xs` is already ascending — O(1).
pub fn quantile_sorted(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let h = q * (xs.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        return Some(xs[lo]);
    }
    let frac = h - lo as f64;
    Some(xs[lo] + (xs[hi] - xs[lo]) * frac)
}

/// Median (the 0.5-quantile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// [`median`] of a caller-owned buffer, sorted in place rather than
/// copied — the allocation-free form for per-interval callers. The sort is
/// unstable, so equal values may swap places; only a ±0 tie could tell.
pub(crate) fn median_in_place(xs: &mut [f64]) -> Option<f64> {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_out_of_range() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(quantile(&[1.0], 1.1), None);
    }

    #[test]
    fn single_element_every_quantile() {
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(quantile(&[7.0], q), Some(7.0));
        }
    }

    #[test]
    fn endpoints_are_min_and_max() {
        let xs = [9.0, 1.0, 5.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
    }

    #[test]
    fn median_even_count_interpolates() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_odd_count_exact() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn quartiles_match_numpy_type7() {
        // numpy.percentile([1,2,3,4], [25, 75]) => [1.75, 3.25]
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.75).unwrap() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_handled() {
        let xs = [10.0, -5.0, 0.0, 20.0, 5.0];
        assert_eq!(median(&xs), Some(5.0));
    }

    #[test]
    fn sorted_variant_matches() {
        let mut xs = vec![3.0, 1.0, 4.0, 1.5, 9.0, 2.6];
        let q1 = quantile(&xs, 0.3).unwrap();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q2 = quantile_sorted(&xs, 0.3).unwrap();
        assert_eq!(q1, q2);
    }
}
