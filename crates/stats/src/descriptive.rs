//! Means, variances and an online (Welford) accumulator.
//!
//! PerfCloud's interference signal is the *population* standard deviation of
//! a metric across the VMs of one application at one instant (a complete
//! population, not a sample), so [`population_stddev`] is the primary export.

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (divides by `n`). Returns `None` for an empty slice.
pub fn population_variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation (divides by `n`).
pub fn population_stddev(xs: &[f64]) -> Option<f64> {
    population_variance(xs).map(f64::sqrt)
}

/// Kahan–Babuška (Neumaier) compensated sum for fixed-order reductions.
///
/// A plain `f64` sum loses low bits on every add; a Welford accumulator is
/// better but its running mean still rounds once per observation, so two
/// mathematically equal pipelines can disagree in the last couple of ulps —
/// enough to flip a near-threshold comparison downstream. Compensated
/// summation carries the rounding error in a second term, making the total
/// exact to one final rounding for realistic inputs. The reduction order is
/// whatever order the caller feeds values in; callers that need
/// reproducibility across code paths must fix that order themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompensatedSum {
    sum: f64,
    compensation: f64,
}

impl CompensatedSum {
    /// An empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term (Neumaier's variant: also exact when the term is
    /// larger in magnitude than the running sum).
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sum + self.compensation
    }
}

/// Population standard deviation of the finite values yielded by `values`,
/// computed as a fixed-order two-pass compensated reduction: a compensated
/// mean, then a compensated sum of squared deviations. `values` is iterated
/// twice, so it must yield the same sequence both times (the caller's fixed
/// order *is* the reduction order). Returns `None` with fewer than
/// `min_count` finite values.
///
/// This is the summation-order-stable kernel for near-threshold comparisons:
/// unlike a streaming Welford pass, the two-pass form does not compound a
/// per-observation rounding of the running mean into the squared terms.
pub fn population_stddev_stable<I: Iterator<Item = f64>>(
    values: impl Fn() -> I,
    min_count: u64,
) -> Option<f64> {
    let mut n = 0u64;
    let mut sum = CompensatedSum::new();
    for v in values().filter(|v| v.is_finite()) {
        n += 1;
        sum.add(v);
    }
    if n < min_count.max(1) {
        return None;
    }
    let mean = sum.total() / n as f64;
    let mut m2 = CompensatedSum::new();
    for v in values().filter(|v| v.is_finite()) {
        let d = v - mean;
        m2.add(d * d);
    }
    // All addends are non-negative; compensation can still leave the total
    // an ulp below zero.
    Some((m2.total() / n as f64).max(0.0).sqrt())
}

/// Numerically stable online accumulator (Welford's algorithm) for mean,
/// variance, min and max of a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// An empty accumulator.
    pub fn new() -> Self {
        Running { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Feeds one observation. Non-finite values (NaN/inf from corrupted
    /// telemetry) are ignored: one poisoned sample must not destroy the
    /// accumulated mean/variance the detector depends on.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `None` if no observations.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Running population variance.
    pub fn population_variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Running population standard deviation.
    pub fn population_stddev(&self) -> Option<f64> {
        self.population_variance().map(f64::sqrt)
    }

    /// Running sample variance (n - 1 denominator).
    pub fn sample_variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Smallest observation; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_yield_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(population_variance(&[]), None);
        assert_eq!(population_stddev(&[]), None);
        let mut r = Running::new();
        assert_eq!(r.sample_variance(), None);
        r.push(1.0);
        assert_eq!(r.sample_variance(), None);
    }

    #[test]
    fn known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert_eq!(population_variance(&xs), Some(4.0));
        assert_eq!(population_stddev(&xs), Some(2.0));
        let mut r = Running::new();
        xs.iter().for_each(|&x| r.push(x));
        assert!((r.sample_variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_has_zero_spread() {
        let xs = [3.5; 10];
        assert_eq!(population_stddev(&xs), Some(0.0));
        let mut r = Running::new();
        xs.iter().for_each(|&x| r.push(x));
        assert_eq!(r.sample_variance(), Some(0.0));
    }

    #[test]
    fn running_matches_batch() {
        let xs = [1.0, -2.5, 3.75, 0.0, 10.0, -7.25, 2.0];
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        assert_eq!(r.count(), xs.len() as u64);
        assert!((r.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!(
            (r.population_variance().unwrap() - population_variance(&xs).unwrap()).abs() < 1e-12
        );
        let n = xs.len() as f64;
        let sample_variance = population_variance(&xs).unwrap() * n / (n - 1.0);
        assert!((r.sample_variance().unwrap() - sample_variance).abs() < 1e-12);
        assert_eq!(r.min(), Some(-7.25));
        assert_eq!(r.max(), Some(10.0));
    }

    #[test]
    fn running_empty_is_none() {
        let r = Running::new();
        assert_eq!(r.mean(), None);
        assert_eq!(r.population_stddev(), None);
        assert_eq!(r.min(), None);
        assert_eq!(r.max(), None);
    }

    #[test]
    fn running_ignores_nan_and_inf() {
        let mut r = Running::new();
        r.push(2.0);
        r.push(f64::NAN);
        r.push(f64::INFINITY);
        r.push(f64::NEG_INFINITY);
        r.push(4.0);
        assert_eq!(r.count(), 2);
        assert_eq!(r.mean(), Some(3.0));
        assert_eq!(r.population_variance(), Some(1.0));
        assert_eq!(r.min(), Some(2.0));
        assert_eq!(r.max(), Some(4.0));
    }

    #[test]
    fn running_all_nan_stream_stays_empty() {
        let mut r = Running::new();
        for _ in 0..16 {
            r.push(f64::NAN);
        }
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), None);
        assert_eq!(r.population_stddev(), None);
    }

    #[test]
    fn running_stuck_at_constant_has_zero_spread() {
        let mut r = Running::new();
        for _ in 0..50 {
            r.push(9.25);
        }
        assert_eq!(r.population_stddev(), Some(0.0));
        assert_eq!(r.mean(), Some(9.25));
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let mut ra = Running::new();
        let mut rb = Running::new();
        for &x in &a {
            ra.push(x);
        }
        for &x in &b {
            rb.push(x);
        }
        let mut merged = ra;
        merged.merge(&rb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        assert!((merged.mean().unwrap() - mean(&all).unwrap()).abs() < 1e-12);
        assert!(
            (merged.population_variance().unwrap() - population_variance(&all).unwrap()).abs()
                < 1e-12
        );
        assert_eq!(merged.min(), Some(1.0));
        assert_eq!(merged.max(), Some(40.0));
    }

    #[test]
    fn compensated_sum_recovers_cancelled_bits() {
        // 1 + 1e100 - 1e100 ... naive summation returns 0; compensation
        // recovers the small terms exactly.
        let mut c = CompensatedSum::new();
        for x in [1.0, 1e100, 1.0, -1e100] {
            c.add(x);
        }
        assert_eq!(c.total(), 2.0);
    }

    #[test]
    fn stable_stddev_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let d = population_stddev_stable(|| xs.iter().copied(), 2).unwrap();
        assert_eq!(d, 2.0);
    }

    #[test]
    fn stable_stddev_respects_min_count_and_skips_non_finite() {
        let xs = [1.0, f64::NAN, f64::INFINITY];
        assert_eq!(population_stddev_stable(|| xs.iter().copied(), 2), None);
        let ys = [1.0, f64::NAN, 3.0];
        let d = population_stddev_stable(|| ys.iter().copied(), 2).unwrap();
        assert_eq!(d, 1.0);
    }

    #[test]
    fn stable_stddev_constant_input_is_exactly_zero() {
        let xs = [0.1 + 0.2; 9]; // a value with plenty of low bits
        assert_eq!(population_stddev_stable(|| xs.iter().copied(), 2), Some(0.0));
    }

    #[test]
    fn stable_stddev_is_close_to_welford_on_ill_conditioned_data() {
        // Large mean, tiny spread: the regime where single-pass kernels
        // shed bits. The two-pass compensated result equals the shifted
        // exact computation.
        // Base and offsets chosen exactly representable, so the only error
        // source is the reduction itself.
        let base = (1u64 << 40) as f64;
        let xs: Vec<f64> = (0..18).map(|i| base + (i % 3) as f64 * 0.5).collect();
        let shifted: Vec<f64> = xs.iter().map(|x| x - base).collect();
        let exact = population_stddev(&shifted).unwrap();
        let stable = population_stddev_stable(|| xs.iter().copied(), 2).unwrap();
        assert!((stable - exact).abs() < 1e-12, "stable {stable} vs exact {exact}");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut r = Running::new();
        r.push(5.0);
        r.push(6.0);
        let before = r;
        r.merge(&Running::new());
        assert_eq!(r, before);

        let mut e = Running::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
