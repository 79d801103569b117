//! Timestamped series of metric samples.
//!
//! The monitor produces one sample per VM per 5-second interval; the
//! antagonist identifier correlates aligned windows of these series. Samples
//! may be missing (`None`) when a counter had no activity in the interval —
//! e.g. the block-iowait ratio is undefined when no I/O was serviced, and LLC
//! miss rates "are not counted when the VMs are not running any workload".

use perfcloud_sim::SimTime;
use std::fmt;

/// A time series of optionally-missing samples at monotonically increasing
/// timestamps.
///
/// Sliding-window retention is O(1): [`retain_last`](Self::retain_last)
/// only advances `start` past the samples it drops, and
/// [`push`](Self::push) reclaims that dead prefix — one shift of the live
/// window — only when a column is at capacity. A trimmed series therefore
/// never grows past the capacity it already has, and the shift cost is
/// amortized over the dead prefix's length instead of paid on every push.
/// Equality, `Debug` and `Clone` see only the retained window.
#[derive(Default)]
pub struct TimeSeries {
    times: Vec<SimTime>,
    values: Vec<Option<f64>>,
    /// Index of the first retained sample in both columns.
    start: usize,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample. Panics if `t` is not after the last timestamp.
    pub fn push(&mut self, t: SimTime, value: Option<f64>) {
        if let Some(&last) = self.times().last() {
            assert!(t > last, "time series timestamps must be strictly increasing: {t} <= {last}");
        }
        let full = self.times.len() == self.times.capacity()
            || self.values.len() == self.values.capacity();
        if full && self.start > 0 {
            self.times.drain(..self.start);
            self.values.drain(..self.start);
            self.start = 0;
        }
        self.times.push(t);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len() - self.start
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timestamps.
    pub fn times(&self) -> &[SimTime] {
        &self.times[self.start..]
    }

    /// Values (possibly missing).
    pub fn values(&self) -> &[Option<f64>] {
        &self.values[self.start..]
    }

    /// Latest value (ignoring whether missing).
    pub fn last(&self) -> Option<(SimTime, Option<f64>)> {
        Some((*self.times().last()?, *self.values().last()?))
    }

    /// Latest present (non-missing) value.
    pub fn last_present(&self) -> Option<(SimTime, f64)> {
        self.times().iter().zip(self.values()).rev().find_map(|(&t, &v)| v.map(|v| (t, v)))
    }

    /// Maximum present value, if any.
    pub fn max(&self) -> Option<f64> {
        self.values().iter().filter_map(|v| *v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }

    /// Returns a copy normalized by the peak present value (paper Figs. 5–6
    /// plot series "normalized by the peak"). Missing stays missing. If the
    /// peak is 0 or absent, values are unchanged.
    pub fn normalized_by_peak(&self) -> TimeSeries {
        let peak = self.max().filter(|&m| m > 0.0);
        let values = match peak {
            None => self.values().to_vec(),
            Some(p) => self.values().iter().map(|v| v.map(|x| x / p)).collect(),
        };
        TimeSeries { times: self.times().to_vec(), values, start: 0 }
    }

    /// Returns a copy with trailing missing samples removed — e.g. the
    /// victim deviation series after the application has finished.
    pub fn trim_trailing_missing(&self) -> TimeSeries {
        let keep = self.values().iter().rposition(|v| v.is_some()).map(|i| i + 1).unwrap_or(0);
        TimeSeries {
            times: self.times()[..keep].to_vec(),
            values: self.values()[..keep].to_vec(),
            start: 0,
        }
    }

    /// Drops all but the most recent `n` samples (sliding-window retention).
    pub fn retain_last(&mut self, n: usize) {
        self.start += self.len().saturating_sub(n);
    }
}

impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.times() == other.times() && self.values() == other.values()
    }
}

impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeSeries")
            .field("times", &self.times())
            .field("values", &self.values())
            .finish()
    }
}

impl Clone for TimeSeries {
    fn clone(&self) -> Self {
        TimeSeries { times: self.times().to_vec(), values: self.values().to_vec(), start: 0 }
    }
}

/// Aligns the tails of two series by timestamp and writes paired values for
/// the most recent `window` timestamps present in **both** series into
/// `xs`/`ys` (cleared first, oldest first), so a caller that aligns every
/// interval reuses its buffers. Missing values are preserved as `None` for
/// the caller's missing-value policy.
pub fn align_tail(
    a: &TimeSeries,
    b: &TimeSeries,
    window: usize,
    xs: &mut Vec<Option<f64>>,
    ys: &mut Vec<Option<f64>>,
) {
    xs.clear();
    ys.clear();
    let (at, av) = (a.times(), a.values());
    let (bt, bv) = (b.times(), b.values());
    let mut ia = at.len();
    let mut ib = bt.len();
    while ia > 0 && ib > 0 && xs.len() < window {
        match at[ia - 1].cmp(&bt[ib - 1]) {
            std::cmp::Ordering::Equal => {
                xs.push(av[ia - 1]);
                ys.push(bv[ib - 1]);
                ia -= 1;
                ib -= 1;
            }
            std::cmp::Ordering::Greater => ia -= 1,
            std::cmp::Ordering::Less => ib -= 1,
        }
    }
    xs.reverse();
    ys.reverse();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_read_back() {
        let mut ts = TimeSeries::new();
        ts.push(t(5), Some(1.0));
        ts.push(t(10), None);
        ts.push(t(15), Some(3.0));
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.last(), Some((t(15), Some(3.0))));
        assert_eq!(ts.last_present(), Some((t(15), 3.0)));
        assert_eq!(ts.values(), &[Some(1.0), None, Some(3.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_push_rejected() {
        let mut ts = TimeSeries::new();
        ts.push(t(5), Some(1.0));
        ts.push(t(5), Some(2.0));
    }

    #[test]
    fn normalization_by_peak() {
        let mut ts = TimeSeries::new();
        ts.push(t(1), Some(2.0));
        ts.push(t(2), None);
        ts.push(t(3), Some(8.0));
        let n = ts.normalized_by_peak();
        assert_eq!(n.values(), &[Some(0.25), None, Some(1.0)]);
        assert_eq!(n.times(), ts.times());
    }

    #[test]
    fn normalization_of_all_missing_is_identity() {
        let mut ts = TimeSeries::new();
        ts.push(t(1), None);
        ts.push(t(2), None);
        assert_eq!(ts.normalized_by_peak(), ts);
        assert_eq!(ts.max(), None);
    }

    #[test]
    fn trim_trailing_missing_cuts_the_tail() {
        let mut ts = TimeSeries::new();
        ts.push(t(1), Some(1.0));
        ts.push(t(2), None);
        ts.push(t(3), Some(3.0));
        ts.push(t(4), None);
        ts.push(t(5), None);
        let trimmed = ts.trim_trailing_missing();
        assert_eq!(trimmed.len(), 3);
        assert_eq!(trimmed.values(), &[Some(1.0), None, Some(3.0)]);
        // All-missing series trims to empty.
        let mut all_none = TimeSeries::new();
        all_none.push(t(1), None);
        assert!(all_none.trim_trailing_missing().is_empty());
    }

    #[test]
    fn retain_last_trims_front() {
        let mut ts = TimeSeries::new();
        for s in 1..=10 {
            ts.push(t(s), Some(s as f64));
        }
        ts.retain_last(3);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.times(), &[t(8), t(9), t(10)]);
        ts.retain_last(10); // no-op when already short
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn trimmed_series_reuses_its_capacity() {
        // Pushing before trimming peaks the series at `horizon + 1` samples;
        // from then on the dead prefix is reclaimed, never grown past.
        for horizon in [1usize, 3, 4, 7, 64, 192, 200] {
            let mut ts = TimeSeries::new();
            let mut s = 0;
            let mut step = |ts: &mut TimeSeries| {
                s += 1;
                ts.push(t(s), Some(s as f64));
                ts.retain_last(horizon);
            };
            for _ in 0..=horizon {
                step(&mut ts);
            }
            let cap = (ts.times.capacity(), ts.values.capacity());
            for _ in 0..10_000 {
                step(&mut ts);
            }
            assert_eq!((ts.times.capacity(), ts.values.capacity()), cap, "horizon {horizon}");
            assert_eq!(ts.len(), horizon);
            assert_eq!(ts.last().unwrap().0, t(10_001 + horizon as u64));
        }
    }

    #[test]
    fn equality_debug_and_clone_see_only_the_window() {
        let mut trimmed = TimeSeries::new();
        let mut fresh = TimeSeries::new();
        for s in 1..=6 {
            trimmed.push(t(s), Some(s as f64));
        }
        trimmed.retain_last(2);
        fresh.push(t(5), Some(5.0));
        fresh.push(t(6), Some(6.0));
        assert_eq!(trimmed, fresh);
        assert_eq!(format!("{trimmed:?}"), format!("{fresh:?}"));
        let copy = trimmed.clone();
        assert_eq!(copy.start, 0);
        assert_eq!(copy, fresh);
    }

    #[test]
    fn align_tail_matches_common_timestamps() {
        let mut a = TimeSeries::new();
        let mut b = TimeSeries::new();
        for s in [1u64, 2, 3, 4, 5] {
            a.push(t(s), Some(s as f64));
        }
        for s in [2u64, 3, 5, 6] {
            b.push(t(s), Some(10.0 * s as f64));
        }
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        align_tail(&a, &b, 10, &mut xs, &mut ys);
        assert_eq!(xs, vec![Some(2.0), Some(3.0), Some(5.0)]);
        assert_eq!(ys, vec![Some(20.0), Some(30.0), Some(50.0)]);
    }

    #[test]
    fn align_tail_respects_window() {
        let mut a = TimeSeries::new();
        let mut b = TimeSeries::new();
        for s in 1..=8u64 {
            a.push(t(s), Some(s as f64));
            b.push(t(s), Some(-(s as f64)));
        }
        // Stale contents of the output buffers are cleared first.
        let (mut xs, mut ys) = (vec![Some(0.0); 5], vec![None; 7]);
        align_tail(&a, &b, 3, &mut xs, &mut ys);
        assert_eq!(xs, vec![Some(6.0), Some(7.0), Some(8.0)]);
        assert_eq!(ys.len(), 3);
    }

    #[test]
    fn align_tail_preserves_missing() {
        let mut a = TimeSeries::new();
        let mut b = TimeSeries::new();
        a.push(t(1), Some(1.0));
        a.push(t(2), None);
        b.push(t(1), None);
        b.push(t(2), Some(5.0));
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        align_tail(&a, &b, 10, &mut xs, &mut ys);
        assert_eq!(xs, vec![Some(1.0), None]);
        assert_eq!(ys, vec![None, Some(5.0)]);
    }

    #[test]
    fn align_disjoint_series_is_empty() {
        let mut a = TimeSeries::new();
        let mut b = TimeSeries::new();
        a.push(t(1), Some(1.0));
        b.push(t(2), Some(2.0));
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        align_tail(&a, &b, 10, &mut xs, &mut ys);
        assert!(xs.is_empty() && ys.is_empty());
    }
}
