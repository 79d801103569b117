//! Timestamped series of metric samples.
//!
//! The monitor produces one sample per VM per 5-second interval; the
//! antagonist identifier correlates aligned windows of these series. Samples
//! may be missing (`None`) when a counter had no activity in the interval —
//! e.g. the block-iowait ratio is undefined when no I/O was serviced, and LLC
//! miss rates "are not counted when the VMs are not running any workload".

use perfcloud_sim::SimTime;
use std::fmt;

/// A bounded ring of rows at strictly increasing timestamps: one shared
/// `SimTime` column and `K` value columns, each value optionally missing.
///
/// The series that are always sampled together — a VM's six monitor
/// metrics, an identifier's I/O and CPU deviations — share one timestamp
/// column instead of keeping a copy each. A row is 8 bytes of time, `8·K`
/// bytes of values and one presence byte whose bit `k` says column `k`
/// holds a value, so a missing sample costs no `Option` tag and any `f64`
/// (NaN and ±∞ included) is a value, not a sentinel.
///
/// The ring holds at most `retain` rows. Its columns are allocated once, at
/// exactly `retain` rows, when the first row arrives (a clone holds only
/// its rows and tops up the same way); once full, each new row overwrites
/// the oldest. [`column`](Self::column) borrows one column as a
/// [`SeriesView`], oldest row first.
#[derive(Clone)]
pub struct SeriesRing<const K: usize> {
    times: Vec<SimTime>,
    /// Row-major: row `p`'s value of column `k` is at `p * K + k`.
    values: Vec<f64>,
    present: Vec<u8>,
    /// Physical index of the oldest row; nonzero only once the ring is full.
    head: usize,
    retain: usize,
    /// Bit `k`: column `k` has been written since the ring was last empty.
    recorded: u8,
}

impl<const K: usize> SeriesRing<K> {
    /// An empty ring keeping the last `retain` rows. Allocates nothing
    /// until the first row.
    pub fn new(retain: usize) -> Self {
        assert!(K <= 8, "a presence byte covers at most 8 columns");
        assert!(retain > 0, "a series ring must retain at least one row");
        SeriesRing {
            times: Vec::new(),
            values: Vec::new(),
            present: Vec::new(),
            head: 0,
            retain,
            recorded: 0,
        }
    }

    /// Physical index of the newest row.
    fn newest(&self) -> Option<usize> {
        let rows = self.times.len();
        (rows > 0).then(|| (self.head + rows - 1) % rows)
    }

    /// Timestamp of the newest row.
    pub fn last_time(&self) -> Option<SimTime> {
        self.newest().map(|p| self.times[p])
    }

    /// Whether column `col` has been written (by [`push`](Self::push) or
    /// [`set`](Self::set)) since the ring was last empty.
    pub fn recorded(&self, col: usize) -> bool {
        self.recorded & (1 << col) != 0
    }

    /// Opens a row at `t` with every value missing and returns its
    /// physical index. Panics if `t` is not after the newest row.
    fn open_row(&mut self, t: SimTime) -> usize {
        if let Some(last) = self.last_time() {
            assert!(t > last, "time series timestamps must be strictly increasing: {t} <= {last}");
        }
        let rows = self.times.len();
        if rows == self.retain {
            let p = self.head;
            self.head = if p + 1 == rows { 0 } else { p + 1 };
            self.times[p] = t;
            self.present[p] = 0;
            return p;
        }
        if rows == self.times.capacity() {
            self.times.reserve_exact(self.retain - rows);
            self.values.reserve_exact((self.retain - rows) * K);
            self.present.reserve_exact(self.retain - rows);
        }
        self.times.push(t);
        self.values.extend([0.0; K]);
        self.present.push(0);
        rows
    }

    /// Stores `value` as column `col` of row `p`.
    fn put(&mut self, p: usize, col: usize, value: Option<f64>) {
        let bit = 1u8 << col;
        self.values[p * K + col] = value.unwrap_or(0.0);
        if value.is_some() {
            self.present[p] |= bit;
        } else {
            self.present[p] &= !bit;
        }
        self.recorded |= bit;
    }

    /// Appends a row of all `K` values at `t`. Panics if `t` is not after
    /// the newest row.
    pub fn push(&mut self, t: SimTime, row: [Option<f64>; K]) {
        let p = self.open_row(t);
        for (col, value) in row.into_iter().enumerate() {
            self.put(p, col, value);
        }
    }

    /// Writes one column at `t`: into the newest row if it is at `t`,
    /// otherwise into a new row at `t` whose other columns are missing.
    /// Panics if `t` is before the newest row.
    pub fn set(&mut self, t: SimTime, col: usize, value: Option<f64>) {
        let p = match self.newest() {
            Some(p) if self.times[p] == t => p,
            _ => self.open_row(t),
        };
        self.put(p, col, value);
    }

    /// Drops every row, keeping the capacity.
    pub fn clear(&mut self) {
        self.times.clear();
        self.values.clear();
        self.present.clear();
        self.head = 0;
        self.recorded = 0;
    }

    /// Column `col`, oldest row first.
    pub fn column(&self, col: usize) -> SeriesView<'_> {
        assert!(col < K, "column {col} out of range for a {K}-column ring");
        SeriesView {
            times: &self.times,
            values: self.values.get(col..).unwrap_or_default(),
            present: &self.present,
            bit: 1 << col,
            stride: K,
            head: self.head,
            len: self.times.len(),
        }
    }
}

impl<const K: usize> fmt::Debug for SeriesRing<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries((0..K).map(|col| self.column(col))).finish()
    }
}

/// One column of a [`SeriesRing`], borrowed: the first `len` retained rows
/// as `(time, value)` samples, oldest first.
#[derive(Clone, Copy)]
pub struct SeriesView<'a> {
    times: &'a [SimTime],
    /// The ring's values from this column's first slot on, `stride` apart.
    values: &'a [f64],
    present: &'a [u8],
    bit: u8,
    stride: usize,
    head: usize,
    len: usize,
}

impl<'a> SeriesView<'a> {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th sample, oldest first. Panics if `i >= len()`.
    fn get(&self, i: usize) -> (SimTime, Option<f64>) {
        assert!(i < self.len, "sample {i} out of range for a series of {}", self.len);
        let p = self.head + i;
        let p = if p >= self.times.len() { p - self.times.len() } else { p };
        let value = (self.present[p] & self.bit != 0).then(|| self.values[p * self.stride]);
        (self.times[p], value)
    }

    /// The samples, oldest first.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = (SimTime, Option<f64>)> + ExactSizeIterator + 'a {
        let view = *self;
        (0..view.len).map(move |i| view.get(i))
    }

    /// Timestamps, oldest first.
    pub fn times(&self) -> impl DoubleEndedIterator<Item = SimTime> + ExactSizeIterator + 'a {
        self.iter().map(|(t, _)| t)
    }

    /// Values (possibly missing), oldest first.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = Option<f64>> + ExactSizeIterator + 'a {
        self.iter().map(|(_, v)| v)
    }

    /// Latest sample (ignoring whether missing).
    pub fn last(&self) -> Option<(SimTime, Option<f64>)> {
        self.len.checked_sub(1).map(|i| self.get(i))
    }

    /// Latest present (non-missing) value.
    pub fn last_present(&self) -> Option<(SimTime, f64)> {
        self.iter().rev().find_map(|(t, v)| v.map(|v| (t, v)))
    }

    /// The samples normalized by the peak present value (paper Figs. 5–6
    /// plot series "normalized by the peak"). Missing stays missing. If the
    /// peak is 0 or absent, values are unchanged.
    pub fn normalized_by_peak(&self) -> Vec<(SimTime, Option<f64>)> {
        let max =
            self.values().flatten().fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v))));
        let peak = max.filter(|&m| m > 0.0);
        self.iter().map(|(t, v)| (t, peak.map_or(v, |p| v.map(|x| x / p)))).collect()
    }

    /// The series without its trailing missing samples — e.g. the victim
    /// deviation series after the application has finished.
    pub fn trim_trailing_missing(&self) -> SeriesView<'a> {
        let keep = self.values().rposition(|v| v.is_some()).map_or(0, |i| i + 1);
        SeriesView { len: keep, ..*self }
    }
}

impl fmt::Debug for SeriesView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Aligns the tails of two series by timestamp and writes paired values for
/// the most recent `window` timestamps present in **both** series into
/// `xs`/`ys` (cleared first, oldest first), so a caller that aligns every
/// interval reuses its buffers. Missing values are preserved as `None` for
/// the caller's missing-value policy.
pub fn align_tail(
    a: SeriesView<'_>,
    b: SeriesView<'_>,
    window: usize,
    xs: &mut Vec<Option<f64>>,
    ys: &mut Vec<Option<f64>>,
) {
    xs.clear();
    ys.clear();
    let mut ia = a.len();
    let mut ib = b.len();
    while ia > 0 && ib > 0 && xs.len() < window {
        let ((ta, va), (tb, vb)) = (a.get(ia - 1), b.get(ib - 1));
        match ta.cmp(&tb) {
            std::cmp::Ordering::Equal => {
                xs.push(va);
                ys.push(vb);
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

    /// A one-column ring holding `samples`, retaining `retain` rows.
    fn ring(retain: usize, samples: &[(u64, Option<f64>)]) -> SeriesRing<1> {
        let mut r = SeriesRing::new(retain);
        for &(s, v) in samples {
            r.push(t(s), [v]);
        }
        r
    }

    #[test]
    fn push_and_read_back() {
        let r = ring(8, &[(5, Some(1.0)), (10, None), (15, Some(3.0))]);
        let s = r.column(0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some((t(15), Some(3.0))));
        assert_eq!(s.last_present(), Some((t(15), 3.0)));
        assert!(s.values().eq([Some(1.0), None, Some(3.0)]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_push_rejected() {
        ring(8, &[(5, Some(1.0)), (5, Some(2.0))]);
    }

    #[test]
    fn columns_share_rows_and_keep_their_own_presence() {
        let mut r = SeriesRing::<3>::new(8);
        r.push(t(1), [Some(1.0), None, Some(f64::NAN)]);
        r.push(t(2), [None, Some(f64::INFINITY), Some(-0.0)]);
        assert!(r.column(0).values().eq([Some(1.0), None]));
        assert!(r.column(1).values().eq([None, Some(f64::INFINITY)]));
        let third: Vec<u64> = r.column(2).values().map(|v| v.unwrap().to_bits()).collect();
        assert_eq!(third, [f64::NAN.to_bits(), (-0.0f64).to_bits()]);
        assert!(r.column(1).times().eq([t(1), t(2)]));
    }

    #[test]
    fn set_fills_the_newest_row_or_opens_one() {
        let mut r = SeriesRing::<2>::new(8);
        assert!(!r.recorded(0) && !r.recorded(1));
        r.set(t(5), 1, Some(2.0));
        assert!(r.recorded(1) && !r.recorded(0));
        r.set(t(5), 0, Some(1.0));
        r.set(t(10), 0, None);
        assert_eq!(r.column(0).len(), 2);
        assert!(r.column(0).values().eq([Some(1.0), None]));
        // The row opened by column 0 at t=10 has column 1 missing.
        assert!(r.column(1).values().eq([Some(2.0), None]));
        r.clear();
        assert!(r.column(0).is_empty() && !r.recorded(0) && !r.recorded(1));
    }

    #[test]
    fn normalization_by_peak() {
        let r = ring(8, &[(1, Some(2.0)), (2, None), (3, Some(8.0))]);
        let n = r.column(0).normalized_by_peak();
        assert_eq!(n, [(t(1), Some(0.25)), (t(2), None), (t(3), Some(1.0))]);
    }

    #[test]
    fn normalization_of_all_missing_is_identity() {
        let r = ring(8, &[(1, None), (2, None)]);
        let s = r.column(0);
        assert_eq!(s.normalized_by_peak(), s.iter().collect::<Vec<_>>());
    }

    #[test]
    fn trim_trailing_missing_cuts_the_tail() {
        let r = ring(8, &[(1, Some(1.0)), (2, None), (3, Some(3.0)), (4, None), (5, None)]);
        let trimmed = r.column(0).trim_trailing_missing();
        assert_eq!(trimmed.len(), 3);
        assert!(trimmed.values().eq([Some(1.0), None, Some(3.0)]));
        // All-missing series trims to empty.
        assert!(ring(8, &[(1, None)]).column(0).trim_trailing_missing().is_empty());
        // Trimming a wrapped ring keeps the oldest-first order.
        let wrapped = ring(3, &[(1, Some(1.0)), (2, Some(2.0)), (3, Some(3.0)), (4, None)]);
        let trimmed = wrapped.column(0).trim_trailing_missing();
        assert!(trimmed.times().eq([t(2), t(3)]));
    }

    #[test]
    fn ring_keeps_the_last_retain_rows_in_order() {
        let samples: Vec<_> = (1..=10).map(|s| (s, Some(s as f64))).collect();
        let r = ring(3, &samples);
        assert_eq!(r.column(0).len(), 3);
        assert!(r.column(0).times().eq([t(8), t(9), t(10)]));
        assert_eq!(r.last_time(), Some(t(10)));
    }

    #[test]
    fn ring_holds_exactly_retain_rows() {
        // Columns are sized to `retain` rows once: no column ever holds a
        // row more, before or after a clone.
        for retain in [1usize, 3, 4, 7, 64, 192, 200] {
            let mut r = SeriesRing::<6>::new(retain);
            for s in 1..=10_000u64 {
                if s == 1 + retain as u64 / 2 {
                    r = r.clone();
                }
                r.push(t(s), [Some(s as f64); 6]);
                assert!(r.times.capacity() <= retain, "retain {retain}");
            }
            let heap = r.times.capacity() * 8 + r.values.capacity() * 8 + r.present.capacity();
            assert_eq!(heap, retain * (8 + 6 * 8 + 1), "retain {retain}");
            assert_eq!(r.column(5).last(), Some((t(10_000), Some(10_000.0))));
        }
    }

    #[test]
    fn views_read_the_same_samples_whatever_the_ring_offset() {
        let wrapped = ring(2, &[(4, Some(4.0)), (5, Some(5.0)), (6, Some(6.0))]);
        let fresh = ring(4, &[(5, Some(5.0)), (6, Some(6.0))]);
        assert!(wrapped.column(0).iter().eq(fresh.column(0).iter()));
        assert_eq!(format!("{:?}", wrapped.column(0)), format!("{:?}", fresh.column(0)));
        let copy = wrapped.clone();
        assert!(copy.column(0).iter().eq(fresh.column(0).iter()));
    }

    #[test]
    fn align_tail_matches_common_timestamps() {
        let a = ring(8, &[1u64, 2, 3, 4, 5].map(|s| (s, Some(s as f64))));
        let b = ring(8, &[2u64, 3, 5, 6].map(|s| (s, Some(10.0 * s as f64))));
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        align_tail(a.column(0), b.column(0), 10, &mut xs, &mut ys);
        assert_eq!(xs, vec![Some(2.0), Some(3.0), Some(5.0)]);
        assert_eq!(ys, vec![Some(20.0), Some(30.0), Some(50.0)]);
    }

    #[test]
    fn align_tail_respects_window() {
        let mut r = SeriesRing::<2>::new(5);
        for s in 1..=8u64 {
            r.push(t(s), [Some(s as f64), Some(-(s as f64))]);
        }
        // Stale contents of the output buffers are cleared first.
        let (mut xs, mut ys) = (vec![Some(0.0); 5], vec![None; 7]);
        align_tail(r.column(0), r.column(1), 3, &mut xs, &mut ys);
        assert_eq!(xs, vec![Some(6.0), Some(7.0), Some(8.0)]);
        assert_eq!(ys.len(), 3);
    }

    #[test]
    fn align_tail_preserves_missing() {
        let mut r = SeriesRing::<2>::new(8);
        r.push(t(1), [Some(1.0), None]);
        r.push(t(2), [None, Some(5.0)]);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        align_tail(r.column(0), r.column(1), 10, &mut xs, &mut ys);
        assert_eq!(xs, vec![Some(1.0), None]);
        assert_eq!(ys, vec![None, Some(5.0)]);
    }

    #[test]
    fn align_disjoint_series_is_empty() {
        let a = ring(8, &[(1, Some(1.0))]);
        let b = ring(8, &[(2, Some(2.0))]);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        align_tail(a.column(0), b.column(0), 10, &mut xs, &mut ys);
        assert!(xs.is_empty() && ys.is_empty());
    }
}
