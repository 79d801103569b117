//! Fixed-capacity metrics registry: counters, gauges, log-linear
//! histograms.
//!
//! All capacity is reserved at construction; registration past the
//! declared capacity panics, and neither registration order nor any
//! record-path operation allocates afterwards. The record path is pure
//! u64/i64 integer arithmetic — no floats until a snapshot is taken — so
//! it is safe inside the simulator's allocation-free hot loops.
//!
//! Histograms are log-linear in the HdrHistogram style: four linear
//! sub-buckets per power of two, covering the full u64 range in
//! [`BUCKETS`] buckets with a worst-case relative error of 25% per
//! bucket. Snapshots decode bucket midpoints into approximate quantiles.

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Linear sub-buckets per power of two (as a bit count): 2 bits = 4.
const SUB_BITS: u32 = 2;
/// Total log-linear buckets needed to span the u64 range.
pub const BUCKETS: usize = 4 + (62 * 4);

/// Index of the log-linear bucket holding `v`. Values 0–3 get exact
/// buckets; above that, the bucket is identified by the position of the
/// most significant bit plus the next [`SUB_BITS`] bits.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    ((msb - 1) as usize) * 4 + sub
}

/// Lower bound of bucket `idx` (inverse of [`bucket_index`]).
fn bucket_lower(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let msb = (idx / 4 + 1) as u32;
    let sub = (idx % 4) as u64;
    (1u64 << msb) | (sub << (msb - SUB_BITS))
}

/// Midpoint of bucket `idx`, used when decoding quantiles.
fn bucket_mid(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let msb = (idx / 4 + 1) as u32;
    bucket_lower(idx) + (1u64 << (msb - SUB_BITS)) / 2
}

#[derive(Debug)]
struct Histogram {
    name: String,
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Registry of named counters, gauges and histograms with capacity fixed
/// at construction.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histograms: Vec<Histogram>,
    cap: usize,
}

impl MetricsRegistry {
    /// A registry able to hold up to `cap` metrics of each kind. All
    /// backing storage is reserved here.
    pub fn with_capacity(cap: usize) -> Self {
        MetricsRegistry {
            counters: Vec::with_capacity(cap),
            gauges: Vec::with_capacity(cap),
            histograms: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Registers a counter. Panics past the fixed capacity.
    pub fn counter(&mut self, name: &str) -> CounterId {
        assert!(self.counters.len() < self.cap, "metrics registry counter capacity exhausted");
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers a gauge. Panics past the fixed capacity.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        assert!(self.gauges.len() < self.cap, "metrics registry gauge capacity exhausted");
        self.gauges.push((name.to_string(), 0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a histogram. Panics past the fixed capacity.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        assert!(self.histograms.len() < self.cap, "metrics registry histogram capacity exhausted");
        self.histograms.push(Histogram {
            name: name.to_string(),
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `delta` to a counter. Integer math, no allocation.
    #[inline]
    pub fn inc(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Sets a gauge. Integer math, no allocation.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: i64) {
        self.gauges[id.0].1 = value;
    }

    /// Records one observation into a histogram. Pure u64 bucket math,
    /// no floats, no allocation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        let h = &mut self.histograms[id.0];
        h.buckets[bucket_index(value)] += 1;
        h.count += 1;
        h.sum = h.sum.saturating_add(value);
        if value < h.min {
            h.min = value;
        }
        if value > h.max {
            h.max = value;
        }
    }

    /// Approximate quantile of a histogram (bucket-midpoint decode).
    fn quantile(h: &Histogram, q: f64) -> f64 {
        if h.count == 0 {
            return 0.0;
        }
        let target = ((h.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in h.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_mid(idx) as f64;
            }
        }
        h.max as f64
    }

    /// Registered counters as `(name, value)` pairs in registration
    /// order — the kind-aware view exporters need for `# TYPE` lines.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Registered gauges as `(name, value)` pairs in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Flattened histogram statistics, exactly the `(name, value)` pairs
    /// [`snapshot`](Self::snapshot) emits for histograms.
    pub fn histogram_stats(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for h in &self.histograms {
            out.push((format!("{}_count", h.name), h.count as f64));
            if h.count == 0 {
                continue;
            }
            out.push((format!("{}_min", h.name), h.min as f64));
            out.push((format!("{}_max", h.name), h.max as f64));
            out.push((format!("{}_mean", h.name), h.sum as f64 / h.count as f64));
            out.push((format!("{}_p50", h.name), Self::quantile(h, 0.50)));
            out.push((format!("{}_p99", h.name), Self::quantile(h, 0.99)));
        }
        out
    }

    /// Flattens every metric into `(name, value)` pairs in registration
    /// order — the shape `BenchRecord` extras use. Histograms expand to
    /// `_count`, `_min`, `_max`, `_mean`, `_p50` and `_p99` fields
    /// (empty histograms only emit `_count`).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (name, v) in &self.counters {
            out.push((name.clone(), *v as f64));
        }
        for (name, v) in &self.gauges {
            out.push((name.clone(), *v as f64));
        }
        out.extend(self.histogram_stats());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_invertible() {
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..63u32 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << shift).saturating_add(off));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket index must be monotone in value (v={v})");
            last = idx;
            assert!(bucket_lower(idx) <= v, "lower bound {} > value {v}", bucket_lower(idx));
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn exact_small_values() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
    }

    #[test]
    fn counters_gauges_histograms_snapshot() {
        let mut m = MetricsRegistry::with_capacity(8);
        let c = m.counter("events");
        let g = m.gauge("depth");
        let h = m.histogram("latency_us");
        m.inc(c, 3);
        m.inc(c, 2);
        m.set(g, 4);
        m.set(g, 10);
        for v in [10u64, 20, 30, 1000] {
            m.observe(h, v);
        }
        assert_eq!(m.counter_value(c), 5);
        let snap = m.snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert_eq!(get("events"), 5.0);
        assert_eq!(get("depth"), 10.0);
        assert_eq!(get("latency_us_count"), 4.0);
        assert_eq!(get("latency_us_min"), 10.0);
        assert_eq!(get("latency_us_max"), 1000.0);
        // p50 lands in the bucket containing 20 (bucket width 4 there).
        assert!((get("latency_us_p50") - 20.0).abs() <= 4.0);
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn registration_past_capacity_panics() {
        let mut m = MetricsRegistry::with_capacity(1);
        m.counter("a");
        m.counter("b");
    }
}
