//! Fixed-capacity metrics registry of named counters.
//!
//! All capacity is reserved at construction; registration past the
//! declared capacity panics, and no record-path operation allocates
//! afterwards. The record path is pure u64 integer arithmetic, so it is
//! safe inside the simulator's allocation-free hot loops.

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Registry of named counters with capacity fixed at construction.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    cap: usize,
}

impl MetricsRegistry {
    /// A registry able to hold up to `cap` counters. All backing storage is
    /// reserved here.
    pub fn with_capacity(cap: usize) -> Self {
        MetricsRegistry { counters: Vec::with_capacity(cap), cap }
    }

    /// Registers a counter. Panics past the fixed capacity.
    pub fn counter(&mut self, name: &str) -> CounterId {
        assert!(self.counters.len() < self.cap, "metrics registry counter capacity exhausted");
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
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

    /// Registered counters as `(name, value)` pairs in registration
    /// order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Flattens every counter into `(name, value)` pairs in registration
    /// order — the shape `BenchRecord` extras use.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        self.counters.iter().map(|(name, v)| (name.clone(), *v as f64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_in_registration_order() {
        let mut m = MetricsRegistry::with_capacity(8);
        let c = m.counter("events");
        let d = m.counter("drops");
        m.inc(c, 3);
        m.inc(c, 2);
        m.inc(d, 1);
        assert_eq!(m.counter_value(c), 5);
        assert_eq!(m.snapshot(), [("events".to_string(), 5.0), ("drops".to_string(), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn registration_past_capacity_panics() {
        let mut m = MetricsRegistry::with_capacity(1);
        m.counter("a");
        m.counter("b");
    }
}
