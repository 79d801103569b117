//! The [`CounterSource`] trait and the default simulated implementation.

use perfcloud_host::{CounterSnapshot, PhysicalServer, VmId};
use perfcloud_sim::SimTime;

/// One counter read for one VM, as delivered to the monitor.
///
/// `time` is when the counters were read (for [`SimSource`] this is the
/// sampling instant; a replay delivers the recorded instant), and `seq` is
/// a per-source monotone sequence number that makes the `(time, vm, seq)`
/// triple a total order — the order every replay is normalized to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Instant the counters were read.
    pub time: SimTime,
    /// The VM (cgroup) the counters belong to.
    pub vm: VmId,
    /// Per-source monotone sequence number; tie-breaks equal `(time, vm)`.
    pub seq: u64,
    /// The cumulative counter values.
    pub snapshot: CounterSnapshot,
}

/// Object-safe clone support for boxed sources (the node manager is
/// `Clone` for experiment forking, so its source must be too).
pub trait CloneSource {
    /// Clones into a new boxed trait object.
    fn clone_box(&self) -> Box<dyn CounterSource>;
}

impl<T: CounterSource + Clone + 'static> CloneSource for T {
    fn clone_box(&self) -> Box<dyn CounterSource> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn CounterSource> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Where the node manager's counter samples come from.
///
/// Implementations must be deterministic given their own state: two
/// identically constructed sources driven by the same `collect_into`
/// sequence must yield the same samples in the same order, regardless of
/// thread count.
pub trait CounterSource: Send + CloneSource {
    /// Appends every sample that is due at `now` to `out`, in delivery
    /// order. `server` is the simulated host being sampled; a replay
    /// ignores it.
    fn collect_into(&mut self, now: SimTime, server: &PhysicalServer, out: &mut Vec<Sample>);

    /// Short stable name recorded in trace headers (`"sim"`, `"replay"`).
    fn name(&self) -> &'static str;

    /// True for the default simulated source. The node manager suppresses
    /// collector flight events on sim-only runs so the historical traces
    /// stay byte-identical.
    fn is_sim(&self) -> bool {
        false
    }
}

/// The default source: one hypervisor read of the simulated server.
///
/// Produces exactly `server.snapshots()` — every VM in boot order, all
/// stamped at the sampling instant — so a node manager using it is
/// byte-identical to the historical direct-read path.
#[derive(Debug, Clone, Default)]
pub struct SimSource {
    seq: u64,
}

impl SimSource {
    /// Creates the source with its sequence counter at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CounterSource for SimSource {
    fn collect_into(&mut self, now: SimTime, server: &PhysicalServer, out: &mut Vec<Sample>) {
        for (vm, snapshot) in server.snapshots() {
            out.push(Sample { time: now, vm, seq: self.seq, snapshot });
            self.seq += 1;
        }
    }

    fn name(&self) -> &'static str {
        "sim"
    }

    fn is_sim(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_source_clones() {
        let src: Box<dyn CounterSource> = Box::new(SimSource::new());
        let dup = src.clone();
        assert_eq!(dup.name(), "sim");
        assert!(dup.is_sim());
    }
}
