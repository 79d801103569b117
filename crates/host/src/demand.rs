//! The process abstraction: how guest work expresses resource demand.
//!
//! Everything that runs inside a VM — a MapReduce task, a Spark task, a fio
//! job, a STREAM thread group — implements [`Process`]. Each tick the server
//! asks every process what it *wants* ([`ResourceDemand`]), allocates the
//! contended resources, and tells the process what it *got* ([`Achieved`]).
//! A process completes when its phases have consumed their work budgets; its
//! duration is therefore an emergent property of contention, exactly as task
//! stragglers are in the paper.

use perfcloud_sim::SimDuration;

/// Identifier of a process within one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u64);

/// Access pattern of block I/O; random ops are seek-bound (cost ∝ IOPS
/// budget), sequential ops are transfer-bound (cost ∝ bytes-per-sec budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoPattern {
    /// Random access (fio randread, OLTP point reads, shuffle spill reads).
    Random,
    /// Sequential streaming (HDFS block scans, TeraSort writes).
    Sequential,
}

/// What a process wants to consume in one tick, expressed as *rates demanded
/// over the tick*. The server may deliver anything from zero up to this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceDemand {
    /// Degree of parallelism: how many cores the process can use at once.
    pub cpu_parallelism: f64,
    /// Instructions the process still wants to execute (cap on this tick).
    pub cpu_instructions: f64,
    /// Block I/O operations wanted this tick.
    pub io_ops: f64,
    /// Block I/O bytes wanted this tick.
    pub io_bytes: f64,
    /// Access pattern of the wanted I/O.
    pub io_pattern: IoPattern,
    /// Requests the process keeps outstanding. Queueing delay slows a
    /// requester by `1 + wait/(service × depth)`: deep-queue workloads (fio
    /// with iodepth 64+) hide latency; ordinary buffered streams feel it.
    pub io_queue_depth: f64,
    /// Memory references per instruction (loads/stores that reach the cache
    /// hierarchy) — drives LLC pressure and bandwidth demand.
    pub mem_refs_per_instr: f64,
    /// Cache working set in bytes (0 for pure-I/O processes).
    pub working_set: f64,
    /// Cache sensitivity in [0, 1]: how much of this process's references
    /// would hit in LLC given enough cache (1 = reuse-heavy like Spark
    /// iterative stages; ~0 = streaming like STREAM, which misses anyway).
    pub cache_reuse: f64,
    /// Base CPI of the instruction mix with warm, private caches.
    pub base_cpi: f64,
}

impl ResourceDemand {
    /// A demand that wants nothing (an idle process).
    pub fn idle() -> Self {
        ResourceDemand {
            cpu_parallelism: 0.0,
            cpu_instructions: 0.0,
            io_ops: 0.0,
            io_bytes: 0.0,
            io_pattern: IoPattern::Random,
            io_queue_depth: 32.0,
            mem_refs_per_instr: 0.0,
            working_set: 0.0,
            cache_reuse: 0.0,
            base_cpi: 1.0,
        }
    }

    /// True if the demand requests no resources at all.
    pub fn is_idle(&self) -> bool {
        self.cpu_instructions <= 0.0 && self.io_ops <= 0.0 && self.io_bytes <= 0.0
    }
}

/// What the server actually delivered to a process in one tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Achieved {
    /// Core-seconds of CPU time consumed.
    pub cpu_time: f64,
    /// Instructions retired.
    pub instructions: f64,
    /// Cycles consumed (`cpu_time × frequency`).
    pub cycles: f64,
    /// Block I/O operations completed.
    pub io_ops: f64,
    /// Block I/O bytes completed.
    pub io_bytes: f64,
    /// Total queueing wait endured by the completed ops, seconds.
    pub io_wait: f64,
    /// LLC references issued.
    pub llc_references: f64,
    /// LLC misses suffered.
    pub llc_misses: f64,
}

/// The `CloneBox` bound on [`Process`]: every process must be duplicable
/// so a whole server (and therefore a whole experiment) can be forked
/// mid-run. The blanket impl covers any `Clone` process type; implementors
/// only need `#[derive(Clone)]`.
pub trait CloneProcess {
    /// Boxes a deep copy of `self`.
    fn clone_box(&self) -> Box<dyn Process>;
}

impl<T: Process + Clone + 'static> CloneProcess for T {
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Process> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A unit of guest work. Object-safe so VMs can host heterogeneous
/// processes; `Send` so servers (and the VMs they host) can move to
/// another thread inside an experiment fork (`bench::forked` hands forks
/// to sweep workers), and [`CloneProcess`] so forking an experiment can
/// deep-copy every running process.
pub trait Process: Send + CloneProcess {
    /// Demand for the coming tick of length `dt`.
    fn demand(&self, dt: SimDuration) -> ResourceDemand;

    /// Consumes the achieved resources for the tick just simulated.
    fn advance(&mut self, achieved: &Achieved, dt: SimDuration);

    /// True once the process has finished all its work. Finished processes
    /// are reaped by the server at the end of the tick.
    fn is_done(&self) -> bool;

    /// Fraction of total work completed, in `[0, 1]`; used by speculative
    /// schedulers (LATE) to estimate time-to-finish.
    fn progress(&self) -> f64;

    /// Human-readable label for traces and experiment reports.
    fn label(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_demand_is_idle() {
        let d = ResourceDemand::idle();
        assert!(d.is_idle());
        assert_eq!(d.cpu_parallelism, 0.0);
    }

    #[test]
    fn nonzero_io_is_not_idle() {
        let d = ResourceDemand { io_ops: 1.0, ..ResourceDemand::idle() };
        assert!(!d.is_idle());
        let d = ResourceDemand { cpu_instructions: 1.0, ..ResourceDemand::idle() };
        assert!(!d.is_idle());
    }

    #[test]
    fn achieved_default_is_zero() {
        let a = Achieved::default();
        assert_eq!(a.cpu_time, 0.0);
        assert_eq!(a.io_ops, 0.0);
        assert_eq!(a.llc_misses, 0.0);
    }
}
