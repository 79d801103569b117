//! Virtual machines: process containers with cgroup accounting and caps.

use crate::config::VmConfig;
use crate::counters::VmCounters;
use crate::demand::{IoPattern, Process, ProcessId, ResourceDemand};
use crate::jitter::Ar1;
use crate::throttle::{CpuCap, IoThrottle};
use rand_chacha::ChaCha8Rng;

/// Cluster-wide identifier of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u32);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Aggregated demand of all processes in one VM for one tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VmDemand {
    /// Total instructions wanted.
    pub instructions: f64,
    /// Total CPU parallelism wanted (will be clamped to vCPUs).
    pub parallelism: f64,
    /// Random-pattern ops / bytes wanted.
    pub rand_ops: f64,
    /// Bytes attached to random ops.
    pub rand_bytes: f64,
    /// Sequential-pattern ops wanted.
    pub seq_ops: f64,
    /// Bytes attached to sequential ops.
    pub seq_bytes: f64,
    /// Ops-weighted mean I/O queue depth of the demanding processes.
    pub io_queue_depth: f64,
    /// Instruction-weighted mean LLC references per instruction.
    pub refs_per_instr: f64,
    /// Total hot working set.
    pub working_set: f64,
    /// Instruction-weighted mean cache reuse.
    pub cache_reuse: f64,
    /// Instruction-weighted mean base CPI.
    pub base_cpi: f64,
}

/// A hosted virtual machine.
#[derive(Clone)]
pub struct Vm {
    /// Cluster-wide identifier.
    pub id: VmId,
    /// Static configuration.
    pub config: VmConfig,
    /// Current blkio throttle.
    pub io_throttle: IoThrottle,
    /// Current CPU hard cap.
    pub cpu_cap: CpuCap,
    /// Cumulative counters (the VM's cgroup view).
    pub counters: VmCounters,
    /// True while the VM is frozen by a live migration's stop-and-copy
    /// phase: its processes demand nothing and make no progress, but the
    /// luck processes keep stepping so the RNG stream position is
    /// independent of whether (or when) a pause happened elsewhere.
    pub(crate) paused: bool,
    pub(crate) processes: Vec<(ProcessId, Box<dyn Process>)>,
    pub(crate) io_luck: Ar1,
    pub(crate) cpi_luck: Ar1,
    pub(crate) io_rng: ChaCha8Rng,
    pub(crate) cpi_rng: ChaCha8Rng,
}

impl Vm {
    pub(crate) fn new(
        id: VmId,
        config: VmConfig,
        io_luck: Ar1,
        cpi_luck: Ar1,
        io_rng: ChaCha8Rng,
        cpi_rng: ChaCha8Rng,
    ) -> Self {
        Vm {
            id,
            config,
            io_throttle: IoThrottle::unlimited(),
            cpu_cap: CpuCap::unlimited(),
            counters: VmCounters::default(),
            paused: false,
            processes: Vec::new(),
            io_luck,
            cpi_luck,
            io_rng,
            cpi_rng,
        }
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Aggregates all process demands for a tick of length `dt`, appending
    /// each process's demand to `demands` in process-list order so the
    /// caller can distribute achievements without asking again. A paused VM
    /// demands nothing and appends nothing — identical to a VM with no
    /// processes — so the stop-and-copy stall is a pure progress freeze.
    pub(crate) fn aggregate_demand(
        &self,
        dt: perfcloud_sim::SimDuration,
        demands: &mut Vec<ResourceDemand>,
    ) -> VmDemand {
        let mut agg = VmDemand::default();
        let mut w_refs = 0.0;
        let mut w_reuse = 0.0;
        let mut w_cpi = 0.0;
        let mut w_depth = 0.0;
        let processes: &[_] = if self.paused { &[] } else { &self.processes };
        for (_, p) in processes {
            let d = p.demand(dt);
            demands.push(d);
            agg.instructions += d.cpu_instructions;
            agg.parallelism += d.cpu_parallelism;
            w_depth += d.io_queue_depth * d.io_ops;
            match d.io_pattern {
                IoPattern::Random => {
                    agg.rand_ops += d.io_ops;
                    agg.rand_bytes += d.io_bytes;
                }
                IoPattern::Sequential => {
                    agg.seq_ops += d.io_ops;
                    agg.seq_bytes += d.io_bytes;
                }
            }
            agg.working_set += d.working_set * if d.cpu_instructions > 0.0 { 1.0 } else { 0.0 };
            w_refs += d.mem_refs_per_instr * d.cpu_instructions;
            w_reuse += d.cache_reuse * d.cpu_instructions;
            w_cpi += d.base_cpi * d.cpu_instructions;
        }
        if agg.instructions > 0.0 {
            agg.refs_per_instr = w_refs / agg.instructions;
            agg.cache_reuse = w_reuse / agg.instructions;
            agg.base_cpi = w_cpi / agg.instructions;
        } else {
            agg.base_cpi = 1.0;
        }
        let total_ops = agg.rand_ops + agg.seq_ops;
        agg.io_queue_depth = if total_ops > 0.0 { w_depth / total_ops } else { 32.0 };
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::Ar1;
    use perfcloud_sim::{RngFactory, SimDuration};

    #[derive(Clone)]
    struct FakeProc {
        demand: ResourceDemand,
    }
    impl Process for FakeProc {
        fn demand(&self, _dt: SimDuration) -> ResourceDemand {
            self.demand
        }
        fn advance(&mut self, _a: &crate::demand::Achieved, _dt: SimDuration) {}
        fn is_done(&self) -> bool {
            false
        }
        fn progress(&self) -> f64 {
            0.0
        }
        fn label(&self) -> &str {
            "fake"
        }
    }

    fn make_vm() -> Vm {
        let f = RngFactory::new(1);
        Vm::new(
            VmId(0),
            VmConfig::high_priority(),
            Ar1::with_time_constant(5.0, 0.1),
            Ar1::with_time_constant(5.0, 0.1),
            f.stream("io"),
            f.stream("cpi"),
        )
    }

    fn proc_with(demand: ResourceDemand) -> (ProcessId, Box<dyn Process>) {
        (ProcessId(0), Box::new(FakeProc { demand }))
    }

    #[test]
    fn empty_vm_has_idle_demand() {
        let vm = make_vm();
        let d = vm.aggregate_demand(SimDuration::from_millis(100), &mut Vec::new());
        assert_eq!(d.instructions, 0.0);
        assert_eq!(d.rand_ops, 0.0);
        assert_eq!(d.base_cpi, 1.0);
    }

    #[test]
    fn io_patterns_bucketed_separately() {
        let mut vm = make_vm();
        vm.processes.push(proc_with(ResourceDemand {
            io_ops: 10.0,
            io_bytes: 100.0,
            io_pattern: IoPattern::Random,
            ..ResourceDemand::idle()
        }));
        vm.processes.push(proc_with(ResourceDemand {
            io_ops: 3.0,
            io_bytes: 999.0,
            io_pattern: IoPattern::Sequential,
            ..ResourceDemand::idle()
        }));
        let d = vm.aggregate_demand(SimDuration::from_millis(100), &mut Vec::new());
        assert_eq!(d.rand_ops, 10.0);
        assert_eq!(d.rand_bytes, 100.0);
        assert_eq!(d.seq_ops, 3.0);
        assert_eq!(d.seq_bytes, 999.0);
    }

    #[test]
    fn memory_attributes_are_instruction_weighted() {
        let mut vm = make_vm();
        vm.processes.push(proc_with(ResourceDemand {
            cpu_instructions: 1e6,
            cpu_parallelism: 1.0,
            mem_refs_per_instr: 0.1,
            cache_reuse: 1.0,
            working_set: 10.0,
            ..ResourceDemand::idle()
        }));
        vm.processes.push(proc_with(ResourceDemand {
            cpu_instructions: 3e6,
            cpu_parallelism: 1.0,
            mem_refs_per_instr: 0.3,
            cache_reuse: 0.0,
            working_set: 30.0,
            ..ResourceDemand::idle()
        }));
        let d = vm.aggregate_demand(SimDuration::from_millis(100), &mut Vec::new());
        assert_eq!(d.instructions, 4e6);
        assert_eq!(d.parallelism, 2.0);
        assert!((d.refs_per_instr - 0.25).abs() < 1e-12);
        assert!((d.cache_reuse - 0.25).abs() < 1e-12);
        assert_eq!(d.working_set, 40.0);
    }

    #[test]
    fn idle_process_working_set_excluded() {
        let mut vm = make_vm();
        vm.processes.push(proc_with(ResourceDemand {
            cpu_instructions: 0.0,
            working_set: 1e9,
            ..ResourceDemand::idle()
        }));
        let d = vm.aggregate_demand(SimDuration::from_millis(100), &mut Vec::new());
        assert_eq!(d.working_set, 0.0);
    }

    #[test]
    fn demands_are_recorded_in_process_order_unless_paused() {
        let mut vm = make_vm();
        let a = ResourceDemand { cpu_instructions: 1e6, ..ResourceDemand::idle() };
        let b = ResourceDemand { io_ops: 5.0, ..ResourceDemand::idle() };
        vm.processes.push(proc_with(a));
        vm.processes.push(proc_with(b));
        let mut demands = vec![ResourceDemand::idle()];
        vm.aggregate_demand(SimDuration::from_millis(100), &mut demands);
        assert_eq!(demands, vec![ResourceDemand::idle(), a, b], "appended after existing rows");
        vm.paused = true;
        let d = vm.aggregate_demand(SimDuration::from_millis(100), &mut demands);
        assert_eq!(demands.len(), 3, "a paused VM records nothing");
        assert_eq!(d.instructions, 0.0);
    }
}
