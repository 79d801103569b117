//! The physical server: one tick of multi-resource arbitration.
//!
//! Each tick the server (1) steps every VM's luck processes, (2) aggregates
//! per-VM demand, (3) applies blkio throttles, (4) arbitrates the block
//! device, (5) evaluates the memory model to get per-VM CPI and miss rates,
//! (6) allocates CPU time with hard caps, (7) updates cgroup counters, and
//! (8) distributes achieved work back to processes, reaping finished ones.
//!
//! Jitter amplitudes use the *previous* tick's utilization — the fluid-model
//! equivalent of queue state carrying over — which avoids a circular
//! dependency between allocation and luck.

use crate::config::{Priority, ServerConfig, VmConfig};
use crate::counters::{CounterSnapshot, VmCounters};
use crate::cpu::{allocate as cpu_allocate, CpuRequest, Waterfill};
use crate::demand::{Achieved, Process, ProcessId, ResourceDemand};
use crate::disk::{allocate as disk_allocate, DiskOutcome, DiskRequest};
use crate::jitter::{amplitude, luck_multiplier, Ar1};
use crate::memory::{model as mem_model, MemOutcome, MemRequest};
use crate::throttle::{CpuCap, IoThrottle};
use crate::vm::{Vm, VmDemand, VmId};
use perfcloud_sim::{RngFactory, SimDuration};
use std::collections::HashMap;

/// Identifier of a physical server within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server{}", self.0)
    }
}

/// A process that completed during a tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedProcess {
    /// VM that hosted the process.
    pub vm: VmId,
    /// Server-local process id.
    pub pid: ProcessId,
}

/// Summary of one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// Processes that finished this tick.
    pub finished: Vec<FinishedProcess>,
    /// Offered block-device utilization (may exceed 1).
    pub disk_utilization: f64,
    /// Offered memory-bandwidth utilization (may exceed 1).
    pub memory_utilization: f64,
    /// CPU utilization in [0, 1].
    pub cpu_utilization: f64,
}

/// A simulated physical server hosting VMs.
#[derive(Clone)]
pub struct PhysicalServer {
    /// Identifier within the cluster.
    pub id: ServerId,
    config: ServerConfig,
    rng: RngFactory,
    vms: Vec<Vm>,
    index: HashMap<VmId, usize>,
    next_pid: u64,
    last_disk_rho: f64,
    last_mem_rho: f64,
    ar1_dt: f64,
    /// Cores reserved by in-flight live migrations (source or destination
    /// pre-copy tax). Subtracted from the CPU capacity offered to VMs.
    migration_load: f64,
    scratch: TickScratch,
}

/// Working columns of [`PhysicalServer::tick`], one row per VM (per
/// process for `proc_demands`). Every column is cleared before it is
/// filled, so no value outlives its tick: the columns are kept only for
/// their capacity, which is what makes a steady-state tick allocation-free.
/// Being derived state, they clone empty, like the other scratch buffers
/// a fork rebuilds.
#[derive(Default)]
struct TickScratch {
    demands: Vec<VmDemand>,
    /// Every process's demand, VM after VM in tick order.
    proc_demands: Vec<ResourceDemand>,
    /// Where each VM's rows start in `proc_demands`, plus the end.
    proc_start: Vec<usize>,
    disk_reqs: Vec<DiskRequest>,
    disk_out: Vec<DiskOutcome>,
    mem_reqs: Vec<MemRequest>,
    mem_out: Vec<MemOutcome>,
    cpu_reqs: Vec<CpuRequest>,
    /// Fair-share working space of the disk and then the CPU arbitration.
    fill: Waterfill,
}

impl Clone for TickScratch {
    fn clone(&self) -> Self {
        TickScratch::default()
    }
}

/// Time constant (seconds) of per-VM luck processes; a few seconds so luck
/// persists across the monitor's 5-second sampling interval.
const LUCK_TAU_SECS: f64 = 6.0;

impl PhysicalServer {
    /// Creates a server. `rng` seeds the per-VM jitter streams; `tick_dt` is
    /// the tick length the server will be driven at (needed to discretize
    /// the AR(1) processes consistently).
    pub fn new(id: ServerId, config: ServerConfig, rng: RngFactory, tick_dt: SimDuration) -> Self {
        assert!(!tick_dt.is_zero(), "tick length must be positive");
        PhysicalServer {
            id,
            config,
            rng,
            vms: Vec::new(),
            index: HashMap::new(),
            next_pid: 0,
            last_disk_rho: 0.0,
            last_mem_rho: 0.0,
            ar1_dt: tick_dt.as_secs_f64(),
            migration_load: 0.0,
            scratch: TickScratch::default(),
        }
    }

    /// The server's static configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Boots a VM on this server. Panics if the id is already present.
    pub fn add_vm(&mut self, id: VmId, cfg: VmConfig) {
        assert!(!self.index.contains_key(&id), "duplicate VM id {id}");
        let io_rng = self.rng.stream_indexed("io-luck", id.0 as u64);
        let cpi_rng = self.rng.stream_indexed("cpi-luck", id.0 as u64);
        let vm = Vm::new(
            id,
            cfg,
            Ar1::with_time_constant(LUCK_TAU_SECS, self.ar1_dt),
            Ar1::with_time_constant(LUCK_TAU_SECS, self.ar1_dt),
            io_rng,
            cpi_rng,
        );
        self.index.insert(id, self.vms.len());
        self.vms.push(vm);
    }

    /// All hosted VM ids, in boot order.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.iter().map(|v| v.id).collect()
    }

    /// True if the VM is hosted here.
    pub fn hosts(&self, vm: VmId) -> bool {
        self.index.contains_key(&vm)
    }

    /// Priority of a hosted VM.
    pub fn priority(&self, vm: VmId) -> Option<Priority> {
        self.vm(vm).map(|v| v.config.priority)
    }

    /// Static configuration of a hosted VM (vCPUs, guest memory, priority).
    pub fn vm_config(&self, vm: VmId) -> Option<&VmConfig> {
        self.vm(vm).map(|v| &v.config)
    }

    fn vm(&self, id: VmId) -> Option<&Vm> {
        self.index.get(&id).map(|&i| &self.vms[i])
    }

    fn vm_mut(&mut self, id: VmId) -> Option<&mut Vm> {
        let i = *self.index.get(&id)?;
        Some(&mut self.vms[i])
    }

    /// Removes a hosted VM and returns it intact — processes, RNG streams,
    /// luck state, caps, and counters all travel with it, which is what
    /// makes live migration deterministic. Removal is order-preserving:
    /// the remaining VMs keep their relative tick order, so the
    /// floating-point summation order of the arbitration pipeline (and
    /// with it every downstream trace byte) is unchanged for the stayers.
    pub fn extract_vm(&mut self, id: VmId) -> Option<Vm> {
        let row = self.index.remove(&id)?;
        let vm = self.vms.remove(row);
        for idx in self.index.values_mut() {
            if *idx > row {
                *idx -= 1;
            }
        }
        Some(vm)
    }

    /// Installs a VM extracted from another server. It joins at the tail
    /// of the tick order, exactly like a fresh boot. Panics if the id is
    /// already present.
    pub fn insert_vm(&mut self, vm: Vm) {
        assert!(!self.index.contains_key(&vm.id), "duplicate VM id {}", vm.id);
        self.index.insert(vm.id, self.vms.len());
        self.vms.push(vm);
    }

    /// Freezes or thaws a VM (stop-and-copy). While paused the VM demands
    /// nothing and its processes make no progress, but its luck streams
    /// keep stepping so RNG positions stay schedule-independent.
    pub fn set_paused(&mut self, vm: VmId, paused: bool) {
        if let Some(v) = self.vm_mut(vm) {
            v.paused = paused;
        }
    }

    /// Sets the CPU tax (in cores) charged by in-flight migrations.
    pub fn set_migration_load(&mut self, cores: f64) {
        assert!(cores >= 0.0 && cores.is_finite(), "migration load must be finite and >= 0");
        self.migration_load = cores;
    }

    /// Current migration CPU tax in cores.
    pub fn migration_load(&self) -> f64 {
        self.migration_load
    }

    /// Starts a process on a VM, returning its server-local id.
    pub fn spawn(&mut self, vm: VmId, process: Box<dyn Process>) -> ProcessId {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        self.vm_mut(vm)
            .unwrap_or_else(|| panic!("spawn on unknown VM {vm}"))
            .processes
            .push((pid, process));
        pid
    }

    /// Kills a process (used by speculation/cloning schedulers). Returns
    /// true if the process existed and was removed.
    pub fn kill(&mut self, vm: VmId, pid: ProcessId) -> bool {
        match self.vm_mut(vm) {
            None => false,
            Some(v) => {
                let before = v.processes.len();
                v.processes.retain(|(p, _)| *p != pid);
                v.processes.len() != before
            }
        }
    }

    /// Progress of a running process, if it exists.
    pub fn process_progress(&self, vm: VmId, pid: ProcessId) -> Option<f64> {
        self.vm(vm)?.processes.iter().find(|(p, _)| *p == pid).map(|(_, proc_)| proc_.progress())
    }

    /// Number of live processes on a VM.
    pub fn process_count(&self, vm: VmId) -> usize {
        self.vm(vm).map(|v| v.process_count()).unwrap_or(0)
    }

    /// Reads a VM's cumulative counters, as the hypervisor would report them.
    pub fn counters(&self, vm: VmId) -> Option<CounterSnapshot> {
        self.vm(vm).map(|v| CounterSnapshot { counters: v.counters })
    }

    /// Counter snapshots of every hosted VM, in boot order — one hypervisor
    /// read for the whole server, so a per-interval sampling pass needs no
    /// [`vm_ids`](Self::vm_ids) id-list allocation.
    pub fn snapshots(&self) -> impl Iterator<Item = (VmId, CounterSnapshot)> + '_ {
        self.vms.iter().map(|v| (v.id, CounterSnapshot { counters: v.counters }))
    }

    /// Applies (or clears, with `IoThrottle::unlimited()`) the blkio
    /// throttling policy on a VM.
    pub fn set_io_throttle(&mut self, vm: VmId, throttle: IoThrottle) {
        if let Some(v) = self.vm_mut(vm) {
            v.io_throttle = throttle;
        }
    }

    /// Applies (or clears) the `vcpu_quota` hard cap on a VM.
    pub fn set_cpu_cap(&mut self, vm: VmId, cap: CpuCap) {
        if let Some(v) = self.vm_mut(vm) {
            v.cpu_cap = cap;
        }
    }

    /// Current I/O throttle of a VM.
    pub fn io_throttle(&self, vm: VmId) -> Option<IoThrottle> {
        self.vm(vm).map(|v| v.io_throttle)
    }

    /// Current CPU cap of a VM.
    pub fn cpu_cap(&self, vm: VmId) -> Option<CpuCap> {
        self.vm(vm).map(|v| v.cpu_cap)
    }

    /// Advances the server by one tick of length `dt`. Allocation-free
    /// unless a process finishes or the VM or process count outgrows every
    /// earlier tick.
    pub fn tick(&mut self, dt: SimDuration) -> TickReport {
        let dt_s = dt.as_secs_f64();
        assert!(dt_s > 0.0, "tick length must be positive");
        let s = &mut self.scratch;
        let freq = self.config.effective_frequency();

        // 1. Step luck processes; amplitude from last tick's utilization.
        let io_amp = amplitude(
            self.last_disk_rho,
            self.config.disk.jitter_onset,
            self.config.disk.jitter_amplitude,
            self.config.disk.jitter_floor,
        );
        let cpi_amp = amplitude(
            self.last_mem_rho,
            self.config.memory.jitter_onset,
            self.config.memory.jitter_amplitude,
            self.config.memory.jitter_floor,
        );
        s.demands.clear();
        s.proc_demands.clear();
        s.proc_start.clear();
        s.disk_reqs.clear();
        s.mem_reqs.clear();
        for vm in &mut self.vms {
            let io_luck = luck_multiplier(vm.io_luck.step(&mut vm.io_rng), io_amp);
            let cpi_luck = luck_multiplier(vm.cpi_luck.step(&mut vm.cpi_rng), cpi_amp);

            // 2. Aggregate demand, recording every process's share of it.
            s.proc_start.push(s.proc_demands.len());
            let d = vm.aggregate_demand(dt, &mut s.proc_demands);
            s.demands.push(d);

            // 3. Throttle the block-device request.
            let total_ops = d.rand_ops + d.seq_ops;
            let total_bytes = d.rand_bytes + d.seq_bytes;
            let (ops_ok, bytes_ok) = vm.io_throttle.clamp(total_ops, total_bytes, dt_s);
            let ops_scale = if total_ops > 0.0 { ops_ok / total_ops } else { 0.0 };
            let bytes_scale = if total_bytes > 0.0 { bytes_ok / total_bytes } else { 0.0 };
            s.disk_reqs.push(DiskRequest {
                rand_ops: d.rand_ops * ops_scale,
                rand_bytes: d.rand_bytes * bytes_scale,
                seq_ops: d.seq_ops * ops_scale,
                seq_bytes: d.seq_bytes * bytes_scale,
                luck: io_luck,
                queue_depth: d.io_queue_depth,
            });

            // CPU hard caps bound how many instructions the VM can actually
            // issue, and with them its memory pressure — this is what makes
            // `vcpu_quota` capping effective against LLC/bandwidth
            // antagonists (§III-C).
            let cores = vm.cpu_cap.effective_cores(vm.config.vcpus);
            let issue_limit = cores * dt_s * freq / d.base_cpi.max(0.1);
            let full_rate = vm.config.vcpus as f64 * dt_s * freq / d.base_cpi.max(0.1);
            let instr_demand = d.instructions.min(issue_limit);
            s.mem_reqs.push(MemRequest {
                instr_demand,
                activity: if full_rate > 0.0 {
                    (instr_demand / full_rate).clamp(0.0, 1.0)
                } else {
                    0.0
                },
                refs_per_instr: d.refs_per_instr,
                working_set: d.working_set,
                cache_reuse: d.cache_reuse,
                base_cpi: d.base_cpi,
                luck: cpi_luck,
            });
        }
        s.proc_start.push(s.proc_demands.len());

        // 4. Arbitrate the block device.
        let disk_rho = disk_allocate(
            &s.disk_reqs,
            &self.config.disk,
            self.config.speed_factor,
            dt_s,
            &mut s.fill,
            &mut s.disk_out,
        );

        // 5. Memory model: per-VM CPI and miss rate.
        let mem_rho = mem_model(&s.mem_reqs, &self.config.memory, dt_s, &mut s.mem_out);

        // 6. CPU allocation.
        s.cpu_reqs.clear();
        s.cpu_reqs.extend(self.vms.iter().zip(&s.demands).zip(&s.mem_out).map(|((vm, d), m)| {
            let cores = vm.cpu_cap.effective_cores(vm.config.vcpus);
            let par = d.parallelism.min(cores);
            // Time needed to retire the demanded instructions at this CPI.
            let needed = d.instructions * m.cpi / freq;
            CpuRequest {
                demand: needed.min(par * dt_s),
                limit: cores * dt_s,
                weight: vm.config.vcpus as f64,
            }
        }));
        // Live migrations steal hypervisor cores for the copy streams;
        // with no migration in flight this is byte-identical to the
        // untaxed capacity.
        let cpu_capacity = (self.config.cores as f64 - self.migration_load).max(0.0) * dt_s;
        let cpu_alloc = cpu_allocate(&s.cpu_reqs, cpu_capacity, &mut s.fill);
        let cpu_used: f64 = cpu_alloc.iter().sum();

        // 7+8. Account counters, distribute achievements, reap finished.
        let mut finished = Vec::new();
        for (i, vm) in self.vms.iter_mut().enumerate() {
            let d = &s.demands[i];
            let m = &s.mem_out[i];
            let dsk = &s.disk_out[i];
            let cpu_time = cpu_alloc[i];
            let cycles = cpu_time * freq;
            let instructions = (cycles / m.cpi).min(d.instructions.max(0.0));
            let llc_refs = instructions * d.refs_per_instr;
            let llc_misses = llc_refs * m.miss_rate;

            let delta = VmCounters {
                io_serviced: dsk.ops,
                io_service_bytes: dsk.bytes,
                io_wait_time: dsk.wait,
                cpu_time,
                cycles,
                instructions,
                llc_references: llc_refs,
                llc_misses,
            };
            vm.counters.accumulate(&delta);

            // A paused VM's processes are frozen mid-flight: no demand was
            // aggregated above, and skipping `advance` here keeps even
            // wall-clock-driven processes (duration-based antagonists)
            // from progressing through the stop-and-copy window.
            if vm.paused {
                continue;
            }

            // Distribute to processes proportionally to their demands.
            let instr_frac = if d.instructions > 0.0 { instructions / d.instructions } else { 0.0 };
            let ops_demand = d.rand_ops + d.seq_ops;
            let bytes_demand = d.rand_bytes + d.seq_bytes;
            let ops_frac = if ops_demand > 0.0 { dsk.ops / ops_demand } else { 0.0 };
            let bytes_frac = if bytes_demand > 0.0 { dsk.bytes / bytes_demand } else { 0.0 };

            let proc_demands = &s.proc_demands[s.proc_start[i]..s.proc_start[i + 1]];
            let mut any_done = false;
            for ((pid, proc_), pd) in vm.processes.iter_mut().zip(proc_demands) {
                let p_instr = pd.cpu_instructions * instr_frac;
                let achieved = Achieved {
                    cpu_time: if d.instructions > 0.0 {
                        cpu_time * pd.cpu_instructions / d.instructions
                    } else {
                        0.0
                    },
                    instructions: p_instr,
                    cycles: p_instr * m.cpi,
                    io_ops: pd.io_ops * ops_frac,
                    io_bytes: pd.io_bytes * bytes_frac,
                    io_wait: 0.0,
                    llc_references: p_instr * pd.mem_refs_per_instr,
                    llc_misses: p_instr * pd.mem_refs_per_instr * m.miss_rate,
                };
                proc_.advance(&achieved, dt);
                if proc_.is_done() {
                    any_done = true;
                    finished.push(FinishedProcess { vm: vm.id, pid: *pid });
                }
            }
            if any_done {
                vm.processes.retain(|(_, p)| !p.is_done());
            }
        }

        self.last_disk_rho = disk_rho;
        self.last_mem_rho = mem_rho;

        TickReport {
            finished,
            disk_utilization: disk_rho,
            memory_utilization: mem_rho,
            cpu_utilization: cpu_used / (self.config.cores as f64 * dt_s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::IoPattern;

    /// A process that wants `instr` instructions and `bytes` of I/O total.
    #[derive(Clone)]
    struct WorkProc {
        instr_left: f64,
        bytes_left: f64,
        total_instr: f64,
        total_bytes: f64,
        pattern: IoPattern,
    }

    impl WorkProc {
        fn cpu(instr: f64) -> Self {
            WorkProc {
                instr_left: instr,
                bytes_left: 0.0,
                total_instr: instr,
                total_bytes: 0.0,
                pattern: IoPattern::Random,
            }
        }
        fn io(bytes: f64, pattern: IoPattern) -> Self {
            WorkProc {
                instr_left: 0.0,
                bytes_left: bytes,
                total_instr: 0.0,
                total_bytes: bytes,
                pattern,
            }
        }
    }

    impl Process for WorkProc {
        fn demand(&self, dt: SimDuration) -> ResourceDemand {
            let dt_s = dt.as_secs_f64();
            ResourceDemand {
                cpu_parallelism: if self.instr_left > 0.0 { 1.0 } else { 0.0 },
                cpu_instructions: self.instr_left.min(1e10 * dt_s),
                // Closed-loop I/O with bounded queue depth: a real process
                // submits ~2000 random ops/s or ~200 MB/s sequential at most.
                io_ops: if self.bytes_left > 0.0 {
                    (self.bytes_left / 4096.0).min(2_000.0 * dt_s)
                } else {
                    0.0
                },
                io_bytes: self.bytes_left.min(2.0e8 * dt_s),
                io_pattern: self.pattern,
                io_queue_depth: 32.0,
                mem_refs_per_instr: 0.01,
                working_set: 1e6,
                cache_reuse: 0.9,
                base_cpi: 1.0,
            }
        }
        fn advance(&mut self, a: &Achieved, _dt: SimDuration) {
            self.instr_left = (self.instr_left - a.instructions).max(0.0);
            self.bytes_left = (self.bytes_left - a.io_bytes).max(0.0);
        }
        fn is_done(&self) -> bool {
            self.instr_left <= 0.0 && self.bytes_left <= 0.0
        }
        fn progress(&self) -> f64 {
            let total = self.total_instr + self.total_bytes;
            if total <= 0.0 {
                1.0
            } else {
                1.0 - (self.instr_left + self.bytes_left) / total
            }
        }
        fn label(&self) -> &str {
            "work"
        }
    }

    const DT: SimDuration = SimDuration::from_micros(100_000);

    fn server() -> PhysicalServer {
        PhysicalServer::new(ServerId(0), ServerConfig::default(), RngFactory::new(7), DT)
    }

    #[test]
    fn cpu_bound_process_finishes_in_expected_time() {
        let mut s = server();
        s.add_vm(VmId(0), VmConfig::high_priority());
        // 2.3e9 instructions at ~1 CPI on one 2.3 GHz core ≈ 1 s.
        let pid = s.spawn(VmId(0), Box::new(WorkProc::cpu(2.3e9)));
        let mut ticks = 0;
        loop {
            let r = s.tick(DT);
            ticks += 1;
            if r.finished.iter().any(|f| f.pid == pid) {
                break;
            }
            assert!(ticks < 100, "process did not finish");
        }
        let secs = ticks as f64 * 0.1;
        assert!((0.8..=1.6).contains(&secs), "took {secs}s, expected ≈1s");
    }

    #[test]
    fn io_bound_process_progresses_and_counts() {
        let mut s = server();
        s.add_vm(VmId(0), VmConfig::high_priority());
        s.spawn(VmId(0), Box::new(WorkProc::io(40.0e6, IoPattern::Sequential)));
        for _ in 0..20 {
            s.tick(DT);
        }
        let c = s.counters(VmId(0)).unwrap().counters;
        assert!(c.io_service_bytes > 0.0);
        assert!(c.io_serviced > 0.0);
    }

    #[test]
    fn cpu_cap_slows_a_process_down() {
        let run = |cap: Option<f64>| {
            let mut s = server();
            s.add_vm(VmId(0), VmConfig::low_priority());
            if let Some(c) = cap {
                s.set_cpu_cap(VmId(0), CpuCap { cores: Some(c) });
            }
            let pid = s.spawn(VmId(0), Box::new(WorkProc::cpu(2.3e9)));
            let mut ticks = 0;
            while s.process_progress(VmId(0), pid).is_some() {
                s.tick(DT);
                ticks += 1;
                assert!(ticks < 500);
            }
            ticks
        };
        let uncapped = run(None);
        let capped = run(Some(0.25));
        assert!(
            capped as f64 >= 3.0 * uncapped as f64,
            "0.25-core cap should ≈4x the runtime: {uncapped} vs {capped}"
        );
    }

    #[test]
    fn io_throttle_slows_io_down() {
        let run = |bps: Option<f64>| {
            let mut s = server();
            s.add_vm(VmId(0), VmConfig::low_priority());
            s.set_io_throttle(VmId(0), IoThrottle { iops: None, bps });
            let pid = s.spawn(VmId(0), Box::new(WorkProc::io(100.0e6, IoPattern::Sequential)));
            let mut ticks = 0;
            while s.process_progress(VmId(0), pid).is_some() {
                s.tick(DT);
                ticks += 1;
                assert!(ticks < 10_000);
            }
            ticks
        };
        let fast = run(None);
        let slow = run(Some(20.0e6));
        assert!(slow > 3 * fast, "20 MB/s cap on a 400 MB/s device: {fast} vs {slow}");
    }

    #[test]
    fn contention_inflates_iowait_ratio() {
        // One VM alone vs. the same VM sharing the disk with a heavy random
        // reader: wait per op must grow sharply.
        let ratio_of = |with_antagonist: bool| {
            let mut s = server();
            s.add_vm(VmId(0), VmConfig::high_priority());
            s.spawn(VmId(0), Box::new(WorkProc::io(8.0e6, IoPattern::Random)));
            if with_antagonist {
                s.add_vm(VmId(1), VmConfig::low_priority());
                s.spawn(VmId(1), Box::new(WorkProc::io(1e12, IoPattern::Random)));
            }
            for _ in 0..50 {
                s.tick(DT);
            }
            let c = s.counters(VmId(0)).unwrap().counters;
            c.io_wait_time / c.io_serviced * 1e3 // ms per op
        };
        let alone = ratio_of(false);
        let contended = ratio_of(true);
        assert!(
            contended > 3.0 * alone,
            "iowait ratio should blow up: alone {alone:.3} ms, contended {contended:.3} ms"
        );
    }

    #[test]
    fn kill_removes_process() {
        let mut s = server();
        s.add_vm(VmId(0), VmConfig::high_priority());
        let pid = s.spawn(VmId(0), Box::new(WorkProc::cpu(1e12)));
        assert_eq!(s.process_count(VmId(0)), 1);
        assert!(s.kill(VmId(0), pid));
        assert_eq!(s.process_count(VmId(0)), 0);
        assert!(!s.kill(VmId(0), pid), "double kill is a no-op");
    }

    #[test]
    fn progress_reaches_one_at_completion() {
        let mut s = server();
        s.add_vm(VmId(0), VmConfig::high_priority());
        let pid = s.spawn(VmId(0), Box::new(WorkProc::cpu(2.3e8)));
        let mut last = 0.0;
        while let Some(p) = s.process_progress(VmId(0), pid) {
            assert!(p >= last - 1e-9, "progress must be monotone");
            last = p;
            s.tick(DT);
        }
        assert!(last > 0.5);
    }

    #[test]
    fn counters_are_monotone() {
        let mut s = server();
        s.add_vm(VmId(0), VmConfig::high_priority());
        s.spawn(VmId(0), Box::new(WorkProc::cpu(1e11)));
        s.spawn(VmId(0), Box::new(WorkProc::io(1e9, IoPattern::Random)));
        let mut prev = s.counters(VmId(0)).unwrap().counters;
        for _ in 0..30 {
            s.tick(DT);
            let c = s.counters(VmId(0)).unwrap().counters;
            assert!(c.instructions >= prev.instructions);
            assert!(c.io_serviced >= prev.io_serviced);
            assert!(c.io_wait_time >= prev.io_wait_time);
            assert!(c.cycles >= prev.cycles);
            prev = c;
        }
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut s = server();
            s.add_vm(VmId(0), VmConfig::high_priority());
            s.add_vm(VmId(1), VmConfig::low_priority());
            s.spawn(VmId(0), Box::new(WorkProc::io(5e8, IoPattern::Random)));
            s.spawn(VmId(1), Box::new(WorkProc::io(1e10, IoPattern::Random)));
            for _ in 0..40 {
                s.tick(DT);
            }
            let c = s.counters(VmId(0)).unwrap().counters;
            (c.io_serviced, c.io_wait_time, c.instructions)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "duplicate VM id")]
    fn duplicate_vm_id_rejected() {
        let mut s = server();
        s.add_vm(VmId(0), VmConfig::high_priority());
        s.add_vm(VmId(0), VmConfig::high_priority());
    }

    #[test]
    fn extract_preserves_vm_and_stayer_order() {
        let mut s = server();
        s.add_vm(VmId(0), VmConfig::high_priority());
        s.add_vm(VmId(1), VmConfig::low_priority());
        s.add_vm(VmId(2), VmConfig::high_priority());
        let pid = s.spawn(VmId(1), Box::new(WorkProc::cpu(1e12)));
        for _ in 0..5 {
            s.tick(DT);
        }
        let before = s.counters(VmId(1)).unwrap();
        let vm = s.extract_vm(VmId(1)).expect("hosted");
        assert_eq!(vm.id, VmId(1));
        assert_eq!(vm.process_count(), 1);
        assert!(!s.hosts(VmId(1)));
        // Stayers keep boot order and stay addressable.
        assert_eq!(s.vm_ids(), vec![VmId(0), VmId(2)]);
        assert!(s.counters(VmId(2)).is_some());
        assert!(s.extract_vm(VmId(1)).is_none(), "double extract is a no-op");

        let mut dst =
            PhysicalServer::new(ServerId(1), ServerConfig::default(), RngFactory::new(8), DT);
        dst.insert_vm(vm);
        assert!(dst.hosts(VmId(1)));
        assert_eq!(dst.counters(VmId(1)).unwrap(), before, "counters travel with the VM");
        assert!(dst.process_progress(VmId(1), pid).is_some(), "processes travel with the VM");
        for _ in 0..5 {
            dst.tick(DT);
        }
        assert!(
            dst.counters(VmId(1)).unwrap().counters.instructions > before.counters.instructions,
            "migrated VM resumes progress on the destination"
        );
    }

    #[test]
    fn paused_vm_makes_no_progress_and_resumes() {
        let mut s = server();
        s.add_vm(VmId(0), VmConfig::high_priority());
        let pid = s.spawn(VmId(0), Box::new(WorkProc::cpu(2.3e10)));
        for _ in 0..3 {
            s.tick(DT);
        }
        let p0 = s.process_progress(VmId(0), pid).unwrap();
        assert!(p0 > 0.0);
        s.set_paused(VmId(0), true);
        let frozen = s.counters(VmId(0)).unwrap();
        for _ in 0..10 {
            s.tick(DT);
        }
        assert_eq!(s.process_progress(VmId(0), pid).unwrap(), p0, "paused VM is frozen");
        assert_eq!(s.counters(VmId(0)).unwrap(), frozen, "no counter motion while paused");
        s.set_paused(VmId(0), false);
        s.tick(DT);
        assert!(s.process_progress(VmId(0), pid).unwrap() > p0, "resumes after thaw");
    }

    #[test]
    fn migration_load_taxes_cpu_capacity() {
        let run = |tax: f64| {
            let mut s = server();
            s.add_vm(VmId(0), VmConfig::high_priority());
            s.set_migration_load(tax);
            let pid = s.spawn(VmId(0), Box::new(WorkProc::cpu(2.3e9)));
            let mut ticks = 0;
            while s.process_progress(VmId(0), pid).is_some() {
                s.tick(DT);
                ticks += 1;
                assert!(ticks < 2_000);
            }
            ticks
        };
        let untaxed = run(0.0);
        let taxed = run(47.5);
        assert!(
            taxed as f64 >= 1.5 * untaxed as f64,
            "a 47.5-of-48-core migration tax must slow a 1-core job: {untaxed} vs {taxed}"
        );
    }

    #[test]
    fn zero_migration_load_is_exactly_free() {
        // The capacity expression must be bit-identical with tax 0.0 so
        // existing goldens cannot move.
        let run = |set_zero: bool| {
            let mut s = server();
            s.add_vm(VmId(0), VmConfig::high_priority());
            s.add_vm(VmId(1), VmConfig::low_priority());
            if set_zero {
                s.set_migration_load(0.0);
            }
            s.spawn(VmId(0), Box::new(WorkProc::io(5e8, IoPattern::Random)));
            s.spawn(VmId(1), Box::new(WorkProc::cpu(1e11)));
            for _ in 0..40 {
                s.tick(DT);
            }
            let a = s.counters(VmId(0)).unwrap().counters;
            let b = s.counters(VmId(1)).unwrap().counters;
            (a.io_serviced, a.io_wait_time, b.instructions, b.cpu_time)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn work_conserving_across_vms() {
        // Two VMs, one busy, one idle: busy VM is not slowed by idle one.
        let mut s1 = server();
        s1.add_vm(VmId(0), VmConfig::high_priority());
        let p1 = s1.spawn(VmId(0), Box::new(WorkProc::cpu(2.3e9)));
        let mut s2 = server();
        s2.add_vm(VmId(0), VmConfig::high_priority());
        s2.add_vm(VmId(1), VmConfig::low_priority());
        let p2 = s2.spawn(VmId(0), Box::new(WorkProc::cpu(2.3e9)));
        let t1 = {
            let mut t = 0;
            while s1.process_progress(VmId(0), p1).is_some() {
                s1.tick(DT);
                t += 1;
            }
            t
        };
        let t2 = {
            let mut t = 0;
            while s2.process_progress(VmId(0), p2).is_some() {
                s2.tick(DT);
                t += 1;
            }
            t
        };
        assert_eq!(t1, t2);
    }
}
