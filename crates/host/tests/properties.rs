//! Property-based tests for the host resource-arbitration models and the
//! server tick.

use perfcloud_frameworks::{Phase, TaskProcess, TaskSpec};
use perfcloud_host::config::{DiskConfig, MemoryConfig};
use perfcloud_host::cpu::{allocate as cpu_allocate, CpuRequest, Waterfill};
use perfcloud_host::disk::{allocate as disk_allocate, DiskRequest};
use perfcloud_host::memory::{model as mem_model, MemRequest};
use perfcloud_host::throttle::{CpuCap, IoThrottle};
use perfcloud_host::{
    IoPattern, PhysicalServer, Process, ProcessId, ServerConfig, ServerId, TickReport, Vm,
    VmConfig, VmId,
};
use perfcloud_sim::{RngFactory, SimDuration};
use perfcloud_workloads::{FioRandRead, Stream};
use proptest::prelude::*;

fn cpu_requests() -> impl Strategy<Value = Vec<CpuRequest>> {
    proptest::collection::vec(
        (0.0f64..10.0, 0.0f64..10.0, 0.5f64..8.0).prop_map(|(demand, limit, weight)| CpuRequest {
            demand,
            limit,
            weight,
        }),
        0..12,
    )
}

/// VM id space of the scratch-purity property.
const VMS: u32 = 8;
const DT: SimDuration = SimDuration::from_micros(100_000);

/// One step of the scratch-purity script: a tick, or a control-plane or
/// scheduler action between ticks.
#[derive(Debug, Clone, Copy)]
enum Op {
    Tick,
    Spawn { vm: VmId, kind: u8, size: f64 },
    Kill { vm: VmId, pid: ProcessId },
    Pause { vm: VmId, on: bool },
    Throttle { vm: VmId, iops: Option<f64> },
    Cap { vm: VmId, cores: Option<f64> },
    Extract { vm: VmId },
    Reinsert,
    MigrationLoad { cores: f64 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..17, 0..VMS, 0u8..5, 0.0f64..1.0, 0u64..40).prop_map(|(code, vm, kind, x, pid)| {
            let vm = VmId(vm);
            match code {
                0 => Op::Spawn { vm, kind, size: x },
                1 => Op::Kill { vm, pid: ProcessId(pid) },
                2 => Op::Pause { vm, on: x < 0.6 },
                3 => Op::Throttle { vm, iops: (x < 0.7).then_some(50.0 + 4_000.0 * x) },
                4 => Op::Cap { vm, cores: (x < 0.7).then_some(0.1 + 6.0 * x) },
                5 => Op::Extract { vm },
                6 => Op::Reinsert,
                7 => Op::MigrationLoad { cores: if x < 0.5 { 0.0 } else { 4.0 * x } },
                _ => Op::Tick,
            }
        }),
        20..120,
    )
}

/// A real guest process of the given kind; `size` in [0, 1) scales its
/// work, so short ones finish mid-script and exercise the reaping path.
fn process(kind: u8, size: f64) -> Box<dyn Process> {
    let secs = SimDuration::from_secs(0.2 + 3.0 * size);
    match kind {
        0 => Box::new(TaskProcess::new(TaskSpec::new(
            "map",
            vec![Phase::io(1e6 + 4e8 * size, IoPattern::Sequential), Phase::compute(1e9 * size)],
        ))),
        1 => Box::new(TaskProcess::new(TaskSpec::new(
            "shuffle",
            vec![Phase::io(1e5 + 2e8 * size, IoPattern::Random), Phase::compute(5e8)],
        ))),
        2 => Box::new(TaskProcess::new(TaskSpec::new(
            "cpu",
            vec![Phase::compute(1e8 + 1e10 * size)],
        ))),
        3 => Box::new(FioRandRead::new(Some(secs)).with_modulation(size.to_bits())),
        _ => Box::new(Stream::new(Some(secs)).with_modulation(size.to_bits())),
    }
}

/// Applies one op to a server and its pool of extracted VMs; returns the
/// tick's report for `Op::Tick`.
fn apply(server: &mut PhysicalServer, parked: &mut Vec<Vm>, op: Op) -> Option<TickReport> {
    match op {
        Op::Tick => return Some(server.tick(DT)),
        Op::Spawn { vm, kind, size } => {
            if server.hosts(vm) {
                server.spawn(vm, process(kind, size));
            }
        }
        Op::Kill { vm, pid } => {
            server.kill(vm, pid);
        }
        Op::Pause { vm, on } => server.set_paused(vm, on),
        Op::Throttle { vm, iops } => server.set_io_throttle(vm, IoThrottle { iops, bps: None }),
        Op::Cap { vm, cores } => server.set_cpu_cap(vm, CpuCap { cores }),
        Op::Extract { vm } => parked.extend(server.extract_vm(vm)),
        Op::Reinsert => {
            if let Some(vm) = parked.pop() {
                server.insert_vm(vm);
            }
        }
        Op::MigrationLoad { cores } => server.set_migration_load(cores),
    }
    None
}

/// Every observable of a tick and the server's counters, as raw bits.
fn fingerprint(report: &TickReport, server: &PhysicalServer) -> Vec<u64> {
    let mut bits = vec![
        report.disk_utilization.to_bits(),
        report.memory_utilization.to_bits(),
        report.cpu_utilization.to_bits(),
    ];
    for f in &report.finished {
        bits.extend([u64::from(f.vm.0), f.pid.0]);
    }
    for (vm, snap) in server.snapshots() {
        let c = snap.counters;
        bits.push(u64::from(vm.0));
        bits.extend(
            [
                c.io_serviced,
                c.io_service_bytes,
                c.io_wait_time,
                c.cpu_time,
                c.cycles,
                c.instructions,
                c.llc_references,
                c.llc_misses,
            ]
            .map(f64::to_bits),
        );
    }
    bits
}

fn disk_requests() -> impl Strategy<Value = Vec<DiskRequest>> {
    proptest::collection::vec(
        (0.0f64..5_000.0, 0.0f64..1e8, 0.0f64..100.0, 0.0f64..1e8, 0.1f64..4.0, 1.0f64..512.0)
            .prop_map(|(rand_ops, rand_bytes, seq_ops, seq_bytes, luck, queue_depth)| {
                DiskRequest { rand_ops, rand_bytes, seq_ops, seq_bytes, luck, queue_depth }
            }),
        0..10,
    )
}

proptest! {
    /// CPU allocation never exceeds capacity, demand, or limit — and is
    /// work-conserving when undersubscribed.
    #[test]
    fn cpu_allocation_feasible(reqs in cpu_requests(), capacity in 0.0f64..50.0) {
        let mut fill = Waterfill::default();
        let alloc = cpu_allocate(&reqs, capacity, &mut fill);
        prop_assert_eq!(alloc.len(), reqs.len());
        let total: f64 = alloc.iter().sum();
        prop_assert!(total <= capacity + 1e-6, "total {total} > capacity {capacity}");
        let mut want_total = 0.0;
        for (a, r) in alloc.iter().zip(&reqs) {
            prop_assert!(*a >= -1e-12);
            prop_assert!(*a <= r.demand.min(r.limit) + 1e-6);
            want_total += r.demand.min(r.limit);
        }
        if want_total <= capacity {
            prop_assert!((total - want_total).abs() < 1e-6, "must be work-conserving");
        }
    }

    /// Disk allocation is feasible and per-VM outcomes never exceed demand.
    #[test]
    fn disk_allocation_feasible(reqs in disk_requests(), dt in 0.01f64..1.0) {
        let cfg = DiskConfig::default();
        let mut outcomes = Vec::new();
        let offered = disk_allocate(&reqs, &cfg, 1.0, dt, &mut Waterfill::default(), &mut outcomes);
        prop_assert_eq!(outcomes.len(), reqs.len());
        for (o, r) in outcomes.iter().zip(&reqs) {
            let ops_want = r.rand_ops + r.seq_ops;
            let bytes_want = r.rand_bytes + r.seq_bytes;
            prop_assert!(o.ops <= ops_want + 1e-6);
            prop_assert!(o.bytes <= bytes_want + 1e-3);
            prop_assert!(o.ops >= -1e-12 && o.bytes >= -1e-12 && o.wait >= -1e-12);
        }
        prop_assert!(offered >= 0.0);
    }

    /// Total device time granted never exceeds the tick.
    #[test]
    fn disk_time_conservation(reqs in disk_requests(), dt in 0.01f64..1.0) {
        let cfg = DiskConfig::default();
        let mut outcomes = Vec::new();
        disk_allocate(&reqs, &cfg, 1.0, dt, &mut Waterfill::default(), &mut outcomes);
        let mut granted_time = 0.0;
        for (o, r) in outcomes.iter().zip(&reqs) {
            let ops_want = r.rand_ops + r.seq_ops;
            let frac = if ops_want > 0.0 { o.ops / ops_want } else { 0.0 };
            let want_time = r.rand_ops / cfg.max_random_iops
                + (r.rand_bytes + r.seq_bytes) / cfg.max_seq_bps;
            granted_time += frac * want_time;
        }
        prop_assert!(granted_time <= dt + 1e-6, "granted {granted_time} > dt {dt}");
    }

    /// Memory model: miss rates in [0,1], CPI ≥ base CPI (with luck ≥ 0),
    /// and monotone in added streaming pressure.
    #[test]
    fn memory_model_sane(
        n in 1usize..8,
        refs in 0.0f64..0.3,
        ws in 1e3f64..1e9,
        reuse in 0.0f64..1.0,
    ) {
        let cfg = MemoryConfig::default();
        let base = MemRequest {
            instr_demand: 1e8,
            activity: 1.0,
            refs_per_instr: refs,
            working_set: ws,
            cache_reuse: reuse,
            base_cpi: 1.0,
            luck: 1.0,
        };
        let reqs: Vec<MemRequest> = (0..n).map(|_| base).collect();
        let mut t = Vec::new();
        mem_model(&reqs, &cfg, 0.1, &mut t);
        for o in &t {
            prop_assert!((0.0..=1.0).contains(&o.miss_rate));
            prop_assert!(o.cpi >= 1.0 - 1e-9);
        }
        // Add a large streaming antagonist: everyone's CPI must not drop.
        let mut with_stream = reqs.clone();
        with_stream.push(MemRequest {
            instr_demand: 1e9,
            activity: 1.0,
            refs_per_instr: 0.25,
            working_set: 2e9,
            cache_reuse: 0.0,
            base_cpi: 1.0,
            luck: 1.0,
        });
        let mut t2 = Vec::new();
        mem_model(&with_stream, &cfg, 0.1, &mut t2);
        for (before, after) in t.iter().zip(&t2) {
            prop_assert!(after.cpi >= before.cpi - 1e-9);
            prop_assert!(after.miss_rate >= before.miss_rate - 1e-9);
        }
    }

    /// Throttle clamp output never exceeds the caps or the demand.
    #[test]
    fn throttle_clamp_feasible(
        ops in 0.0f64..1e6,
        bytes in 0.0f64..1e9,
        iops_cap in proptest::option::of(0.0f64..1e5),
        bps_cap in proptest::option::of(0.0f64..1e8),
        dt in 0.01f64..1.0,
    ) {
        let t = IoThrottle { iops: iops_cap, bps: bps_cap };
        let (o, b) = t.clamp(ops, bytes, dt);
        prop_assert!(o <= ops + 1e-9 && b <= bytes + 1e-9);
        if let Some(cap) = iops_cap {
            prop_assert!(o <= cap * dt + 1e-6);
        }
        if let Some(cap) = bps_cap {
            prop_assert!(b <= cap * dt + 1e-3);
        }
        prop_assert!(o >= 0.0 && b >= 0.0);
    }

    /// CPU cap is always within [0, vcpus].
    #[test]
    fn cpu_cap_bounded(cores in proptest::option::of(-5.0f64..100.0), vcpus in 1u32..64) {
        let c = CpuCap { cores };
        let e = c.effective_cores(vcpus);
        prop_assert!((0.0..=vcpus as f64).contains(&e));
    }

    /// The tick's working columns are pure scratch: a server ticked
    /// continuously (its columns carrying capacity, and stale rows, from
    /// larger earlier ticks) and a clone taken mid-run (empty columns) stay
    /// bit-identical through arbitrary churn — VMs leaving and rejoining,
    /// pauses, kills, spawns, throttles and caps between ticks.
    #[test]
    fn tick_scratch_is_pure(
        seed in 0u64..1_000,
        cores in 2u32..24,
        initial in proptest::collection::vec((0u8..5, 0.0f64..1.0, 1u32..5), 1..(VMS as usize)),
        script in ops(),
        fork_at in 0.0f64..1.0,
    ) {
        // Few cores for the VMs' vCPUs, so the CPU fill is often
        // oversubscribed and ends with VMs still competing.
        let config = ServerConfig { cores, ..ServerConfig::chameleon() };
        let mut a = PhysicalServer::new(ServerId(0), config, RngFactory::new(seed), DT);
        for (i, &(kind, size, vcpus)) in initial.iter().enumerate() {
            let vm = VmId(i as u32);
            let cfg = if kind < 3 { VmConfig::high_priority() } else { VmConfig::low_priority() };
            a.add_vm(vm, cfg.with_vcpus(vcpus));
            a.spawn(vm, process(kind, size));
            a.spawn(vm, process((kind + 2) % 5, 1.0 - size));
        }
        let mut parked_a = Vec::new();
        // Warm the continuous server's columns before the script starts.
        for _ in 0..3 {
            a.tick(DT);
        }
        let fork = (fork_at * script.len() as f64) as usize;
        for &op in &script[..fork] {
            apply(&mut a, &mut parked_a, op);
        }
        let mut b = a.clone();
        let mut parked_b = parked_a.clone();
        let mut ticks = 0;
        for &op in &script[fork..] {
            let ra = apply(&mut a, &mut parked_a, op);
            let rb = apply(&mut b, &mut parked_b, op);
            prop_assert_eq!(ra.is_some(), rb.is_some());
            if let (Some(ra), Some(rb)) = (ra, rb) {
                ticks += 1;
                prop_assert_eq!(fingerprint(&ra, &a), fingerprint(&rb, &b), "tick {} after fork", ticks);
            }
        }
        prop_assert_eq!(a.vm_ids(), b.vm_ids());
        prop_assert_eq!(parked_a.len(), parked_b.len());
    }
}
