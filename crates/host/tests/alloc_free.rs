//! Proof that a steady-state server tick allocates nothing.
//!
//! A counting global allocator wraps the system allocator. Once warm-up
//! ticks have sized the server's working columns, every call to
//! [`PhysicalServer::tick`] — luck draws, demand aggregation, disk, memory
//! and CPU arbitration, counter accounting and the per-process
//! distribution — must perform zero heap allocations as long as no
//! process finishes (a finished process is reported in a fresh `Vec`).

use perfcloud_frameworks::{Phase, TaskProcess, TaskSpec};
use perfcloud_host::throttle::{CpuCap, IoThrottle};
use perfcloud_host::{IoPattern, PhysicalServer, ServerConfig, ServerId, VmConfig, VmId};
use perfcloud_sim::{RngFactory, SimDuration};
use perfcloud_workloads::{FioRandRead, Stream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// Only count allocations made by the test's own thread while the measured
// window is open: the libtest harness's main thread lazily initializes its
// result-channel machinery at an arbitrary point and must not pollute the
// count. Const-initialized, so reading the flag never itself allocates.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counted(on: bool) {
    COUNTING.with(|c| c.set(on));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DT: SimDuration = SimDuration::from_micros(100_000);

/// A two-phase task far too large to finish within the test: a sequential
/// read followed by a compute phase.
fn long_task(label: &str) -> TaskProcess {
    TaskProcess::new(TaskSpec::new(
        label,
        vec![Phase::io(1.0e11, IoPattern::Sequential), Phase::compute(1.0e13)],
    ))
}

#[test]
fn steady_state_server_tick_is_allocation_free() {
    let mut server =
        PhysicalServer::new(ServerId(0), ServerConfig::chameleon(), RngFactory::new(14), DT);
    // Eight task VMs (two processes each, so per-VM demand rows have
    // different offsets), two fio and two STREAM antagonists.
    for vm in (0..8).map(VmId) {
        server.add_vm(vm, VmConfig::high_priority());
        server.spawn(vm, Box::new(long_task("map")));
        server.spawn(
            vm,
            Box::new(TaskProcess::new(TaskSpec::new("cpu", vec![Phase::compute(1e13)]))),
        );
    }
    for vm in [VmId(8), VmId(9)] {
        server.add_vm(vm, VmConfig::low_priority());
        server.spawn(vm, Box::new(FioRandRead::new(None).with_modulation(u64::from(vm.0))));
    }
    for vm in [VmId(10), VmId(11)] {
        server.add_vm(vm, VmConfig::low_priority());
        server.spawn(vm, Box::new(Stream::new(None).with_modulation(u64::from(vm.0))));
    }
    server.set_io_throttle(VmId(8), IoThrottle { iops: Some(2_000.0), bps: None });
    server.set_cpu_cap(VmId(10), CpuCap { cores: Some(2.0) });
    server.set_paused(VmId(3), true);

    for _ in 0..20 {
        server.tick(DT);
    }

    let mut disk_busy = 0;
    let mut mem_busy = 0;
    let mut total = 0u64;
    for _ in 0..200 {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        counted(true);
        let report = server.tick(DT);
        counted(false);
        total += ALLOC_CALLS.load(Ordering::Relaxed) - before;
        assert!(report.finished.is_empty(), "no process may finish in the measured window");
        disk_busy += usize::from(report.disk_utilization > 0.5);
        mem_busy += usize::from(report.memory_utilization > 0.5);
    }

    // The tick was genuinely contended, not idling through cheap paths.
    assert_eq!(disk_busy, 200, "the block device must stay busy");
    assert_eq!(mem_busy, 200, "memory bandwidth must stay busy");
    assert_eq!(server.process_count(VmId(3)), 2, "the paused VM keeps its processes");
    assert_eq!(total, 0, "{total} allocations across 200 steady-state ticks (expected 0)");
}
