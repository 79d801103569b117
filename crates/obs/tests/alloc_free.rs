//! Proof that recording and metric updates never allocate after init.
//!
//! A counting global allocator wraps the system allocator. The flight
//! recorder reserves its ring at construction; [`FlightRecorder::record`]
//! — including wrap-around overwrites — and every metrics-registry update
//! path must then perform zero heap allocations, so components can record
//! from their hottest loops without perturbing the zero-allocation
//! steady-state proofs elsewhere in the workspace.

use perfcloud_obs::{FlightEvent, FlightRecorder, MetricsRegistry, Resource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

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

#[test]
fn record_path_is_allocation_free_even_across_wraparound() {
    let mut rec = FlightRecorder::with_capacity(256);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    counted(true);
    // 4x capacity: fills the ring, then overwrites every slot three times.
    for i in 0..1024u64 {
        rec.record(i * 100, FlightEvent::FlushBatch { server: 0, count: i });
        rec.record(
            i * 100 + 1,
            FlightEvent::CapUpdate { server: 0, vm: i, resource: Resource::Io, level: 0.5 },
        );
    }
    counted(false);
    let total = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(total, 0, "{total} allocations across 2048 records (expected 0)");
    assert_eq!(rec.iter().count(), 256);
}

#[test]
fn metric_updates_are_allocation_free() {
    let mut m = MetricsRegistry::with_capacity(8);
    let c = m.counter("ops");
    let d = m.counter("bytes");
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    counted(true);
    for i in 0..10_000u64 {
        m.inc(c, 1);
        m.inc(d, i);
    }
    counted(false);
    let total = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(total, 0, "{total} allocations across 20000 metric updates (expected 0)");
    assert_eq!(m.counter_value(c), 10_000);
}
