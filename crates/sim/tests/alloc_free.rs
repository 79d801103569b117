//! Proof that steady-state timer-wheel churn performs zero heap allocations.
//!
//! A counting global allocator wraps the system allocator. After a warm-up
//! phase (node slab and firing buffer grown to the pending count), a long
//! stretch of pop-then-reinsert churn must not allocate at all — including
//! once the cursor runs into high-level slots the warm-up never touched.

use perfcloud_sim::wheel::{Entry, TimerWheel};
use perfcloud_sim::SimTime;
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

/// Entries kept pending throughout the churn.
const PENDING: u64 = 256;

/// Pops the earliest entry and reinserts it `1 + draw % span` µs later,
/// returning the popped time. Reinserted times are always ahead of the
/// cursor, so the late and overflow heaps stay empty.
fn churn(w: &mut TimerWheel, seq: &mut u64, x: &mut u64, span: u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    let e = w.pop().expect("pending count is constant");
    let t = e.time.as_micros();
    w.insert(Entry { time: SimTime::from_micros(t + 1 + *x % span), seq: *seq, id: e.id });
    *seq += 1;
    t
}

#[test]
fn steady_state_churn_is_allocation_free() {
    let mut w = TimerWheel::new();
    // All entries share one instant first, so the first pop grows the
    // firing buffer to the whole pending count: no later slot can hold more.
    for seq in 0..PENDING {
        w.insert(Entry { time: SimTime::ZERO, seq, id: seq });
    }
    let mut seq = PENDING;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;

    // Warm-up: short delays keep the cursor within levels 0-1.
    let mut warm_end = 0;
    for _ in 0..10_000 {
        warm_end = churn(&mut w, &mut seq, &mut x, 1 << 12);
    }

    // Measured: delays up to 2^30 µs push the cursor through level-4 and
    // level-5 slots it has never visited.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    counted(true);
    let mut last = 0;
    for _ in 0..100_000 {
        last = churn(&mut w, &mut seq, &mut x, 1 << 30);
    }
    counted(false);
    let after = ALLOC_CALLS.load(Ordering::Relaxed);

    assert!(last >> 30 > warm_end >> 30, "cursor never left the warm-up's level-5 slot");
    assert_eq!(w.len() as u64, PENDING);
    assert_eq!(after - before, 0, "steady-state churn allocated {} times", after - before);
}
