//! Proof that recording a decision trace costs no per-entry allocation.
//!
//! A counting global allocator wraps the system allocator. Recording 10k
//! node-manager steps — idle, busy (signal, antagonists, caps, enrolled and
//! released VMs, events) and capped-while-undecided — interleaved with
//! control-plane events may only grow the trace's six `Vec`s (entries and
//! the VM, cap, enrolled, released and event columns), each doubling in
//! capacity: a few dozen allocations in total, not one or more per step.

use perfcloud_cluster::DecisionTrace;
use perfcloud_core::{ContentionSignal, StepReport};
use perfcloud_host::VmId;
use perfcloud_obs::FlightEvent;
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

const STEPS: u64 = 10_000;

/// The trace's entries plus its five flat columns.
const VECS: u64 = 6;

/// Doubling growth of a `Vec` to ~10k–20k elements takes about 15
/// reallocations; anything per-step blows far past this.
const MAX_ALLOCS: u64 = 16 * VECS;

#[test]
fn recording_allocates_only_for_amortized_growth() {
    let idle = StepReport::default();
    let busy = StepReport {
        signal: Some(ContentionSignal {
            io_deviation: Some(12.5),
            cpi_deviation: Some(0.25),
            io_contended: true,
            cpu_contended: false,
        }),
        io_antagonists: vec![VmId(10), VmId(11)],
        cpu_antagonists: vec![VmId(12)],
        io_caps: vec![(VmId(10), 0.2), (VmId(11), 0.35)],
        cpu_caps: vec![(VmId(12), 0.5)],
        io_enrolled: vec![VmId(11)],
        cpu_enrolled: vec![VmId(12)],
        io_released: vec![VmId(13)],
        events: vec![
            FlightEvent::FlushBatch { server: 0, count: 6 },
            FlightEvent::SampleIngested { server: 0, vm: 10 },
        ],
        ..StepReport::default()
    };
    let capped = StepReport {
        io_caps: vec![(VmId(10), 0.125)],
        cpu_released: vec![VmId(12)],
        placement_stale: true,
        events: vec![FlightEvent::PlacementStale { server: 0, staleness: 3 }],
        ..StepReport::default()
    };
    let reports = [idle, busy, capped];
    let ctrl = [
        FlightEvent::Election { replica: 1, round: 2 },
        FlightEvent::EpochPublished { replica: 0, term: 1 << 32, seq: 5, ok: 0, cut: 1 },
        FlightEvent::EpochRejected {
            server: 0,
            term: 1 << 32,
            seq: 1,
            have_term: (2 << 32) | 1,
            have_seq: 3,
        },
        FlightEvent::MigrationStart { vm: 10, from: 0, to: 1 },
    ];

    let mut trace = DecisionTrace::new();
    counted(true);
    ALLOC_CALLS.store(0, Ordering::Relaxed);
    for k in 0..STEPS {
        let now = SimTime::from_secs(5 * (k / 4 + 1));
        trace.record(now, (k % 4) as usize, &reports[(k % 3) as usize]);
        if k % 10 == 0 {
            trace.record_ctrl(now, &ctrl[(k / 10 % 4) as usize]);
        }
    }
    counted(false);
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed);

    assert_eq!(trace.lines().len() as u64, STEPS + STEPS / 10);
    assert!(
        allocs <= MAX_ALLOCS,
        "recording {STEPS} steps made {allocs} allocations (limit {MAX_ALLOCS})"
    );
}
