//! Proof that a steady-state node-manager interval allocates nothing.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! long enough to grow every rolling window to its retention horizon, each
//! interval of the path an experiment runs — the placement update applied
//! through [`NodeManager::apply_placement`], then
//! [`NodeManager::step_synced`] (batched sampling of every VM through the
//! fault filter, when one is attached, deviation detection, antagonist
//! correlation), then the colocation-notice drain — must perform zero heap
//! allocations. Server ticking happens outside the measured window: the
//! hypervisor model may allocate, the agent must not.

use perfcloud_core::{
    AppId, CloudManager, DetectorKind, IdentifierKind, NodeFaults, NodeManager, PerfCloudConfig,
    PipelineSpec, Placement, PlacementEpoch, StepReport, VmRecord,
};
use perfcloud_host::{PhysicalServer, Priority, ServerConfig, ServerId, VmConfig, VmId};
use perfcloud_sim::faults::{FaultKind, FaultRule, FaultScenario, MessageClass};
use perfcloud_sim::{RngFactory, SimDuration, SimTime};
use perfcloud_workloads::{FioRandRead, SysbenchCpu};
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

/// Which node manager the steady-state drive measures.
#[derive(Clone, Copy, PartialEq)]
enum Agent {
    /// The paper pipeline at the paper's 5 s sampling.
    Paper,
    /// The same with a flight recorder attached before warm-up, so its ring
    /// is the only pre-reserved buffer and the record path itself is
    /// measured.
    PaperObserved,
    /// The fine-grained monitoring agent: the Alioth detector and the PANDA
    /// identifier at 1 s sampling, behind a fault filter (5% sample drops,
    /// plus a placement-delay link rule the sample path must skip), with a
    /// flight recorder.
    Finemon,
}

/// One interval as the control plane's zero-latency loopback runs it: the
/// registry's view (fetched into the reused `view`) is applied at a fresh
/// epoch, the agent steps, and its colocation notices go straight to the
/// cloud manager.
fn loopback_step(
    nm: &mut NodeManager,
    now: SimTime,
    server: &mut PhysicalServer,
    cloud: &mut CloudManager,
    view: &mut Placement,
    report: &mut StepReport,
) {
    cloud.placement_into(server.id, view);
    nm.apply_placement(now, PlacementEpoch { term: 1, seq: now.as_micros() }, view);
    nm.step_synced(now, server, false, report);
    while let Some(apps) = nm.take_colocation_notice() {
        cloud.notify_colocation(server.id, apps);
    }
}

/// Drives the steady-state testbed and returns the allocation count over
/// 50 measured loopback intervals.
fn steady_state_allocs(agent: Agent) -> u64 {
    const DT: SimDuration = SimDuration::from_micros(100_000);
    const WARMUP_STEPS: usize = 210;
    const MEASURED_STEPS: usize = 50;
    let mut server =
        PhysicalServer::new(ServerId(0), ServerConfig::default(), RngFactory::new(7), DT);
    let mut cloud = CloudManager::new();
    // One 4-VM high-priority application plus two low-priority suspects,
    // one doing I/O and one burning CPU, so every stage of the pipeline has
    // live series to chew on.
    for vm in (0..4).map(VmId) {
        server.add_vm(vm, VmConfig::high_priority());
        server.spawn(vm, Box::new(FioRandRead::with_rate(300.0, 4096.0, None)));
        cloud.register(
            vm,
            VmRecord { server: ServerId(0), priority: Priority::High, app: Some(AppId(1)) },
        );
    }
    for vm in [VmId(10), VmId(11)] {
        server.add_vm(vm, VmConfig::low_priority());
        cloud.register(vm, VmRecord { server: ServerId(0), priority: Priority::Low, app: None });
    }
    server.spawn(VmId(10), Box::new(FioRandRead::with_rate(5_000.0, 4096.0, None)));
    server.spawn(VmId(11), Box::new(SysbenchCpu::new()));

    // Monitoring mode: detection, observation and identification all run
    // every interval but no VM is ever enrolled for capping (the cap-trace
    // series retain 4096 points — a far longer horizon than the metric
    // windows, needing thousands of warm-up intervals to reach steady
    // capacity). The paper detector gets there through thresholds at
    // infinity; Alioth's thresholds are checked-in weights, so its agent
    // runs with actuation off instead.
    let interval = SimDuration::from_secs(if agent == Agent::Finemon { 1.0 } else { 5.0 });
    let mut nm = if agent == Agent::Finemon {
        let config = PerfCloudConfig { sample_interval: interval, ..Default::default() };
        let pipeline =
            PipelineSpec { detector: DetectorKind::Alioth, identifier: IdentifierKind::Panda };
        let mut nm = NodeManager::with_pipeline(config, pipeline);
        nm.set_actuation(false);
        let scenario = FaultScenario::named("alloc-free-finemon")
            .rule(FaultRule::new("drop-sample", FaultKind::DropSample).with_probability(0.05))
            .rule(
                FaultRule::new("lag-placement", FaultKind::DelayMessage { micros: 1_500_000 })
                    .on_message(MessageClass::Placement)
                    .with_probability(0.10),
            );
        nm.attach_faults(NodeFaults::new(42, scenario, 0));
        nm
    } else {
        NodeManager::new(PerfCloudConfig {
            h_io: f64::INFINITY,
            h_cpi: f64::INFINITY,
            ..Default::default()
        })
    };
    if agent != Agent::Paper {
        nm.attach_flight(1024);
    }
    let ticks_per_step = interval.as_micros() / DT.as_micros();
    let mut report = StepReport::default();
    let mut view = Placement::default();
    let mut now = SimTime::ZERO;
    let mut step = |nm: &mut NodeManager, report: &mut StepReport, counting: bool| -> u64 {
        for _ in 0..ticks_per_step {
            server.tick(DT);
        }
        now += interval;
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        counted(counting);
        loopback_step(nm, now, &mut server, &mut cloud, &mut view, report);
        counted(false);
        ALLOC_CALLS.load(Ordering::Relaxed) - before
    };

    // Warm-up: past the retention horizon of every rolling series
    // (corr_window * 8 = 192 samples with the default config), so all
    // buffer capacities are final.
    for _ in 0..WARMUP_STEPS {
        step(&mut nm, &mut report, false);
    }
    let total = (0..MEASURED_STEPS).map(|_| step(&mut nm, &mut report, true)).sum();

    // The pipeline was genuinely live, not short-circuited.
    assert!(report.signal.is_some(), "detector must be producing signals in the measured window");
    if agent == Agent::Finemon {
        // The drop rule fired: fewer deliveries reached the monitor than
        // the six VMs were polled.
        let stats = nm.monitor().ingest_stats();
        let polled = 6 * (WARMUP_STEPS + MEASURED_STEPS) as u64;
        assert!(stats.baselines + stats.recorded < polled, "no sample was dropped: {stats:?}");
    }
    total
}

#[test]
fn steady_state_node_manager_step_is_allocation_free() {
    let total = steady_state_allocs(Agent::Paper);
    assert_eq!(total, 0, "{total} allocations across 50 steady-state steps (expected 0)");
}

#[test]
fn steady_state_step_with_flight_recorder_is_allocation_free() {
    // The recorder's ring is reserved at attach time; recording into it —
    // and every `flight.as_mut()` branch threaded through the sampling,
    // detection and control paths — must not allocate either.
    let total = steady_state_allocs(Agent::PaperObserved);
    assert_eq!(total, 0, "{total} allocations across 50 observed steady-state steps (expected 0)");
}

#[test]
fn steady_state_finemon_step_is_allocation_free() {
    // Every per-sample path of the fine-grained agent: the fault filter's
    // drop/delay/duplicate/corruption decisions, offset-trimmed metric
    // windows at a 1 s cadence, Alioth's MAD and PANDA's aligned windows,
    // ranks and scores — all over reused buffers.
    let total = steady_state_allocs(Agent::Finemon);
    assert_eq!(total, 0, "{total} allocations across 50 finemon-shaped steps (expected 0)");
}
