//! The monitor's per-VM series ring against a per-kind reference model,
//! and the heap a VM's history holds.
//!
//! The monitor keeps each VM's six metric series as one ring of rows with a
//! shared timestamp. The reference here keeps one
//! `Vec<(SimTime, Option<f64>)>` per kind, trimmed to the retention horizon
//! by draining its front. Random ingest scripts — baselines,
//! duplicate, stale and counter-regressed deliveries, non-finite raw
//! values, single-kind synthetic pushes, runs far past the horizon, and
//! clones taken mid-ring — drive both, and every series and every aligned
//! tail must agree bit for bit.

use perfcloud_core::{IngestOutcome, PerfCloudConfig, PerformanceMonitor, VmMetricKind};
use perfcloud_host::counters::IntervalMetrics;
use perfcloud_host::{CounterSnapshot, VmCounters, VmId};
use perfcloud_sim::SimTime;
use perfcloud_stats::timeseries::align_tail;
use perfcloud_stats::Ewma;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes allocated by the test's own thread while counting is on.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn track(delta: isize) {
    if COUNTING.with(|c| c.get()) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// The monitor's retention horizon for `config`.
fn retain_for(config: &PerfCloudConfig) -> usize {
    (config.corr_window * 8).max(64)
}

type Samples = Vec<(SimTime, Option<f64>)>;

/// One VM of the reference monitor: a baseline snapshot, the last accepted
/// instant, an EWMA per kind and one trimmed `Vec` per kind.
#[derive(Default)]
struct ModelVm {
    prev: Option<CounterSnapshot>,
    last_ingest: Option<SimTime>,
    ewma: [Option<Ewma>; 6],
    series: [Samples; 6],
}

/// The reference monitor.
struct Model {
    alpha: f64,
    retain: usize,
    vms: BTreeMap<VmId, ModelVm>,
}

impl Model {
    fn push(&mut self, vm: VmId, kind: usize, now: SimTime, value: Option<f64>) {
        let retain = self.retain;
        let series = &mut self.vms.entry(vm).or_default().series[kind];
        if let Some(&(t, _)) = series.last() {
            assert!(t < now, "model pushes must advance");
        }
        series.push((now, value));
        let cut = series.len().saturating_sub(retain);
        series.drain(..cut);
    }

    fn ingest(
        &mut self,
        now: SimTime,
        vm: VmId,
        snap: CounterSnapshot,
        tweak: impl Fn(usize, Option<f64>) -> Option<f64>,
    ) -> IngestOutcome {
        let alpha = self.alpha;
        let state = self.vms.entry(vm).or_default();
        match state.last_ingest {
            Some(last) if now == last => return IngestOutcome::Duplicate,
            Some(last) if now < last => return IngestOutcome::Stale,
            _ => {}
        }
        let Some(prev) = state.prev else {
            state.prev = Some(snap);
            state.last_ingest = Some(now);
            return IngestOutcome::Baseline;
        };
        if snap.regressed_since(&prev) {
            return IngestOutcome::CounterRegression;
        }
        let interval = state
            .series
            .iter()
            .find_map(|s| s.last().map(|&(t, _)| now.saturating_since(t).as_secs_f64()))
            .filter(|&s| s > 0.0)
            .unwrap_or(5.0);
        let m = IntervalMetrics::from_delta(&prev.delta_to(&snap), interval);
        let raw = [
            m.iowait_ratio_ms,
            m.cpi,
            m.llc_miss_rate,
            Some(m.io_bps),
            Some(m.io_iops),
            Some(m.cpu_cores),
        ];
        let mut smoothed = [None; 6];
        for (kind, raw) in raw.into_iter().enumerate() {
            smoothed[kind] = tweak(kind, raw)
                .filter(|v| v.is_finite())
                .map(|x| state.ewma[kind].get_or_insert_with(|| Ewma::new(alpha)).update(x));
        }
        state.prev = Some(snap);
        state.last_ingest = Some(now);
        for (kind, value) in smoothed.into_iter().enumerate() {
            self.push(vm, kind, now, value);
        }
        IngestOutcome::Recorded
    }

    fn series(&self, vm: VmId, kind: usize) -> Option<&Samples> {
        self.vms.get(&vm).map(|s| &s.series[kind]).filter(|s| !s.is_empty())
    }
}

fn bits(samples: impl Iterator<Item = (SimTime, Option<f64>)>) -> Vec<(SimTime, Option<u64>)> {
    samples.map(|(t, v)| (t, v.map(f64::to_bits))).collect()
}

/// Reference `align_tail` over two sample lists.
fn model_align(a: &Samples, b: &Samples, window: usize) -> Vec<(Option<u64>, Option<u64>)> {
    let common: Vec<_> = a
        .iter()
        .filter_map(|&(t, x)| b.iter().find(|p| p.0 == t).map(|&(_, y)| (x, y)))
        .map(|(x, y)| (x.map(f64::to_bits), y.map(f64::to_bits)))
        .collect();
    common[common.len().saturating_sub(window)..].to_vec()
}

/// VMs 0 and 1 are sampled through `ingest`; VMs 2 and 3 only receive
/// synthetic pushes of a fixed set of kinds at shared timestamps.
const INGESTED: [VmId; 2] = [VmId(0), VmId(1)];
const SYNTHETIC: [(VmId, &[VmMetricKind]); 2] = [
    (VmId(2), &[VmMetricKind::IoBps]),
    (VmId(3), &[VmMetricKind::IowaitRatio, VmMetricKind::Cpi, VmMetricKind::LlcMissRate]),
];

/// A raw value from the chaos layer's alphabet: missing, NaN, ±inf or
/// finite.
fn garbage(tag: u8, v: f64) -> Option<f64> {
    match tag {
        0 => None,
        1 => Some(f64::NAN),
        2 => Some(f64::INFINITY),
        3 => Some(f64::NEG_INFINITY),
        _ => Some(v),
    }
}

/// Asserts every series and a spread of aligned tails agree.
fn assert_same(mon: &PerformanceMonitor, model: &Model, window: usize) {
    let vms = INGESTED.iter().copied().chain(SYNTHETIC.iter().map(|s| s.0));
    for vm in vms.clone() {
        for kind in VmMetricKind::ALL {
            let got = mon.series(vm, kind).map(|s| bits(s.iter()));
            let want = model.series(vm, kind as usize).map(|s| bits(s.iter().copied()));
            assert_eq!(got, want, "{vm:?} {kind:?}");
        }
    }
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for a in vms.clone() {
        for b in vms.clone() {
            for (ka, kb) in [
                (VmMetricKind::IowaitRatio, VmMetricKind::IoBps),
                (VmMetricKind::Cpi, VmMetricKind::LlcMissRate),
            ] {
                let (Some(sa), Some(sb)) = (mon.series(a, ka), mon.series(b, kb)) else {
                    continue;
                };
                align_tail(sa, sb, window, &mut xs, &mut ys);
                let got: Vec<_> = xs
                    .iter()
                    .zip(&ys)
                    .map(|(x, y)| (x.map(f64::to_bits), y.map(f64::to_bits)))
                    .collect();
                let (ma, mb) = (model.series(a, ka as usize), model.series(b, kb as usize));
                let want =
                    model_align(ma.expect("model series"), mb.expect("model series"), window);
                assert_eq!(got, want, "align {a:?} {ka:?} with {b:?} {kb:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ring-backed monitor and the per-kind reference agree on every
    /// outcome, every series and every aligned tail, step by step.
    #[test]
    fn ring_monitor_matches_per_kind_model(
        ops in proptest::collection::vec(
            (0u8..12, 0u8..4, 0u64..9, (0u8..6, 0u8..6, -1e3f64..1e3), 0u8..16),
            0..700,
        ),
        corr_window in 3usize..13,
        window in 1usize..40,
    ) {
        let config = PerfCloudConfig { corr_window, ..Default::default() };
        let mut mon = PerformanceMonitor::new(&config);
        let mut model = Model { alpha: config.ewma_alpha, retain: retain_for(&config), vms: BTreeMap::new() };
        let mut clocks = [0u64; 4];
        let mut counters = [VmCounters::default(); 2];
        for &(op, which, gap, (tag_a, tag_b, v), mask) in &ops {
            let w = usize::from(which) % 2;
            let vm = INGESTED[w];
            let snap = CounterSnapshot { counters: counters[w] };
            // Raw values of the kinds in `mask` are replaced by garbage.
            let tweak = |kind: usize, raw: Option<f64>| {
                if mask & (1 << (kind % 4)) != 0 { garbage(tag_a, v) } else { raw }
            };
            let (now, snap) = match op {
                // Fresh deliveries: the counters advance (sometimes not at
                // all, which leaves iowait and CPI missing).
                0..=5 => {
                    clocks[w] += gap.max(1);
                    let c = &mut counters[w];
                    let step = if tag_b == 0 { 0.0 } else { v.abs() };
                    c.io_serviced += step;
                    c.io_service_bytes += 4096.0 * step;
                    c.io_wait_time += step * 1e-3 * f64::from(tag_b);
                    c.cpu_time += step * 1e-2;
                    c.cycles += step * 1e6;
                    c.instructions += step * 1e6 / (1.0 + f64::from(tag_a));
                    c.llc_references += step * 1e3;
                    c.llc_misses += step * 1e2 * f64::from(tag_b % 3);
                    (clocks[w], CounterSnapshot { counters: *c })
                }
                // A re-delivery at the newest instant.
                6 => (clocks[w], snap),
                // A delivery overtaken by fresher ones.
                7 => (clocks[w].saturating_sub(gap), snap),
                // A later delivery of counters older than the baseline.
                8 => {
                    clocks[w] += gap.max(1);
                    let mut old = snap;
                    old.counters.cycles *= 0.5;
                    (clocks[w], old)
                }
                // One synthetic interval, each kind through its own push,
                // in a rotated order.
                9 | 10 => {
                    let s = usize::from(which) % 2;
                    let (svm, kinds) = SYNTHETIC[s];
                    clocks[2 + s] += gap.max(1);
                    let at = SimTime::from_secs(clocks[2 + s]);
                    for i in 0..kinds.len() {
                        let kind = kinds[(i + usize::from(tag_b)) % kinds.len()];
                        let value = garbage(tag_a.wrapping_add(i as u8) % 6, v + i as f64);
                        mon.push_synthetic(svm, kind, at, value);
                        model.push(svm, kind as usize, at, value);
                    }
                    assert_same(&mon, &model, window);
                    continue;
                }
                // A clone taken mid-ring carries on in the original's place.
                _ => {
                    mon = mon.clone();
                    assert_same(&mon, &model, window);
                    continue;
                }
            };
            let now = SimTime::from_secs(now);
            let got = mon.ingest_tweaked(now, vm, snap, |kind, raw| tweak(kind as usize, raw));
            let want = model.ingest(now, vm, snap, tweak);
            prop_assert_eq!(got, want);
            assert_same(&mon, &model, window);
        }
    }
}

/// After ten horizons of samples, one VM's history holds at most
/// `retain × (8 + 6·8 + 1)` heap bytes: a timestamp, six values and a
/// presence byte per retained row, and nothing else. The VM's fixed state
/// (baseline snapshot, EWMAs, ring header) lives inline in the monitor's
/// map node, which a neighbour VM has already allocated, so the stated
/// constant on top of the rows is zero.
#[test]
fn a_vm_history_holds_exactly_its_retained_rows() {
    const FIXED_BYTES: usize = 0;
    let config = PerfCloudConfig::default();
    let retain = retain_for(&config);
    let mut mon = PerformanceMonitor::new(&config);
    let snap = |k: u64| {
        let x = k as f64;
        CounterSnapshot {
            counters: VmCounters {
                io_serviced: 100.0 * x,
                io_service_bytes: 4096.0 * 100.0 * x,
                io_wait_time: 0.05 * x,
                cpu_time: 0.5 * x,
                cycles: 1e9 * x,
                instructions: 8e8 * x,
                llc_references: 1e6 * x,
                llc_misses: 1e5 * x,
            },
        }
    };
    assert_eq!(mon.ingest(SimTime::ZERO, VmId(0), snap(0)), IngestOutcome::Baseline);

    COUNTING.with(|c| c.set(true));
    let before = LIVE.load(Ordering::Relaxed);
    for k in 0..=10 * retain as u64 {
        mon.ingest(SimTime::from_secs(5 * k), VmId(1), snap(k));
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));

    let rows = mon.series(VmId(1), VmMetricKind::CpuCores).expect("recorded").len();
    assert_eq!(rows, retain);
    let budget = retain * (8 + 6 * 8 + 1) + FIXED_BYTES;
    assert!(held > 0, "the history lives on the heap");
    assert!(held as usize <= budget, "{held} heap bytes for {retain} rows (budget {budget})");
}
