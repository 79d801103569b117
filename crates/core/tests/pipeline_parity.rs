//! The pipeline seam must be invisible for the paper configuration.
//!
//! The [`Detector`]/[`Identifier`] traits lifted the paper's inlined
//! detection and identification behind seams. The `DetectorKind::Paper` and
//! `IdentifierKind::Paper` trait objects must be *step-identical* to the
//! direct calls — the free function [`detector::detect`] and the concrete
//! [`AntagonistIdentifier`]'s inherent methods — for arbitrary telemetry, including the chaos
//! layer's garbage (missing samples, NaN/±inf, suspect churn). The golden
//! suite pins this end-to-end at the experiment level; these properties pin
//! it at the per-step level where a divergence would originate.
//!
//! Alongside the parity properties: the detector's documented edge cases
//! (strict threshold, single-VM and idle groups, NaN-corrupted latest) and
//! the identifier's window-eviction bound under suspect churn.

use perfcloud_core::antagonist::Resource;
use perfcloud_core::detector;
use perfcloud_core::pipeline::{Detector, Identifier};
use perfcloud_core::{
    AntagonistIdentifier, DetectorKind, IdentifierKind, PerfCloudConfig, PerformanceMonitor,
    PipelineSpec, VmMetricKind,
};
use perfcloud_host::VmId;
use perfcloud_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// Decodes one fuzzed slot into a metric sample: missing, NaN, ±inf, or a
/// plain finite value — the same garbage alphabet the chaos layer produces.
fn decode(tag: u8, val: f64) -> Option<f64> {
    match tag {
        0 => None,
        1 => Some(f64::NAN),
        2 => Some(f64::INFINITY),
        3 => Some(f64::NEG_INFINITY),
        _ => Some(val),
    }
}

/// NaN-aware equality for optional floats: chaos telemetry legitimately
/// produces NaN deviations/correlations, and both sides must produce the
/// *same* NaN-ness, which `PartialEq` cannot express.
fn same_opt(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// Pushes one synthetic interval of (iowait ratio, CPI) pairs for `vms`.
fn push_interval(mon: &mut PerformanceMonitor, now: SimTime, vms: &[VmId], slots: &[(u8, f64)]) {
    for (i, &vm) in vms.iter().enumerate() {
        let (io_tag, io_val) = slots[2 * i];
        let (cpi_tag, cpi_val) = slots[2 * i + 1];
        mon.push_synthetic(vm, VmMetricKind::IowaitRatio, now, decode(io_tag, io_val));
        mon.push_synthetic(vm, VmMetricKind::Cpi, now, decode(cpi_tag, cpi_val));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `DetectorKind::Paper` trait object and the pre-seam free function
    /// agree exactly — same deviations, same verdicts — on arbitrary
    /// monitor states.
    #[test]
    fn paper_detector_is_step_identical_to_the_free_function(
        intervals in proptest::collection::vec(
            proptest::collection::vec((0u8..10, -1.0e4f64..1.0e4), 8),
            1..12,
        ),
    ) {
        let cfg = PerfCloudConfig::default();
        let vms: Vec<VmId> = (0..4).map(VmId).collect();
        let mut mon = PerformanceMonitor::new(&cfg);
        let spec = PipelineSpec { detector: DetectorKind::Paper, ..PipelineSpec::default() };
        let mut adapter = spec.build_detector(&cfg);
        let mut now = SimTime::ZERO;
        for slots in &intervals {
            now = now.saturating_add(SimDuration::from_secs(5.0));
            push_interval(&mut mon, now, &vms, slots);
            let via_trait = adapter.detect(&mon, &vms);
            let direct = detector::detect(&mon, &vms, cfg.h_io, cfg.h_cpi);
            prop_assert!(same_opt(via_trait.io_deviation, direct.io_deviation));
            prop_assert!(same_opt(via_trait.cpi_deviation, direct.cpi_deviation));
            prop_assert_eq!(via_trait.io_contended, direct.io_contended);
            prop_assert_eq!(via_trait.cpu_contended, direct.cpu_contended);
        }
    }

    /// The `IdentifierKind::Paper` trait object and the concrete
    /// `AntagonistIdentifier`'s inherent methods agree exactly — same correlations, same
    /// identified sets, same deviation series — under fuzzed deviations,
    /// usage garbage, and suspect churn.
    #[test]
    fn paper_identifier_is_step_identical_to_the_concrete_type(
        schedule in proptest::collection::vec(
            // (io_dev tag/val, usage tag/val per suspect ×2, membership mask)
            ((0u8..10, -1.0e3f64..1.0e3), (0u8..10, -1.0e3f64..1.0e3), (0u8..10, -1.0e3f64..1.0e3), 0u8..4),
            2..30,
        ),
    ) {
        let cfg = PerfCloudConfig { min_corr_samples: 2, ..Default::default() };
        let all: [VmId; 2] = [VmId(10), VmId(11)];
        let mut mon = PerformanceMonitor::new(&cfg);
        let spec = PipelineSpec { identifier: IdentifierKind::Paper, ..PipelineSpec::default() };
        let mut adapter = spec.build_identifier(&cfg);
        let mut concrete = AntagonistIdentifier::new(&cfg);
        let mut now = SimTime::ZERO;
        let mut out_a = Vec::new();
        let mut out_c = Vec::new();
        for &((dtag, dval), (u0tag, u0val), (u1tag, u1val), mask) in &schedule {
            now = now.saturating_add(SimDuration::from_secs(5.0));
            mon.push_synthetic(all[0], VmMetricKind::IoBps, now, decode(u0tag, u0val));
            mon.push_synthetic(all[1], VmMetricKind::IoBps, now, decode(u1tag, u1val));
            // Membership mask churns the suspect set: 0 = none, 1 = first,
            // 2 = second, 3 = both.
            let suspects: Vec<VmId> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &vm)| vm)
                .collect();
            let dev = decode(dtag, dval);
            adapter.observe(now, dev, None, &mon, &suspects);
            concrete.observe(now, dev, None, &mon, &suspects);
            for &vm in &all {
                prop_assert!(same_opt(
                    adapter.correlation(vm, Resource::Io),
                    concrete.correlation(vm, Resource::Io)
                ));
            }
            adapter.identify_into(&suspects, Resource::Io, &mon, &mut out_a);
            concrete.identify_into(&suspects, Resource::Io, &mut out_c);
            prop_assert_eq!(&out_a, &out_c);
        }
        let sa = adapter.deviation_series(Resource::Io);
        let sc = concrete.deviation_series(Resource::Io);
        prop_assert!(sa.times().eq(sc.times()));
        prop_assert_eq!(sa.len(), sc.len());
        for (a, b) in sa.values().zip(sc.values()) {
            prop_assert!(same_opt(a, b));
        }
    }
}

// --- Detector edge cases (strict threshold, degenerate groups, NaN). ---

fn monitor_with(values: &[(u32, Option<f64>)]) -> (PerformanceMonitor, Vec<VmId>) {
    let cfg = PerfCloudConfig::default();
    let mut mon = PerformanceMonitor::new(&cfg);
    let now = SimTime::from_secs(5);
    let mut vms = Vec::new();
    for &(id, v) in values {
        let vm = VmId(id);
        vms.push(vm);
        mon.push_synthetic(vm, VmMetricKind::IowaitRatio, now, v);
    }
    (mon, vms)
}

#[test]
fn deviation_exactly_at_threshold_does_not_fire() {
    // Two VMs at {0, 20}: the population stddev is exactly 10.0 = ℋ_io.
    // Eq. 1 is strict (`> ℋ`), so this must NOT be contention.
    let (mon, vms) = monitor_with(&[(0, Some(0.0)), (1, Some(20.0))]);
    let signal = detector::detect(&mon, &vms, 10.0, 1.0);
    assert_eq!(signal.io_deviation, Some(10.0));
    assert!(!signal.io_contended, "deviation == ℋ must not fire (strict >)");
    // Any separation past the threshold does fire.
    let (mon2, vms2) = monitor_with(&[(0, Some(0.0)), (1, Some(20.1))]);
    assert!(detector::detect(&mon2, &vms2, 10.0, 1.0).io_contended);
}

#[test]
fn single_vm_group_has_no_deviation() {
    // "Across VMs" needs a population: one VM can never show asymmetry.
    let (mon, vms) = monitor_with(&[(0, Some(1_000.0))]);
    let signal = detector::detect(&mon, &vms, 10.0, 1.0);
    assert_eq!(signal.io_deviation, None);
    assert!(!signal.io_contended);
}

#[test]
fn all_idle_group_has_no_deviation() {
    // Every VM idle this interval (missing latest) — no evidence, no fire.
    let (mon, vms) = monitor_with(&[(0, None), (1, None), (2, None)]);
    let signal = detector::detect(&mon, &vms, 10.0, 1.0);
    assert_eq!(signal.io_deviation, None);
    assert!(!signal.io_contended);
    assert_eq!(signal.cpi_deviation, None, "no CPI samples were pushed at all");
}

#[test]
fn nan_corrupted_latest_is_excluded_from_the_population() {
    // A chaos-corrupted NaN reaching a VM's latest sample is excluded from
    // the across-VM population rather than poisoning it: the deviation is
    // computed over the remaining finite values, so real contention on the
    // clean majority still fires.
    let (mon, vms) = monitor_with(&[(0, Some(0.0)), (1, Some(500.0)), (2, Some(f64::NAN))]);
    let signal = detector::detect(&mon, &vms, 10.0, 1.0);
    assert_eq!(signal.io_deviation, Some(250.0), "stddev of the two finite values only");
    assert!(signal.io_contended);

    // And when the corruption leaves fewer than two finite values, there is
    // no population at all — no deviation, no fire, no throttling on
    // garbage.
    let (mon2, vms2) = monitor_with(&[(0, Some(5.0)), (1, Some(f64::NAN))]);
    let signal2 = detector::detect(&mon2, &vms2, 10.0, 1.0);
    assert_eq!(signal2.io_deviation, None);
    assert!(!signal2.io_contended);
}

// --- Identifier window hygiene under suspect churn. ---

#[test]
fn windows_stay_bounded_under_suspect_churn() {
    // A long parade of short-lived suspects: each interval retires one VM
    // and introduces another. Without the eviction in `observe`, the window
    // map would grow with every VM ever seen; with it, the live count can
    // never exceed the current suspect set.
    let cfg = PerfCloudConfig::default();
    let mut mon = PerformanceMonitor::new(&cfg);
    let mut ident = AntagonistIdentifier::new(&cfg);
    let mut now = SimTime::ZERO;
    for round in 0..200u32 {
        now = now.saturating_add(SimDuration::from_secs(5.0));
        let suspects: Vec<VmId> = (round..round + 3).map(VmId).collect();
        for &vm in &suspects {
            mon.push_synthetic(vm, VmMetricKind::IoBps, now, Some(f64::from(vm.0)));
        }
        ident.observe(now, Some(1.0 + f64::from(round)), None, &mon, &suspects);
        assert!(
            ident.window_count(Resource::Io) <= suspects.len(),
            "round {round}: {} windows for {} suspects",
            ident.window_count(Resource::Io),
            suspects.len()
        );
    }
    // After the churn settles to a single suspect, exactly one window lives.
    let last = VmId(300);
    mon.push_synthetic(last, VmMetricKind::IoBps, now, Some(1.0));
    ident.observe(now.saturating_add(SimDuration::from_secs(5.0)), Some(1.0), None, &mon, &[last]);
    assert_eq!(ident.window_count(Resource::Io), 1);
    // No CPU usage metric (LLC miss rate) was ever pushed, so no CPU window
    // was ever opened — unknown suspects leave no state behind.
    assert_eq!(ident.window_count(Resource::Cpu), 0);
}

#[test]
fn boxed_pipelines_are_send() {
    // Node managers live inside experiment forks, which `bench::forked`
    // hands to sweep worker threads; the seam must not regress that.
    fn assert_send<T: Send>() {}
    assert_send::<Box<dyn Detector>>();
    assert_send::<Box<dyn Identifier>>();
}
