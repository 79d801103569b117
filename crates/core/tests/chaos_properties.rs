//! Property tests for the identifier under chaotic telemetry.
//!
//! The fault-injection layer can drop or delay placement updates, so a
//! suspect VM flickers in and out of the identifier's suspect set, and it
//! can corrupt the metric streams with NaN/±inf/missing values. The
//! incremental correlation path (O(1) push per tick, backfill-on-entry)
//! must nevertheless agree with the original batch path — align the two
//! series' tails, then victim-aware Pearson — to 1e-9 relative, for
//! *arbitrary* membership schedules and arbitrary garbage in both streams.

use perfcloud_core::antagonist::Resource;
use perfcloud_core::{
    AntagonistIdentifier, Identifier, PerfCloudConfig, PerformanceMonitor, VmMetricKind,
};
use perfcloud_host::VmId;
use perfcloud_sim::{SimDuration, SimTime};
use perfcloud_stats::pearson::pearson_victim_aware_lagged;
use perfcloud_stats::timeseries::align_tail;
use proptest::prelude::*;

const SUSPECT: VmId = VmId(10);

/// Decodes one fuzzed slot into a metric sample: missing, NaN, ±inf, or a
/// plain finite value.
fn decode(tag: u8, val: f64) -> Option<f64> {
    match tag {
        0 => None,
        1 => Some(f64::NAN),
        2 => Some(f64::INFINITY),
        3 => Some(f64::NEG_INFINITY),
        _ => Some(val),
    }
}

/// One fuzzed interval: (victim tag, victim value, usage tag, usage value,
/// membership tag). Membership tag 0 ⇒ the suspect is absent from the
/// suspect set that interval (a dropped/delayed placement update).
type Slot = (u8, f64, u8, f64, u8);

fn config() -> PerfCloudConfig {
    PerfCloudConfig { min_corr_samples: 2, ..Default::default() }
}

/// Runs a schedule through monitor + identifier. The suspect's usage series
/// is fed via the monitor's synthetic push (raw series only, like a real
/// sampled metric), the victim deviation via `observe`. Returns the final
/// incremental correlation plus the series for the batch reference.
fn drive(schedule: &[Slot]) -> (AntagonistIdentifier, PerformanceMonitor) {
    let cfg = config();
    let mut mon = PerformanceMonitor::new(&cfg);
    let mut ident = AntagonistIdentifier::new(&cfg);
    let mut now = SimTime::ZERO;
    let last = schedule.len() - 1;
    for (i, &(dtag, dval, utag, uval, member)) in schedule.iter().enumerate() {
        now = now.saturating_add(SimDuration::from_secs(5.0));
        mon.push_synthetic(SUSPECT, VmMetricKind::IoBps, now, decode(utag, uval));
        // The final interval always lists the suspect, mirroring the moment
        // the node manager actually asks for a correlation.
        let suspects: &[VmId] = if member == 0 && i != last { &[] } else { &[SUSPECT] };
        ident.observe(now, decode(dtag, dval), None, &mon, suspects);
    }
    (ident, mon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn backfill_on_entry_matches_batch_pearson(
        schedule in proptest::collection::vec(
            (0u8..10, -1.0e3f64..1.0e3, 0u8..10, -1.0e3f64..1.0e3, 0u8..6),
            4..40,
        )
    ) {
        let cfg = config();
        let (ident, mon) = drive(&schedule);
        let rolled = ident.correlation(SUSPECT, Resource::Io);

        let victim = ident.deviation_series(Resource::Io);
        let usage = mon.series(SUSPECT, VmMetricKind::IoBps).expect("synthetic series exists");
        let (mut x, mut y) = (Vec::new(), Vec::new());
        align_tail(victim, usage, cfg.corr_window, &mut x, &mut y);
        // The identifier demands `min_corr_samples` contributing pairs
        // (finite victim deviations) before answering; apply the same gate
        // to the batch reference.
        let contributing = x.iter().filter(|v| v.is_some_and(|v| v.is_finite())).count();
        let batch = if contributing < cfg.min_corr_samples {
            None
        } else {
            pearson_victim_aware_lagged(&x, &y, cfg.corr_max_lag, cfg.min_corr_samples)
        };

        match (rolled, batch) {
            (Some(r), Some(b)) => prop_assert!(
                (r - b).abs() <= 1e-9 * b.abs().max(1.0),
                "rolled {} vs batch {} over {} intervals",
                r, b, schedule.len()
            ),
            (r, b) => prop_assert_eq!(r, b),
        }
    }

    #[test]
    fn correlation_is_always_finite_and_bounded(
        schedule in proptest::collection::vec(
            (0u8..5, -1.0e6f64..1.0e6, 0u8..5, -1.0e6f64..1.0e6, 0u8..3),
            1..60,
        )
    ) {
        // Whatever garbage the streams carry — NaN bursts, infinities,
        // missing runs, membership flicker — the identifier must never
        // panic and never report a correlation outside [-1, 1].
        let (ident, _mon) = drive(&schedule);
        for resource in [Resource::Io, Resource::Cpu] {
            if let Some(r) = ident.correlation(SUSPECT, resource) {
                prop_assert!(r.is_finite(), "non-finite correlation {r}");
                prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r), "out of range: {r}");
            }
        }
    }
}
