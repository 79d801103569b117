//! Property-based tests for time arithmetic and fault decisions.
//!
//! Fault decisions are checked against a reference that hashes one
//! concatenated byte buffer.

use perfcloud_sim::faults::{FaultInjector, FaultKind, FaultRule, FaultScenario};
use perfcloud_sim::rng::fnv1a64;
use perfcloud_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// Reference fault decision: the injector's rule, built the obvious way —
/// every field appended to one `Vec`, then hashed with FNV-1a in one call.
/// The injector streams the same bytes through the hash instead; every
/// decision must agree.
fn reference_fires(
    seed: u64,
    scenario: &str,
    rule: &FaultRule,
    now: SimTime,
    server: u32,
    vm: Option<u32>,
    key: Option<u64>,
) -> bool {
    if now < rule.from || now >= rule.until {
        return false;
    }
    if rule.target.server.is_some_and(|s| s != server)
        || rule.target.vm.is_some_and(|want| vm != Some(want))
    {
        return false;
    }
    if rule.probability >= 1.0 {
        return true;
    }
    if rule.probability <= 0.0 {
        return false;
    }
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.extend_from_slice(scenario.as_bytes());
    bytes.push(0xFE);
    bytes.extend_from_slice(rule.name.as_bytes());
    bytes.push(0xFE);
    bytes.extend_from_slice(&now.as_micros().to_le_bytes());
    bytes.extend_from_slice(&server.to_le_bytes());
    match vm {
        Some(v) => {
            bytes.push(1);
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        None => bytes.push(0),
    }
    if let Some(k) = key {
        bytes.push(0xFD);
        bytes.extend_from_slice(&k.to_le_bytes());
    }
    let h = fnv1a64(&bytes);
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    u < rule.probability
}

/// Arbitrary names, empty or long, multi-byte UTF-8 included.
fn name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..=255, 0..96)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

proptest! {
    /// `fires` and `fires_keyed` decide exactly as the reference does, over
    /// random seeds, names, probabilities and coordinates.
    #[test]
    fn fault_decisions_match_the_concatenating_reference(
        seed in 0u64..u64::MAX,
        scenario_name in name(),
        rule_name in name(),
        probability in 0.0f64..1.0,
        coords in proptest::collection::vec(
            (
                0u64..u64::MAX / 2,
                0u32..u32::MAX,
                proptest::option::of(0u32..u32::MAX),
                proptest::option::of(0u64..u64::MAX),
            ),
            1..64,
        ),
    ) {
        let rule = FaultRule::new(rule_name, FaultKind::DropSample).with_probability(probability);
        let injector = FaultInjector::new(
            seed,
            FaultScenario::named(scenario_name.clone()).rule(rule.clone()),
        );
        for &(t, server, vm, key) in &coords {
            let now = SimTime::from_micros(t);
            let got = match key {
                Some(k) => injector.fires_keyed(&rule, now, server, vm, k),
                None => injector.fires(&rule, now, server, vm),
            };
            let want = reference_fires(seed, &scenario_name, &rule, now, server, vm, key);
            prop_assert_eq!(got, want, "t={} server={} vm={:?} key={:?}", t, server, vm, key);
        }
    }

    /// SimTime +/- SimDuration round-trips exactly.
    #[test]
    fn time_arithmetic_round_trips(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d).saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }

    /// from_secs_f64 / as_secs_f64 round-trips to microsecond precision.
    #[test]
    fn seconds_round_trip(us in 0u64..=10_000_000_000) {
        let t = SimTime::from_micros(us);
        let back = SimTime::from_secs_f64(t.as_secs_f64());
        let diff = back.as_micros().abs_diff(t.as_micros());
        // f64 has 52 mantissa bits; within this range the round-trip is exact
        // or off by at most one microsecond of rounding.
        prop_assert!(diff <= 1, "diff {diff} for {us}");
    }
}
