//! Property-based tests for the timer wheel, time arithmetic and fault
//! decisions.
//!
//! Every wheel property is checked against a reference binary heap on
//! `(time, seq)`: the wheel must pop exactly what the heap pops, in the
//! same order, whatever mix of inserts, pops and deadline-bounded pops
//! drives it. Fault decisions are checked against a reference that hashes
//! one concatenated byte buffer.

use perfcloud_sim::faults::{FaultInjector, FaultKind, FaultRule, FaultScenario};
use perfcloud_sim::rng::fnv1a64;
use perfcloud_sim::wheel::{Entry, TimerWheel};
use perfcloud_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn entry(t: u64, seq: u64) -> Entry {
    Entry { time: SimTime::from_micros(t), seq, id: seq }
}

fn key(e: Entry) -> (u64, u64) {
    (e.time.as_micros(), e.seq)
}

/// Inserts `times` in order, `seq` = index.
fn wheel_of(times: &[u64]) -> TimerWheel {
    let mut w = TimerWheel::new();
    for (seq, &t) in times.iter().enumerate() {
        w.insert(entry(t, seq as u64));
    }
    w
}

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

fn drain(w: &mut TimerWheel) -> Vec<(u64, u64)> {
    std::iter::from_fn(|| w.pop()).map(key).collect()
}

/// Spreads a small draw across the wheel's levels and its overflow heap,
/// so cascades and overflow migration are exercised alongside level 0.
fn spread(t: u64, scale: u8) -> u64 {
    match scale {
        0 => t,
        1 => t * 977,
        2 => t << 20,
        _ => (1 << 50) + t,
    }
}

proptest! {
    /// Entries pop in non-decreasing time order no matter the insertion order.
    #[test]
    fn pops_in_nondecreasing_time(times in proptest::collection::vec(0u64..1_000_000, 1..64)) {
        let popped = drain(&mut wheel_of(&times));
        prop_assert_eq!(popped.len(), times.len());
        for pair in popped.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0);
        }
    }

    /// Every inserted entry pops exactly once, carrying its own time.
    #[test]
    fn no_entries_lost_or_duplicated(times in proptest::collection::vec(0u64..10_000, 1..128)) {
        let mut popped = drain(&mut wheel_of(&times));
        popped.sort_unstable_by_key(|&(_, seq)| seq);
        let expect: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(seq, &t)| (t, seq as u64)).collect();
        prop_assert_eq!(popped, expect);
    }

    /// `pop_at_most(d)` yields exactly the entries with time <= d, and
    /// leaves the rest to pop afterwards.
    #[test]
    fn pop_at_most_partitions_entries(
        times in proptest::collection::vec(0u64..1_000, 1..64),
        deadline in 0u64..1_000,
    ) {
        let mut w = wheel_of(&times);
        let early: Vec<(u64, u64)> =
            std::iter::from_fn(|| w.pop_at_most(SimTime::from_micros(deadline))).map(key).collect();
        prop_assert!(early.iter().all(|&(t, _)| t <= deadline));
        prop_assert_eq!(early.len(), times.iter().filter(|&&t| t <= deadline).count());
        prop_assert_eq!(w.len(), times.len() - early.len());
        let late = drain(&mut w);
        prop_assert!(late.iter().all(|&(t, _)| t > deadline));
        prop_assert_eq!(early.len() + late.len(), times.len());
    }

    /// Random interleavings of inserts (with duplicated timestamps, times
    /// behind the cursor, and times across every level and the overflow),
    /// pops and deadline-bounded pops: the wheel pops exactly what a
    /// reference `(time, seq)` min-heap pops, step by step.
    #[test]
    fn interleaved_ops_match_reference_heap(
        ops in proptest::collection::vec((0u64..2_000, 0u8..8, 0u8..4), 1..200),
    ) {
        let mut w = TimerWheel::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut last_time = 0u64;
        for &(t, action, scale) in &ops {
            match action {
                0 | 1 => {
                    let want = heap.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(w.pop().map(key), want);
                }
                2 => {
                    let deadline = spread(t, scale);
                    loop {
                        let want = match heap.peek() {
                            Some(&Reverse(k)) if k.0 <= deadline => heap.pop().map(|Reverse(k)| k),
                            _ => None,
                        };
                        let got = w.pop_at_most(SimTime::from_micros(deadline)).map(key);
                        prop_assert_eq!(got, want);
                        if got.is_none() {
                            break;
                        }
                    }
                }
                _ => {
                    // Half the inserts repeat the previous timestamp, to
                    // stress same-slot FIFO order.
                    let time = if action < 5 { last_time } else { spread(t, scale) };
                    w.insert(entry(time, seq));
                    heap.push(Reverse((time, seq)));
                    last_time = time;
                    seq += 1;
                }
            }
            prop_assert_eq!(w.len(), heap.len());
        }
        let rest: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop().map(|Reverse(k)| k)).collect();
        prop_assert_eq!(drain(&mut w), rest);
    }

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

/// A clone taken mid-run pops the same remaining sequence as the original:
/// what lets a forked experiment replay its in-flight messages exactly.
#[test]
fn cloned_wheel_replays_identically() {
    let times: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 100_000 + (i % 3) * (1 << 22)).collect();
    let mut w = wheel_of(&times);
    for _ in 0..100 {
        w.pop();
    }
    let mut fork = w.clone();
    assert_eq!(drain(&mut fork), drain(&mut w));
}
