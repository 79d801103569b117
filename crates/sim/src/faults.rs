//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultScenario`] is a named bundle of [`FaultRule`]s; a [`FaultInjector`]
//! binds a scenario to a seed and answers, statelessly, whether a rule fires
//! at a given `(time, server, vm)` coordinate. Decisions are pure functions of
//! `(seed, scenario name, rule name, time, server, vm)` via FNV-1a, so a run
//! is bit-reproducible regardless of worker-thread count, evaluation order, or
//! how many other components consume randomness — the same insulation property
//! the [`crate::RngFactory`] streams provide, without any mutable RNG state.
//!
//! The kinds model the degraded-telemetry conditions a production PerfCloud
//! deployment faces: lossy/late/duplicated monitor samples, corrupted metric
//! streams (NaN, spikes, stuck-at sensors), node-manager stalls and
//! crash-restarts (losing in-memory rolling windows), stale placement views
//! from the cloud manager, and — for the message-passing control plane —
//! per-message drop/duplicate/delay link faults and cloud-manager replica
//! outages.

use crate::rng::{fnv1a64_extend, FNV1A64_OFFSET};
use crate::time::SimTime;

/// Which metric stream a corruption fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricClass {
    /// The blkio-iowait ratio stream feeding the I/O contention detector.
    BlkioIowait,
    /// The cycles-per-instruction stream feeding the CPU contention detector.
    Cpi,
}

/// Which class of control-plane message a link fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// Placement-view updates from the cloud manager to node managers.
    Placement,
    /// Liveness heartbeats between cloud-manager replicas.
    Heartbeat,
    /// Bully election traffic (`Election`/`Answer`/`Coordinator`).
    Election,
    /// Acknowledgements and other node-manager-to-cloud replies.
    Ack,
}

/// What a firing fault rule does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The monitor sample for the targeted VM is lost this interval.
    DropSample,
    /// The sample arrives `intervals` sampling periods late (the stale-delivery
    /// path: by then a fresher snapshot has usually superseded it).
    DelaySample {
        /// Delivery lag, in sampling intervals.
        intervals: u32,
    },
    /// The previous interval's snapshot is re-delivered in place of the fresh
    /// one (e.g. an agent retransmit), yielding a zero counter delta.
    DuplicateSample,
    /// The targeted metric reads NaN this interval.
    CorruptNaN,
    /// The targeted metric is multiplied by `factor` (an outlier spike).
    CorruptSpike {
        /// Multiplier applied to the true metric value.
        factor: f64,
    },
    /// The targeted metric repeats its last good value (a stuck sensor).
    CorruptStuckAt,
    /// The node manager misses `intervals` control periods entirely (no
    /// sampling, no decisions), then resumes with its state intact.
    StallManager {
        /// Number of control intervals skipped.
        intervals: u32,
    },
    /// The node manager crashes and restarts: all in-memory rolling windows,
    /// EWMA state, and controller state are lost and must re-warm.
    CrashRestart,
    /// The manager's placement view from the cloud manager goes stale for
    /// `intervals` control periods; it must run on its cached view, bounded
    /// by the staleness limit.
    DesyncPlacement {
        /// Number of control intervals without placement updates.
        intervals: u32,
    },
    /// A control-plane message is lost in flight.
    DropMessage,
    /// A control-plane message is delivered twice (retransmit storm).
    DuplicateMessage,
    /// A control-plane message is delivered `micros` late on top of the
    /// link's base latency and jitter.
    DelayMessage {
        /// Extra in-flight delay, in microseconds.
        micros: u64,
    },
    /// The targeted cloud-manager replica is down (crashed or unreachable)
    /// while the rule fires: it sends nothing, and anything addressed to it
    /// is dropped. On heal it restarts with volatile state lost.
    DownReplica,
}

impl FaultKind {
    /// True for faults that corrupt an individual metric value.
    pub fn is_metric_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::CorruptNaN | FaultKind::CorruptSpike { .. } | FaultKind::CorruptStuckAt
        )
    }

    /// True for faults acting on individual in-flight control-plane messages.
    pub fn is_link_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::DropMessage | FaultKind::DuplicateMessage | FaultKind::DelayMessage { .. }
        )
    }
}

/// Restricts which `(server, vm, metric)` coordinates a rule applies to.
/// `None` fields match everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTarget {
    /// Only this server index, if set.
    pub server: Option<u32>,
    /// Only this VM id, if set.
    pub vm: Option<u32>,
    /// Only this metric stream, if set (metric faults only).
    pub metric: Option<MetricClass>,
    /// Only this message class, if set (link faults only).
    pub message: Option<MessageClass>,
}

impl FaultTarget {
    fn matches(&self, server: u32, vm: Option<u32>) -> bool {
        if let Some(s) = self.server {
            if s != server {
                return false;
            }
        }
        if let Some(want) = self.vm {
            match vm {
                Some(v) if v == want => {}
                _ => return false,
            }
        }
        true
    }

    /// Whether this target applies to the given metric stream.
    pub fn matches_metric(&self, metric: MetricClass) -> bool {
        self.metric.map(|m| m == metric).unwrap_or(true)
    }

    /// Whether this target applies to the given message class.
    pub fn matches_message(&self, message: MessageClass) -> bool {
        self.message.map(|m| m == message).unwrap_or(true)
    }
}

/// One named fault rule: a kind, a target filter, an active time window
/// `[from, until)`, and a firing probability per opportunity.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Rule name; part of the hash domain, so two otherwise identical rules
    /// with different names fire independently.
    pub name: String,
    /// What the rule does when it fires.
    pub kind: FaultKind,
    /// Which coordinates it can fire at.
    pub target: FaultTarget,
    /// Start of the active window (inclusive).
    pub from: SimTime,
    /// End of the active window (exclusive).
    pub until: SimTime,
    /// Probability of firing at each matching opportunity, in `[0, 1]`.
    pub probability: f64,
}

impl FaultRule {
    /// Creates a rule active for all time, matching everything, firing always.
    pub fn new(name: impl Into<String>, kind: FaultKind) -> Self {
        FaultRule {
            name: name.into(),
            kind,
            target: FaultTarget::default(),
            from: SimTime::ZERO,
            until: SimTime::MAX,
            probability: 1.0,
        }
    }

    /// Restricts the active window to `[from, until)`.
    pub fn window(mut self, from: SimTime, until: SimTime) -> Self {
        self.from = from;
        self.until = until;
        self
    }

    /// Restricts the rule to one server index.
    pub fn on_server(mut self, server: u32) -> Self {
        self.target.server = Some(server);
        self
    }

    /// Restricts the rule to one metric stream.
    pub fn on_metric(mut self, metric: MetricClass) -> Self {
        self.target.metric = Some(metric);
        self
    }

    /// Restricts the rule to one control-plane message class.
    pub fn on_message(mut self, message: MessageClass) -> Self {
        self.target.message = Some(message);
        self
    }

    /// Sets the per-opportunity firing probability.
    pub fn with_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1], got {p}");
        self.probability = p;
        self
    }
}

/// A named, ordered collection of fault rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultScenario {
    /// Scenario name; part of the hash domain.
    pub name: String,
    /// The rules, evaluated in order.
    pub rules: Vec<FaultRule>,
}

impl FaultScenario {
    /// Creates an empty scenario.
    pub fn named(name: impl Into<String>) -> Self {
        FaultScenario { name: name.into(), rules: Vec::new() }
    }

    /// Appends a rule (builder style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// True if the scenario has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Binds a [`FaultScenario`] to a seed and answers fire/no-fire queries.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    scenario: FaultScenario,
}

impl FaultInjector {
    /// Creates an injector for `(seed, scenario)`.
    pub fn new(seed: u64, scenario: FaultScenario) -> Self {
        FaultInjector { seed, scenario }
    }

    /// The bound scenario.
    pub fn scenario(&self) -> &FaultScenario {
        &self.scenario
    }

    /// The bound seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether `rule` fires at `(now, server, vm)`. Pure: the same arguments
    /// always give the same answer, independent of call order or thread.
    pub fn fires(&self, rule: &FaultRule, now: SimTime, server: u32, vm: Option<u32>) -> bool {
        self.fires_inner(rule, now, server, vm, None)
    }

    /// Like [`fires`](Self::fires), with an extra salt for per-message
    /// decisions: several messages can share a `(time, src, dst)` coordinate
    /// (a broadcast plus its acks within one tick), so link faults mix in a
    /// monotone per-message key to keep each in-flight copy independent.
    pub fn fires_keyed(
        &self,
        rule: &FaultRule,
        now: SimTime,
        server: u32,
        vm: Option<u32>,
        key: u64,
    ) -> bool {
        self.fires_inner(rule, now, server, vm, Some(key))
    }

    fn fires_inner(
        &self,
        rule: &FaultRule,
        now: SimTime,
        server: u32,
        vm: Option<u32>,
        key: Option<u64>,
    ) -> bool {
        if now < rule.from || now >= rule.until {
            return false;
        }
        if !rule.target.matches(server, vm) {
            return false;
        }
        if rule.probability >= 1.0 {
            return true;
        }
        if rule.probability <= 0.0 {
            return false;
        }
        // Streamed through FNV-1a field by field — the same bytes, in the
        // same order, as hashing their concatenation, without building it.
        let mut h = fnv1a64_extend(FNV1A64_OFFSET, &self.seed.to_le_bytes());
        h = fnv1a64_extend(h, self.scenario.name.as_bytes());
        h = fnv1a64_extend(h, &[0xFE]);
        h = fnv1a64_extend(h, rule.name.as_bytes());
        h = fnv1a64_extend(h, &[0xFE]);
        h = fnv1a64_extend(h, &now.as_micros().to_le_bytes());
        h = fnv1a64_extend(h, &server.to_le_bytes());
        h = match vm {
            Some(v) => fnv1a64_extend(fnv1a64_extend(h, &[1]), &v.to_le_bytes()),
            None => fnv1a64_extend(h, &[0]),
        };
        // Appended (never interleaved), so unkeyed hashes keep the layout
        // they had before keys existed and every scenario replays unchanged.
        if let Some(k) = key {
            h = fnv1a64_extend(fnv1a64_extend(h, &[0xFD]), &k.to_le_bytes());
        }
        // Top 53 bits -> uniform in [0, 1); same mapping rand uses for f64.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < rule.probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn deterministic_across_injector_instances() {
        let scen = FaultScenario::named("t")
            .rule(FaultRule::new("drop", FaultKind::DropSample).with_probability(0.5));
        let a = FaultInjector::new(42, scen.clone());
        let b = FaultInjector::new(42, scen);
        for tick in 0..200u64 {
            let now = SimTime::ZERO.saturating_add(SimDuration::from_millis(tick * 100));
            for server in 0..3 {
                for vm in 0..4 {
                    let rule = &a.scenario().rules[0];
                    assert_eq!(
                        a.fires(rule, now, server, Some(vm)),
                        b.fires(rule, now, server, Some(vm))
                    );
                }
            }
        }
    }

    #[test]
    fn probability_extremes() {
        let scen = FaultScenario::named("t")
            .rule(FaultRule::new("never", FaultKind::DropSample).with_probability(0.0))
            .rule(FaultRule::new("always", FaultKind::DropSample).with_probability(1.0));
        let inj = FaultInjector::new(7, scen);
        for tick in 0..100u64 {
            let now = secs(tick);
            assert!(!inj.fires(&inj.scenario().rules[0].clone(), now, 0, Some(1)));
            assert!(inj.fires(&inj.scenario().rules[1].clone(), now, 0, Some(1)));
        }
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let scen = FaultScenario::named("rate")
            .rule(FaultRule::new("p30", FaultKind::DropSample).with_probability(0.3));
        let inj = FaultInjector::new(1234, scen);
        let rule = inj.scenario().rules[0].clone();
        let n = 10_000u64;
        let hits = (0..n).filter(|&t| inj.fires(&rule, secs(t), 0, Some(0))).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate} too far from 0.3");
    }

    #[test]
    fn window_is_half_open() {
        let scen = FaultScenario::named("w")
            .rule(FaultRule::new("r", FaultKind::CrashRestart).window(secs(10), secs(20)));
        let inj = FaultInjector::new(1, scen);
        let rule = inj.scenario().rules[0].clone();
        assert!(!inj.fires(&rule, secs(9), 0, None));
        assert!(inj.fires(&rule, secs(10), 0, None));
        assert!(inj.fires(&rule, secs(19), 0, None));
        assert!(!inj.fires(&rule, secs(20), 0, None));
    }

    #[test]
    fn target_filters_apply() {
        let mut on_vm7 = FaultRule::new("v7", FaultKind::DropSample);
        on_vm7.target.vm = Some(7);
        let scen = FaultScenario::named("t")
            .rule(FaultRule::new("s1", FaultKind::DropSample).on_server(1))
            .rule(on_vm7);
        let inj = FaultInjector::new(1, scen);
        let s1 = inj.scenario().rules[0].clone();
        let v7 = inj.scenario().rules[1].clone();
        assert!(inj.fires(&s1, secs(0), 1, Some(0)));
        assert!(!inj.fires(&s1, secs(0), 0, Some(0)));
        assert!(inj.fires(&v7, secs(0), 0, Some(7)));
        assert!(!inj.fires(&v7, secs(0), 0, Some(8)));
        // A vm-targeted rule never matches manager-level (vm=None) queries.
        assert!(!inj.fires(&v7, secs(0), 0, None));
    }

    #[test]
    fn seeds_and_rule_names_diverge() {
        let scen = FaultScenario::named("d")
            .rule(FaultRule::new("a", FaultKind::DropSample).with_probability(0.5))
            .rule(FaultRule::new("b", FaultKind::DropSample).with_probability(0.5));
        let i1 = FaultInjector::new(1, scen.clone());
        let i2 = FaultInjector::new(2, scen);
        let ra = i1.scenario().rules[0].clone();
        let rb = i1.scenario().rules[1].clone();
        let pattern = |inj: &FaultInjector, rule: &FaultRule| -> Vec<bool> {
            (0..256u64).map(|t| inj.fires(rule, secs(t), 0, Some(0))).collect()
        };
        assert_ne!(pattern(&i1, &ra), pattern(&i2, &ra), "seeds should diverge");
        assert_ne!(pattern(&i1, &ra), pattern(&i1, &rb), "rule names should diverge");
    }

    #[test]
    fn kind_classification() {
        assert!(FaultKind::CorruptNaN.is_metric_fault());
        assert!(FaultKind::CorruptSpike { factor: 10.0 }.is_metric_fault());
        assert!(FaultKind::CorruptStuckAt.is_metric_fault());
        assert!(FaultKind::DropMessage.is_link_fault());
        assert!(FaultKind::DuplicateMessage.is_link_fault());
        assert!(FaultKind::DelayMessage { micros: 500 }.is_link_fault());
        assert!(!FaultKind::DownReplica.is_link_fault());
        assert!(!FaultKind::DropSample.is_link_fault());
    }

    #[test]
    fn message_class_filter_applies() {
        let rule = FaultRule::new("m", FaultKind::DropMessage).on_message(MessageClass::Placement);
        assert!(rule.target.matches_message(MessageClass::Placement));
        assert!(!rule.target.matches_message(MessageClass::Heartbeat));
        let any = FaultRule::new("a", FaultKind::DropMessage);
        assert!(any.target.matches_message(MessageClass::Election));
    }

    #[test]
    fn keyed_firing_is_independent_per_key_and_preserves_unkeyed_hashes() {
        let scen = FaultScenario::named("k")
            .rule(FaultRule::new("drop", FaultKind::DropMessage).with_probability(0.5));
        let inj = FaultInjector::new(42, scen);
        let rule = inj.scenario().rules[0].clone();
        // Different keys at the same coordinate must decorrelate.
        let a: Vec<bool> =
            (0..256u64).map(|t| inj.fires_keyed(&rule, secs(t), 0, None, 1)).collect();
        let b: Vec<bool> =
            (0..256u64).map(|t| inj.fires_keyed(&rule, secs(t), 0, None, 2)).collect();
        assert_ne!(a, b, "keys should diverge");
        // Keyed rate still tracks the probability.
        let n = 10_000u64;
        let hits = (0..n).filter(|&k| inj.fires_keyed(&rule, secs(1), 0, None, k)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.02, "keyed rate {rate} too far from 0.5");
        // And probability-1 rules fire for every key (window-only semantics).
        let scen1 = FaultScenario::named("k1").rule(FaultRule::new("w", FaultKind::DownReplica));
        let inj1 = FaultInjector::new(7, scen1);
        let w = inj1.scenario().rules[0].clone();
        assert!(inj1.fires_keyed(&w, secs(3), 2, None, 99));
    }
}
