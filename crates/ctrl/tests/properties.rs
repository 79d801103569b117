//! Property tests for the control plane.
//!
//! Three guarantees, each checked under *arbitrary* seed-driven chaos
//! schedules rather than hand-picked scenarios:
//!
//! * **Election safety** — however messages are dropped, duplicated,
//!   delayed or partitioned, and however replicas crash and heal, no two
//!   live replicas ever hold the coordinator role in the same term, and no
//!   node manager ever applies a placement epoch that moves backwards.
//! * **Election liveness** — once every fault window and partition has
//!   healed, a coordinator is (re-)established and placement flows from it
//!   within a bounded number of heartbeat intervals.
//! * **Delivery determinism** — the simulated network is a pure function
//!   of `(seed, scenario, send schedule)`: two nets fed the same schedule
//!   produce byte-identical delivery sequences, polled in nondecreasing
//!   time order, FIFO among simultaneous deliveries, each poll delivering
//!   exactly what is due by its instant, and a mid-schedule clone
//!   delivering exactly what the original does. This is the proof of the
//!   network's `(time, seq)` delivery contract.

use perfcloud_core::{AppId, CloudManager, NodeManager, PerfCloudConfig, PlacementEpoch, VmRecord};
use perfcloud_ctrl::SimNet;
use perfcloud_ctrl::{
    ControlPlane, ControlPlaneSpec, LinkSpec, Message, NodeId, Partition, Payload, Term,
};
use perfcloud_host::{Priority, ServerId, VmId};
use perfcloud_sim::faults::{FaultKind, FaultRule, FaultScenario, MessageClass};
use perfcloud_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const TICK: SimDuration = SimDuration::from_micros(100_000);
const SAMPLE: SimDuration = SimDuration::from_micros(5_000_000);
const MANAGERS: u32 = 3;
const SERVERS: usize = 2;

/// One fuzzed fault rule: (kind tag, target, window start s, window len s,
/// probability). Kind tags: 0 drop, 1 duplicate, 2 delay (link faults on a
/// fuzzed message class picked from `target`), 3 replica outage, 4 manager
/// stall, 5 placement desync.
type RuleSlot = (u8, u32, u32, u32, f64);

fn class_of(tag: u32) -> MessageClass {
    match tag % 4 {
        0 => MessageClass::Placement,
        1 => MessageClass::Heartbeat,
        2 => MessageClass::Election,
        _ => MessageClass::Ack,
    }
}

/// Builds a scenario from fuzzed slots, clamping every window inside
/// `[0, horizon)`. Rule names only need to be distinct per scenario.
fn scenario_from(slots: &[RuleSlot], horizon: u32) -> FaultScenario {
    const NAMES: [&str; 8] = ["r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"];
    let mut sc = FaultScenario::named("fuzzed");
    for (i, &(tag, target, from_s, len_s, prob)) in slots.iter().enumerate() {
        let from = SimTime::from_secs((from_s % horizon) as u64);
        let until_s = (from_s % horizon + 1 + len_s % horizon).min(horizon);
        let until = SimTime::from_secs(until_s as u64);
        let rule = match tag % 6 {
            0 => FaultRule::new(NAMES[i % 8], FaultKind::DropMessage)
                .on_message(class_of(target))
                .with_probability(prob),
            1 => FaultRule::new(NAMES[i % 8], FaultKind::DuplicateMessage)
                .on_message(class_of(target))
                .with_probability(prob),
            2 => FaultRule::new(NAMES[i % 8], FaultKind::DelayMessage { micros: 1_700_000 })
                .on_message(class_of(target))
                .with_probability(prob),
            3 => FaultRule::new(NAMES[i % 8], FaultKind::DownReplica).on_server(target % MANAGERS),
            4 => FaultRule::new(NAMES[i % 8], FaultKind::StallManager { intervals: 2 })
                .on_server(target % SERVERS as u32),
            _ => FaultRule::new(NAMES[i % 8], FaultKind::DesyncPlacement { intervals: 2 })
                .on_server(target % SERVERS as u32),
        };
        sc = sc.rule(rule.window(from, until));
    }
    sc
}

/// A registry with one high-priority VM per server.
fn registry() -> CloudManager {
    let mut cloud = CloudManager::new();
    for s in 0..SERVERS as u32 {
        cloud.register(
            VmId(s),
            VmRecord { server: ServerId(s), priority: Priority::High, app: Some(AppId(s)) },
        );
    }
    cloud
}

fn plane(scenario: FaultScenario, partition: Option<Partition>, seed: u64) -> ControlPlane {
    let spec = ControlPlaneSpec {
        managers: MANAGERS,
        partitions: partition.into_iter().collect(),
        ..ControlPlaneSpec::default()
    };
    let ids = (0..SERVERS).map(|i| ServerId(i as u32)).collect();
    ControlPlane::new(spec, seed, scenario, ids, SAMPLE)
}

/// Fuzzed partition isolating one manager for a window inside `[0, horizon)`.
fn partition_from(slot: Option<(u32, u32, u32)>, horizon: u32) -> Option<Partition> {
    let (who, from_s, len_s) = slot?;
    let isolated = NodeId::manager(who % MANAGERS);
    let mut rest: Vec<NodeId> =
        (0..MANAGERS).filter(|&k| k != who % MANAGERS).map(NodeId::manager).collect();
    rest.extend((0..SERVERS).map(|i| NodeId::server(i as u32)));
    let from = from_s % horizon;
    let until = (from + 1 + len_s % horizon).min(horizon);
    Some(Partition {
        name: "fuzzed-iso".into(),
        side_a: vec![isolated],
        side_b: rest,
        from: SimTime::from_secs(from as u64),
        until: SimTime::from_secs(until as u64),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Safety: under arbitrary chaos, live coordinators never share a term
    /// and applied placement epochs never regress.
    #[test]
    fn no_two_live_coordinators_share_a_term(
        slots in proptest::collection::vec(
            (0u8..6, 0u32..8, 0u32..80, 0u32..40, 0.0f64..1.0),
            1..6,
        ),
        part in proptest::option::of((0u32..3, 0u32..80, 0u32..40)),
        seed in 0u64..1_000,
    ) {
        let horizon = 80u32;
        let mut cloud = registry();
        let mut nms: Vec<NodeManager> =
            (0..SERVERS).map(|_| NodeManager::new(PerfCloudConfig::default())).collect();
        let mut p = plane(scenario_from(&slots, horizon), partition_from(part, horizon), seed);
        let mut applied: Vec<Option<PlacementEpoch>> = vec![None; SERVERS];
        let mut now = SimTime::ZERO;
        let mut next_sample = SimTime::ZERO;
        while now <= SimTime::from_secs(horizon as u64) {
            if now >= next_sample {
                p.begin_interval(now, &cloud);
                next_sample = next_sample.saturating_add(SAMPLE);
            }
            p.tick(now, &mut cloud, &mut nms);
            let coords = p.coordinators();
            for (i, (_, ta)) in coords.iter().enumerate() {
                for (_, tb) in &coords[i + 1..] {
                    prop_assert_ne!(ta, tb, "two live coordinators share a term at {:?}", now);
                }
            }
            for (i, nm) in nms.iter().enumerate() {
                let e = nm.last_epoch();
                prop_assert!(
                    e >= applied[i],
                    "server {i} epoch regressed from {:?} to {:?} at {:?}", applied[i], e, now
                );
                applied[i] = e;
            }
            now = now.saturating_add(TICK);
        }
    }

    /// Liveness: all fault windows end by t=55; by t=80 exactly one live
    /// coordinator exists and fresh placement from its term has reached the
    /// servers.
    #[test]
    fn coordinator_and_placement_recover_after_heal(
        slots in proptest::collection::vec(
            (0u8..6, 0u32..8, 0u32..55, 0u32..55, 0.0f64..1.0),
            1..6,
        ),
        part in proptest::option::of((0u32..3, 0u32..55, 0u32..55)),
        seed in 0u64..1_000,
    ) {
        let heal = 55u32;
        let mut cloud = registry();
        let mut nms: Vec<NodeManager> =
            (0..SERVERS).map(|_| NodeManager::new(PerfCloudConfig::default())).collect();
        let mut p = plane(scenario_from(&slots, heal), partition_from(part, heal), seed);
        let mut now = SimTime::ZERO;
        let mut next_sample = SimTime::ZERO;
        while now <= SimTime::from_secs(80) {
            if now >= next_sample {
                p.begin_interval(now, &cloud);
                next_sample = next_sample.saturating_add(SAMPLE);
            }
            p.tick(now, &mut cloud, &mut nms);
            now = now.saturating_add(TICK);
        }
        let coords = p.coordinators();
        prop_assert_eq!(coords.len(), 1, "exactly one live coordinator after heal: {:?}", coords);
        let (_, term) = coords[0];
        // 25 s past the heal covers failover detection (3 heartbeat
        // intervals + stagger), the election round, the stale coordinator's
        // publish→reject→step-down loop, and several 5 s publish cadences.
        for (i, nm) in nms.iter().enumerate() {
            let e = nm.last_epoch().expect("placement reached every server");
            prop_assert_eq!(
                e.term, term.as_u64(),
                "server {} last applied epoch {:?} is not from live term {}", i, e, term
            );
        }
    }
}

/// One fuzzed send: (sender tag, receiver tag, tick offset, class tag).
type SendSlot = (u32, u32, u32, u32);

fn node_of(tag: u32) -> NodeId {
    // 5 endpoints: 3 managers and 2 servers.
    match tag % 5 {
        k @ 0..=2 => NodeId::manager(k),
        k => NodeId::server(k - 3),
    }
}

/// Encodes the send index in a heartbeat/election payload so delivery
/// order is observable; the class still varies so link-fault targeting and
/// jitter keying are exercised.
fn payload_of(class: u32, index: u32) -> Payload {
    match class % 3 {
        0 => Payload::Heartbeat { term: Term { round: index, owner: 0 } },
        1 => Payload::Election { round: index, priority: index as u64 },
        _ => Payload::Answer { round: index },
    }
}

/// Where every schedule ends: one poll far past the last deliver-at drains
/// whatever is still in flight.
const DRAIN: SimTime = SimTime::from_micros(3_600_000_000);

/// One poll instant: what `poll_into(now)` delivered, and how many messages
/// a second `poll_into(now)` at the same instant delivered after it.
#[derive(Debug, PartialEq)]
struct Poll {
    now: SimTime,
    delivered: Vec<(SimTime, Message)>,
    repeated: usize,
}

fn poll(net: &mut SimNet, now: SimTime) -> Poll {
    let mut delivered = Vec::new();
    net.poll_into(now, &mut delivered);
    let mut again = Vec::new();
    net.poll_into(now, &mut again);
    Poll { now, delivered, repeated: again.len() }
}

fn message(schedule: &[SendSlot], i: usize) -> Message {
    let (from, to, _, class) = schedule[i];
    Message { from: node_of(from), to: node_of(to), payload: payload_of(class, i as u32) }
}

/// Sends `schedule` on a fresh net with a 40 ms link, polling after every
/// send at its send instant, then drains. Returns the polls of that run and
/// those of a clone taken just before send `fork_at` and fed the rest of
/// the schedule at the same instants.
fn run_schedule(
    schedule: &[SendSlot],
    seed: u64,
    jitter: SimDuration,
    fork_at: usize,
) -> (Vec<Poll>, Vec<Poll>) {
    let scenario = FaultScenario::named("net-fuzz")
        .rule(
            FaultRule::new("drop", FaultKind::DropMessage)
                .on_message(MessageClass::Election)
                .with_probability(0.3),
        )
        .rule(
            FaultRule::new("dup", FaultKind::DuplicateMessage)
                .on_message(MessageClass::Heartbeat)
                .with_probability(0.3),
        );
    let link = LinkSpec { latency: SimDuration::from_micros(40_000), jitter };
    let mut net = SimNet::new(seed, scenario, link);
    let mut fork = None;
    let mut polls = Vec::new();
    let mut now = SimTime::ZERO;
    for (i, &(_, _, offset, _)) in schedule.iter().enumerate() {
        now = now.saturating_add(SimDuration::from_micros(u64::from(offset % 50) * 1_000));
        if i == fork_at {
            fork = Some(net.clone());
        }
        net.send(now, message(schedule, i));
        polls.push(poll(&mut net, now));
    }
    polls.push(poll(&mut net, DRAIN));

    let mut fork = fork.expect("fork_at indexes the schedule");
    let mut forked: Vec<Poll> = (fork_at..schedule.len())
        .map(|i| {
            fork.send(polls[i].now, message(schedule, i));
            poll(&mut fork, polls[i].now)
        })
        .collect();
    forked.push(poll(&mut fork, DRAIN));
    (polls, forked)
}

/// Every poll delivers exactly what fell due since the previous one:
/// `prev < at <= now`, and a second poll at the same instant finds nothing.
/// The link latency is positive, so no send is due at its own instant.
fn assert_polls_partition_deliveries(polls: &[Poll]) {
    let mut prev = None;
    for p in polls {
        prop_assert_eq!(p.repeated, 0, "a second poll at {:?} delivered again", p.now);
        for &(at, _) in &p.delivered {
            prop_assert!(at <= p.now, "poll at {:?} delivered a message due at {:?}", p.now, at);
            if let Some(prev) = prev {
                prop_assert!(at > prev, "message due at {:?} was left behind at {:?}", at, prev);
            }
        }
        prev = Some(p.now);
    }
}

fn deliveries(polls: &[Poll]) -> Vec<&(SimTime, Message)> {
    polls.iter().flat_map(|p| &p.delivered).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The net is deterministic in `(seed, schedule)`, delivers in
    /// nondecreasing time order, and each poll delivers exactly the
    /// messages due by its instant; with zero jitter, simultaneous
    /// deliveries preserve send order (FIFO). A clone taken mid-schedule
    /// delivers exactly what the original still delivers, which is what
    /// `Experiment::fork` relies on for the messages in flight.
    #[test]
    fn delivery_sequence_is_deterministic_and_ordered(
        schedule in proptest::collection::vec((0u32..5, 0u32..5, 0u32..50, 0u32..3), 1..60),
        seed in 0u64..1_000,
        fork_at in 0usize..60,
    ) {
        let fork_at = fork_at % schedule.len();
        let jitter = SimDuration::from_micros(25_000);
        let (jittered, forked) = run_schedule(&schedule, seed, jitter, fork_at);
        let (again, _) = run_schedule(&schedule, seed, jitter, fork_at);
        prop_assert_eq!(&jittered, &again, "same seed+schedule must replay identically");
        prop_assert_eq!(&forked[..], &jittered[fork_at..], "the clone diverged from the original");
        assert_polls_partition_deliveries(&jittered);
        for pair in deliveries(&jittered).windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "delivery times went backwards: {:?}", pair);
        }

        let (fifo, forked) = run_schedule(&schedule, seed, SimDuration::ZERO, fork_at);
        prop_assert_eq!(&forked[..], &fifo[fork_at..], "the clone diverged from the original");
        assert_polls_partition_deliveries(&fifo);
        let index_of = |m: &Message| match m.payload {
            Payload::Heartbeat { term } => term.round,
            Payload::Election { round, .. } => round,
            Payload::Answer { round } => round,
            _ => unreachable!("schedule only sends the three classes above"),
        };
        for pair in deliveries(&fifo).windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0);
            if pair[0].0 == pair[1].0 {
                prop_assert!(
                    index_of(&pair[0].1) <= index_of(&pair[1].1),
                    "simultaneous deliveries broke FIFO send order: {:?}", pair
                );
            }
        }
    }
}
