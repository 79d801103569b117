//! The simulated control-plane network.
//!
//! [`SimNet`] carries [`Message`]s between control-plane participants with
//! per-link latency and jitter, seed-driven drop/duplicate/extra-delay link
//! faults, and named partitions. In-flight messages sit in a binary heap
//! keyed on `(deliver-at, send-seq)`, so delivery order is that exact FIFO
//! discipline — deterministic for any evaluation order or worker-thread
//! count.
//!
//! Randomness is stateless, in the `sim::faults` discipline: jitter and every
//! link-fault decision are pure FNV-1a hashes of
//! `(seed, scenario, rule/label, coordinates, message-seq)`, so a run replays
//! bit-identically from `(seed, scenario)` alone. The default [`LinkSpec`] is
//! the zero-latency loopback: messages sent at `t` are deliverable at `t`,
//! so a single-replica experiment's node managers see each publish at the
//! instant it is made.

use crate::proto::{Message, NodeId};
use perfcloud_obs::{FlightEvent, FlightRecorder};
use perfcloud_sim::faults::{FaultInjector, FaultKind, FaultScenario};
use perfcloud_sim::rng::fnv1a64;
use perfcloud_sim::{SimDuration, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Latency model for every link in the plane.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkSpec {
    /// Fixed one-way latency added to every message.
    pub latency: SimDuration,
    /// Upper bound of the uniform per-message jitter added on top.
    pub jitter: SimDuration,
}

/// A named network partition active over `[from, until)`: messages crossing
/// between `side_a` and `side_b` (either direction) are dropped. Nodes listed
/// on neither side are unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Name, for trace events.
    pub name: String,
    /// One side of the cut.
    pub side_a: Vec<NodeId>,
    /// The other side.
    pub side_b: Vec<NodeId>,
    /// Start of the partition (inclusive).
    pub from: SimTime,
    /// End of the partition (exclusive) — the heal instant.
    pub until: SimTime,
}

impl Partition {
    fn severs(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let (a, b) = (self.side_a.contains(&from), self.side_b.contains(&from));
        let (a2, b2) = (self.side_a.contains(&to), self.side_b.contains(&to));
        (a && b2) || (b && a2)
    }
}

/// Delivery counters, for the messages/sec probe and trace summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to [`SimNet::send`].
    pub sent: u64,
    /// Copies delivered by [`SimNet::poll_into`].
    pub delivered: u64,
    /// Messages dropped (partition or drop fault).
    pub dropped: u64,
    /// Extra copies created by duplicate faults.
    pub duplicated: u64,
}

/// Why [`SimNet::send`] dropped a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// A named partition severed the link.
    Partitioned,
    /// A `DropMessage` fault rule fired.
    Faulted,
}

/// What [`SimNet::send`] did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Queued for delivery (`copies` ≥ 1 when duplicate faults fired).
    Queued {
        /// In-flight copies (1 + duplicates).
        copies: u32,
    },
    /// Dropped before it was queued.
    Dropped(DropReason),
}

/// One queued copy of a message. Ordered on `key` alone, so the heap's top
/// is the earliest `(deliver-at, send-seq)`; send-seqs are unique, so the
/// order is total.
#[derive(Debug, Clone)]
struct InFlight {
    key: Reverse<(SimTime, u64)>,
    msg: Message,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for InFlight {}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// The simulated network: a heap of in-flight messages plus the fault
/// injector that decides each message's fate.
#[derive(Debug, Clone)]
pub struct SimNet {
    injector: FaultInjector,
    link: LinkSpec,
    partitions: Vec<Partition>,
    in_flight: BinaryHeap<InFlight>,
    seq: u64,
    /// Delivery counters.
    pub stats: NetStats,
    /// Optional flight recorder for per-message send/drop/delay events; a
    /// single branch per send when absent, pure observation when present.
    flight: Option<FlightRecorder>,
}

impl SimNet {
    /// Creates a network bound to `(seed, scenario)` with the given link
    /// model. The scenario's link-fault rules (`DropMessage`,
    /// `DuplicateMessage`, `DelayMessage`) apply to every message.
    pub fn new(seed: u64, scenario: FaultScenario, link: LinkSpec) -> Self {
        SimNet {
            injector: FaultInjector::new(seed, scenario),
            link,
            partitions: Vec::new(),
            in_flight: BinaryHeap::new(),
            seq: 0,
            stats: NetStats::default(),
            flight: None,
        }
    }

    /// Attaches a flight recorder retaining the last `capacity` network
    /// events (message send/drop/delay).
    pub fn attach_flight(&mut self, capacity: usize) {
        self.flight = Some(FlightRecorder::with_capacity(capacity));
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Adds a named partition window.
    pub fn add_partition(&mut self, p: Partition) {
        self.partitions.push(p);
    }

    /// Whether any partition severs `from → to` at `now`.
    pub fn partitioned(&self, from: NodeId, to: NodeId, now: SimTime) -> Option<&Partition> {
        self.partitions.iter().find(|p| p.severs(from, to, now))
    }

    /// Sends `msg` at `now`: partition check, then per-message drop /
    /// duplicate / extra-delay faults, then latency + deterministic jitter.
    /// Each queued copy gets a fresh send-sequence number, which is also the
    /// delivery tiebreaker at equal deliver-at times.
    pub fn send(&mut self, now: SimTime, msg: Message) -> SendOutcome {
        self.stats.sent += 1;
        let key = self.seq;
        if self.partitioned(msg.from, msg.to, now).is_some() {
            self.stats.dropped += 1;
            self.seq += 1;
            if let Some(fl) = self.flight.as_mut() {
                fl.record(
                    now.as_micros(),
                    FlightEvent::MsgDrop { from: msg.from.0, to: msg.to.0, partitioned: true },
                );
            }
            return SendOutcome::Dropped(DropReason::Partitioned);
        }
        let class = msg.payload.class();
        // Link-fault coordinates: (time, src-id, dst-id) plus the per-message
        // send sequence, so broadcasts within one tick decorrelate.
        let coord = (msg.from.0, Some(msg.to.0));
        let mut extra = SimDuration::ZERO;
        let mut copies = 1u32;
        for rule in self.injector.scenario().rules.iter() {
            if !rule.kind.is_link_fault() || !rule.target.matches_message(class) {
                continue;
            }
            if !self.injector.fires_keyed(rule, now, coord.0, coord.1, key) {
                continue;
            }
            match rule.kind {
                FaultKind::DropMessage => {
                    self.stats.dropped += 1;
                    self.seq += 1;
                    if let Some(fl) = self.flight.as_mut() {
                        fl.record(
                            now.as_micros(),
                            FlightEvent::MsgDrop {
                                from: msg.from.0,
                                to: msg.to.0,
                                partitioned: false,
                            },
                        );
                    }
                    return SendOutcome::Dropped(DropReason::Faulted);
                }
                FaultKind::DuplicateMessage => copies += 1,
                FaultKind::DelayMessage { micros } => {
                    extra = SimDuration::from_micros(extra.as_micros() + micros);
                }
                _ => {}
            }
        }
        let jitter = self.jitter_for(key);
        let deliver_at =
            now.saturating_add(self.link.latency).saturating_add(jitter).saturating_add(extra);
        self.stats.duplicated += (copies - 1) as u64;
        if let Some(fl) = self.flight.as_mut() {
            if extra > SimDuration::ZERO {
                fl.record(
                    now.as_micros(),
                    FlightEvent::MsgDelay {
                        from: msg.from.0,
                        to: msg.to.0,
                        micros: extra.as_micros(),
                    },
                );
            }
            fl.record(
                now.as_micros(),
                FlightEvent::MsgSend { from: msg.from.0, to: msg.to.0, copies },
            );
        }
        // Every copy is equal, so duplicates clone and the last one moves.
        for _ in 1..copies {
            self.enqueue(deliver_at, msg.clone());
        }
        self.enqueue(deliver_at, msg);
        SendOutcome::Queued { copies }
    }

    /// Queues one copy under the next send-seq.
    fn enqueue(&mut self, deliver_at: SimTime, msg: Message) {
        self.in_flight.push(InFlight { key: Reverse((deliver_at, self.seq)), msg });
        self.seq += 1;
    }

    /// Uniform jitter in `[0, link.jitter)`, a pure hash of the send seq.
    fn jitter_for(&self, key: u64) -> SimDuration {
        let bound = self.link.jitter.as_micros();
        if bound == 0 {
            return SimDuration::ZERO;
        }
        let mut bytes = [0u8; 21];
        bytes[..8].copy_from_slice(&self.injector.seed().to_le_bytes());
        bytes[8..13].copy_from_slice(b"ctrlj");
        bytes[13..21].copy_from_slice(&key.to_le_bytes());
        let u = (fnv1a64(&bytes) >> 11) as f64 / (1u64 << 53) as f64;
        SimDuration::from_micros((u * bound as f64) as u64)
    }

    /// Drains every message deliverable at or before `now` into `out`, in
    /// `(deliver-at, send-seq)` order, appending `(deliver_at, message)`.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, Message)>) {
        while let Some(top) = self.in_flight.peek_mut() {
            let Reverse((at, _)) = top.key;
            if at > now {
                break;
            }
            let msg = PeekMut::pop(top).msg;
            self.stats.delivered += 1;
            out.push((at, msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Payload;
    use perfcloud_sim::faults::{FaultRule, MessageClass};

    fn hb(from: NodeId, to: NodeId) -> Message {
        Message {
            from,
            to,
            payload: Payload::Heartbeat { term: crate::proto::Term { round: 1, owner: 0 } },
        }
    }

    #[test]
    fn loopback_delivers_same_instant_in_send_order() {
        let mut net = SimNet::new(1, FaultScenario::default(), LinkSpec::default());
        let now = SimTime::from_secs(5);
        for k in 0..4 {
            net.send(now, hb(NodeId::manager(0), NodeId::server(k)));
        }
        let mut out = Vec::new();
        net.poll_into(now, &mut out);
        assert_eq!(out.len(), 4);
        let dsts: Vec<u32> = out.iter().map(|(_, m)| m.to.server_index().unwrap()).collect();
        assert_eq!(dsts, vec![0, 1, 2, 3], "equal-time delivery must preserve send order");
        assert!(out.iter().all(|&(t, _)| t == now));
    }

    #[test]
    fn latency_and_jitter_defer_delivery_deterministically() {
        let link =
            LinkSpec { latency: SimDuration::from_millis(10), jitter: SimDuration::from_millis(5) };
        let run = || {
            let mut net = SimNet::new(9, FaultScenario::default(), link);
            let now = SimTime::from_secs(1);
            for k in 0..16 {
                net.send(now, hb(NodeId::manager(0), NodeId::server(k)));
            }
            let mut out = Vec::new();
            net.poll_into(now, &mut out);
            assert!(out.is_empty(), "nothing deliverable before the latency elapses");
            net.poll_into(now.saturating_add(SimDuration::from_millis(20)), &mut out);
            out.iter().map(|&(t, _)| t).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 16);
        assert_eq!(a, b, "jitter must replay identically");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "delivery must be time-ordered");
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() > 1, "jitter should actually spread deliveries");
    }

    #[test]
    fn partitions_sever_both_directions_and_heal() {
        let mut net = SimNet::new(1, FaultScenario::default(), LinkSpec::default());
        net.add_partition(Partition {
            name: "iso".into(),
            side_a: vec![NodeId::manager(0)],
            side_b: vec![NodeId::manager(1), NodeId::server(0)],
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
        });
        let m0 = NodeId::manager(0);
        let m1 = NodeId::manager(1);
        let t = SimTime::from_secs(15);
        assert_eq!(net.send(t, hb(m0, m1)), SendOutcome::Dropped(DropReason::Partitioned));
        assert_eq!(net.send(t, hb(m1, m0)), SendOutcome::Dropped(DropReason::Partitioned));
        // Within one side the link is fine.
        assert!(matches!(net.send(t, hb(m1, NodeId::server(0))), SendOutcome::Queued { .. }));
        // After heal everything flows again.
        let healed = SimTime::from_secs(20);
        assert!(matches!(net.send(healed, hb(m0, m1)), SendOutcome::Queued { .. }));
        assert_eq!(net.stats.dropped, 2);
    }

    #[test]
    fn drop_and_duplicate_faults_respect_message_class() {
        let scenario = FaultScenario::named("lossy")
            .rule(
                FaultRule::new("drop-hb", FaultKind::DropMessage)
                    .on_message(MessageClass::Heartbeat),
            )
            .rule(
                FaultRule::new("dup-el", FaultKind::DuplicateMessage)
                    .on_message(MessageClass::Election),
            );
        let mut net = SimNet::new(3, scenario, LinkSpec::default());
        let now = SimTime::from_secs(1);
        let m0 = NodeId::manager(0);
        let m1 = NodeId::manager(1);
        assert_eq!(net.send(now, hb(m0, m1)), SendOutcome::Dropped(DropReason::Faulted));
        let el = Message { from: m0, to: m1, payload: Payload::Election { round: 2, priority: 7 } };
        assert_eq!(net.send(now, el), SendOutcome::Queued { copies: 2 });
        let mut out = Vec::new();
        net.poll_into(now, &mut out);
        assert_eq!(out.len(), 2, "duplicate fault must deliver two copies");
        assert_eq!(net.stats.duplicated, 1);
    }

    #[test]
    fn delay_fault_adds_to_link_latency() {
        let scenario = FaultScenario::named("slow")
            .rule(FaultRule::new("lag", FaultKind::DelayMessage { micros: 250_000 }));
        let mut net = SimNet::new(3, scenario, LinkSpec::default());
        let now = SimTime::from_secs(1);
        net.send(now, hb(NodeId::manager(0), NodeId::manager(1)));
        let mut out = Vec::new();
        net.poll_into(now, &mut out);
        assert!(out.is_empty());
        net.poll_into(now.saturating_add(SimDuration::from_millis(250)), &mut out);
        assert_eq!(out.len(), 1);
    }
}
