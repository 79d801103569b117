//! The assembled control plane.
//!
//! [`ControlPlane`] owns the replica state machines, the simulated network,
//! and the per-server control-plane fault windows, and drives placement
//! synchronization over messages:
//!
//! * every sampling interval ([`ControlPlane::begin_interval`]) each live
//!   coordinator stamps a fresh [`PlacementEpoch`] and publishes one
//!   `PlacementUpdate` per server from the registry;
//! * every experiment tick ([`ControlPlane::tick`]) due messages are delivered —
//!   updates apply to node managers (which ack with their last-applied
//!   epoch), acks reconcile a healed coordinator's volatile publish counter,
//!   colocation notices reach the registry, and election traffic feeds the
//!   replica state machines, whose timers then run.
//!
//! Control-plane failure injection lives here, one code path for all of it:
//! `StallManager` windows freeze a server's agent (the plane refuses to step
//! it and its endpoint drops deliveries — a frozen process reads no
//! sockets); `DesyncPlacement` windows take the placement link down
//! (publishes and acks for that server are dropped); `DownReplica` windows
//! take a whole cloud-manager replica offline. All three are evaluated with
//! the same stateless `(seed, scenario)` hash coordinates the node-local
//! faults use, so a scenario that stalled or desynced a manager under the
//! old direct-mutation path replays the identical windows here.
//!
//! With the default spec — one replica, zero-latency loopback, no faults —
//! an update published at the sampling instant is delivered and applied at
//! that same instant, making the message path byte-identical to the old
//! direct registry fetch.

use crate::election::{ElectionConfig, Replica, Role};
use crate::net::{LinkSpec, NetStats, Partition, SimNet};
use crate::proto::{Message, NodeId, Payload, Term};
use perfcloud_core::{CloudManager, NodeManager, Placement, PlacementApplyOutcome, PlacementEpoch};
use perfcloud_host::ServerId;
use perfcloud_obs::{FlightEvent, FlightRecorder};
use perfcloud_sim::faults::{FaultKind, FaultScenario};
use perfcloud_sim::{FaultInjector, SimDuration, SimTime};

/// Deployment shape and timing of the control plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlaneSpec {
    /// Cloud-manager replicas (1 = the classic single manager).
    pub managers: u32,
    /// Coordinator heartbeat period.
    pub heartbeat_interval: SimDuration,
    /// Heartbeat intervals of silence before failover starts.
    pub heartbeat_timeout: u32,
    /// Candidate wait before winning an unanswered election.
    pub election_timeout: SimDuration,
    /// Latency model for every link.
    pub link: LinkSpec,
    /// Per-replica election priorities (lower wins; defaults to replica id).
    pub priorities: Vec<u64>,
    /// Named partition windows.
    pub partitions: Vec<Partition>,
    /// Queue control-plane decisions (elections, publishes that could not
    /// reach every server, rejects, replica outages, reconciliations) for
    /// the decision trace. Migrations are queued regardless.
    pub trace_events: bool,
}

impl Default for ControlPlaneSpec {
    fn default() -> Self {
        ControlPlaneSpec {
            managers: 1,
            heartbeat_interval: SimDuration::from_secs(1.0),
            heartbeat_timeout: 3,
            election_timeout: SimDuration::from_millis(500),
            link: LinkSpec::default(),
            priorities: Vec::new(),
            partitions: Vec::new(),
            trace_events: false,
        }
    }
}

/// Per-server endpoint bookkeeping.
#[derive(Debug, Clone)]
struct Endpoint {
    /// Which replica last updated this endpoint — where acks and colocation
    /// notices go (the endpoint's view of "the coordinator").
    last_from: NodeId,
}

/// The control plane for one cluster experiment.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    spec: ControlPlaneSpec,
    net: SimNet,
    injector: FaultInjector,
    replicas: Vec<Replica>,
    down: Vec<bool>,
    endpoints: Vec<Endpoint>,
    server_ids: Vec<ServerId>,
    sample_interval: SimDuration,
    /// Stall windows per server (the old `NodeFaults::stalled_until`).
    stalled_until: Vec<Option<SimTime>>,
    /// Placement-link-down windows per server (the old desync windows).
    link_down_until: Vec<Option<SimTime>>,
    /// Decisions queued for the decision trace (see [`Self::emit`]).
    events: Vec<(SimTime, FlightEvent)>,
    inbox: Vec<(SimTime, Message)>,
    outbox: Vec<(NodeId, Payload)>,
    /// Optional flight recorder for every control-plane decision (see
    /// [`Self::emit`]). Pure observation.
    flight: Option<FlightRecorder>,
}

impl ControlPlane {
    /// Builds the plane for `server_ids` with faults bound to
    /// `(seed, scenario)` — the same pair the node-local faults use, so one
    /// scenario drives both layers coherently.
    pub fn new(
        spec: ControlPlaneSpec,
        seed: u64,
        scenario: FaultScenario,
        server_ids: Vec<ServerId>,
        sample_interval: SimDuration,
    ) -> Self {
        assert!(spec.managers >= 1, "the plane needs at least one replica");
        let cfg = ElectionConfig {
            heartbeat_interval: spec.heartbeat_interval,
            heartbeat_timeout: spec.heartbeat_timeout,
            election_timeout: spec.election_timeout,
        };
        let priority = |k: u32| spec.priorities.get(k as usize).copied().unwrap_or(k as u64);
        // Bootstrap coordinator: best (priority, id) — agreed deployment
        // configuration, like CloudP2P's seeded ring.
        let best =
            (0..spec.managers).min_by_key(|&k| (priority(k), k)).expect("at least one replica");
        let bootstrap = Term { round: 1, owner: best };
        let replicas = (0..spec.managers)
            .map(|k| Replica::new(k, priority(k), spec.managers, cfg, bootstrap))
            .collect();
        let mut net = SimNet::new(seed, scenario.clone(), spec.link);
        for p in &spec.partitions {
            net.add_partition(p.clone());
        }
        let n = server_ids.len();
        ControlPlane {
            net,
            injector: FaultInjector::new(seed, scenario),
            replicas,
            down: vec![false; spec.managers as usize],
            endpoints: vec![Endpoint { last_from: NodeId::manager(best) }; n],
            server_ids,
            sample_interval,
            stalled_until: vec![None; n],
            link_down_until: vec![None; n],
            events: Vec::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
            flight: None,
            spec,
        }
    }

    /// Attaches flight recorders to the plane (coordination events) and its
    /// network (per-message events), each retaining `capacity` events.
    pub fn attach_flight(&mut self, capacity: usize) {
        self.flight = Some(FlightRecorder::with_capacity(capacity));
        self.net.attach_flight(capacity);
    }

    /// The plane's coordination-event flight recorder, if attached.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// The network's per-message flight recorder, if attached.
    pub fn net_flight(&self) -> Option<&FlightRecorder> {
        self.net.flight()
    }

    /// The bound spec.
    pub fn spec(&self) -> &ControlPlaneSpec {
        &self.spec
    }

    /// Network delivery counters.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats
    }

    /// The replica state machines (read access for tests and probes).
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Whether replica `k` is currently down.
    pub fn is_down(&self, k: u32) -> bool {
        self.down[k as usize]
    }

    /// Live replicas currently in the coordinator role, as `(id, term)`.
    pub fn coordinators(&self) -> Vec<(u32, Term)> {
        self.replicas
            .iter()
            .zip(&self.down)
            .filter(|(r, &down)| !down && r.role == Role::Coordinator)
            .map(|(r, _)| (r.id, r.term.expect("coordinator always has a term")))
            .collect()
    }

    /// Whether server `i`'s agent is stalled at `now`.
    pub fn stalled(&self, server: usize, now: SimTime) -> bool {
        self.stalled_until[server].is_some_and(|until| now < until)
    }

    /// Clears server `i`'s stall window (its agent process restarted; the
    /// freeze died with it).
    pub fn clear_stall(&mut self, server: usize) {
        self.stalled_until[server] = None;
    }

    /// Writes every server's stall state at `now` into `out` (reusing its
    /// buffer). The sharded sampling phase takes this snapshot at the epoch
    /// barrier and fans the frozen view out to shard workers; it equals
    /// per-server [`stalled`](Self::stalled) queries because a stall window
    /// only ever changes through that server's own restart.
    pub fn stall_snapshot_into(&self, now: SimTime, out: &mut Vec<bool>) {
        out.clear();
        out.extend(self.stalled_until.iter().map(|u| u.is_some_and(|until| now < until)));
    }

    /// Whether server `i`'s placement link is down at `now`.
    pub fn link_down(&self, server: usize, now: SimTime) -> bool {
        self.link_down_until[server].is_some_and(|until| now < until)
    }

    /// Drains the decisions queued for the decision trace (time-ordered).
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, (SimTime, FlightEvent)> {
        self.events.drain(..)
    }

    /// The single sink for every control-plane decision. The event goes to
    /// the flight recorder when one is attached, and onto the decision-trace
    /// queue when `trace_events` is set — publishes only when some server
    /// was cut off. Migrations are mitigation actions, on par with throttle
    /// commands, so they are queued regardless of `trace_events`; they only
    /// occur when a placement runtime drives the experiment.
    fn emit(&mut self, now: SimTime, event: FlightEvent) {
        if let Some(fl) = self.flight.as_mut() {
            fl.record(now.as_micros(), event);
        }
        let traced = match event {
            FlightEvent::MigrationStart { .. }
            | FlightEvent::MigrationStopCopy { .. }
            | FlightEvent::MigrationComplete { .. } => true,
            FlightEvent::EpochPublished { cut, .. } => self.spec.trace_events && cut > 0,
            _ => self.spec.trace_events,
        };
        if traced {
            self.events.push((now, event));
        }
    }

    /// Announces a live-migration phase transition — one of the
    /// `FlightEvent::Migration*` variants — through the plane.
    pub fn announce_migration(&mut self, now: SimTime, event: FlightEvent) {
        self.emit(now, event);
    }

    /// Re-evaluates `DownReplica` windows; a heal restarts the replica with
    /// volatile state lost.
    fn refresh_down(&mut self, now: SimTime) {
        for k in 0..self.replicas.len() {
            let is_down = self.injector.scenario().rules.iter().any(|r| {
                r.kind == FaultKind::DownReplica && self.injector.fires(r, now, k as u32, None)
            });
            let was_down = self.down[k];
            if is_down == was_down {
                continue;
            }
            self.down[k] = is_down;
            let replica = k as u32;
            if is_down {
                self.emit(now, FlightEvent::ReplicaDown { replica });
            } else {
                self.replicas[k].on_restart(now);
                self.emit(now, FlightEvent::ReplicaUp { replica });
            }
        }
    }

    /// Starts a control interval: evaluates per-server stall/desync windows
    /// (identical hash coordinates to the old node-local path) and has every
    /// live coordinator publish a freshly-stamped placement view per server.
    /// Call before [`Self::tick`] at the sampling instant so loopback
    /// deliveries land in the same interval.
    pub fn begin_interval(&mut self, now: SimTime, cloud: &CloudManager) {
        // Fault windows first, so a desync opening this instant already
        // suppresses this instant's publish — matching the old semantics
        // where a firing desync rule hid the same interval's fetch.
        for i in 0..self.server_ids.len() {
            for rule in self.injector.scenario().rules.iter() {
                if !self.injector.fires(rule, now, i as u32, None) {
                    continue;
                }
                match rule.kind {
                    FaultKind::StallManager { intervals } => {
                        let until =
                            now.saturating_add(self.sample_interval.mul_f64(intervals as f64));
                        let merged = self.stalled_until[i].map_or(until, |u| u.max(until));
                        self.stalled_until[i] = Some(merged);
                    }
                    FaultKind::DesyncPlacement { intervals } => {
                        let until =
                            now.saturating_add(self.sample_interval.mul_f64(intervals as f64));
                        let merged = self.link_down_until[i].map_or(until, |u| u.max(until));
                        self.link_down_until[i] = Some(merged);
                    }
                    _ => {}
                }
            }
        }

        // Publishes: every live coordinator stamps and ships. Under a
        // partition both sides may publish; epoch ordering at the endpoints
        // picks the winner.
        for k in 0..self.replicas.len() {
            if self.down[k] || self.replicas[k].role != Role::Coordinator {
                continue;
            }
            let term = self.replicas[k].term.expect("coordinator always has a term");
            self.replicas[k].seq += 1;
            let epoch = PlacementEpoch { term: term.as_u64(), seq: self.replicas[k].seq };
            let (mut sent, mut cut) = (0u32, 0u32);
            for i in 0..self.server_ids.len() {
                if self.link_down(i, now) {
                    cut += 1;
                    continue;
                }
                let mut view = Placement::default();
                cloud.placement_into(self.server_ids[i], &mut view);
                let msg = Message {
                    from: NodeId::manager(k as u32),
                    to: NodeId::server(i as u32),
                    payload: Payload::PlacementUpdate { epoch, view },
                };
                match self.net.send(now, msg) {
                    crate::net::SendOutcome::Queued { .. } => sent += 1,
                    crate::net::SendOutcome::Dropped(_) => cut += 1,
                }
            }
            self.emit(
                now,
                FlightEvent::EpochPublished {
                    replica: k as u32,
                    term: epoch.term,
                    seq: epoch.seq,
                    ok: sent,
                    cut,
                },
            );
        }
    }

    /// One experiment tick: refreshes replica outage windows, delivers due
    /// messages, and runs replica timers. Safe to call repeatedly at the
    /// same `now`.
    pub fn tick(&mut self, now: SimTime, cloud: &mut CloudManager, nms: &mut [NodeManager]) {
        self.refresh_down(now);

        let mut inbox = std::mem::take(&mut self.inbox);
        debug_assert!(inbox.is_empty());
        self.net.poll_into(now, &mut inbox);
        for (at, msg) in inbox.drain(..) {
            self.dispatch(at, now, msg, cloud, nms);
        }
        for k in 0..self.replicas.len() {
            if self.down[k] {
                continue;
            }
            let before = (self.replicas[k].role, self.replicas[k].term);
            let mut out = std::mem::take(&mut self.outbox);
            self.replicas[k].on_tick(now, &mut out);
            self.note_transition(now, k, before);
            self.flush(now, k as u32, &mut out);
            self.outbox = out;
        }
        self.inbox = inbox;
    }

    /// Ships a server's colocation notice to its coordinator.
    pub fn send_colocation(
        &mut self,
        now: SimTime,
        server: usize,
        apps: Vec<perfcloud_core::AppId>,
    ) {
        if self.link_down(server, now) {
            self.net.stats.dropped += 1;
            return;
        }
        let msg = Message {
            from: NodeId::server(server as u32),
            to: self.endpoints[server].last_from,
            payload: Payload::Colocation { server: server as u32, apps },
        };
        self.net.send(now, msg);
    }

    fn note_transition(&mut self, now: SimTime, k: usize, before: (Role, Option<Term>)) {
        let after = (self.replicas[k].role, self.replicas[k].term);
        if before == after {
            return;
        }
        let replica = k as u32;
        let event = match after.0 {
            Role::Candidate { round, .. } if !matches!(before.0, Role::Candidate { .. }) => {
                FlightEvent::Election { replica, round: round as u64 }
            }
            Role::Coordinator if before.0 != Role::Coordinator => {
                let term = after.1.expect("coordinator always has a term");
                FlightEvent::Coordinator { replica, term: term.as_u64() }
            }
            Role::Follower if before.0 == Role::Coordinator => {
                let term = after.1.expect("a stepped-down coordinator knows the newer term");
                FlightEvent::Stepdown { replica, term: term.as_u64() }
            }
            _ => return,
        };
        self.emit(now, event);
    }

    fn dispatch(
        &mut self,
        at: SimTime,
        now: SimTime,
        msg: Message,
        cloud: &mut CloudManager,
        nms: &mut [NodeManager],
    ) {
        if let Some(i) = msg.to.server_index() {
            let i = i as usize;
            // A stalled agent reads no sockets; deliveries die on the floor.
            if self.stalled(i, at) {
                self.net.stats.dropped += 1;
                return;
            }
            if let Payload::PlacementUpdate { epoch, view } = &msg.payload {
                self.endpoints[i].last_from = msg.from;
                let outcome = nms[i].apply_placement(at, *epoch, view);
                if outcome == PlacementApplyOutcome::RejectedStaleEpoch {
                    let have = nms[i].last_epoch().expect("rejection implies an applied epoch");
                    self.emit(
                        now,
                        FlightEvent::EpochRejected {
                            server: i as u32,
                            term: epoch.term,
                            seq: epoch.seq,
                            have_term: have.term,
                            have_seq: have.seq,
                        },
                    );
                }
                // Ack with the endpoint's authoritative epoch either way:
                // that is what resynchronizes a healed coordinator.
                if !self.link_down(i, at) {
                    let ack = Message {
                        from: msg.to,
                        to: msg.from,
                        payload: Payload::Ack { server: i as u32, epoch: nms[i].last_epoch() },
                    };
                    self.net.send(now, ack);
                }
            }
            return;
        }

        let k = msg.to.0 as usize;
        // Messages to a downed replica are lost.
        if self.down[k] {
            self.net.stats.dropped += 1;
            return;
        }
        match &msg.payload {
            Payload::Ack { epoch, .. } => {
                if let Some(e) = epoch {
                    self.reconcile(now, k, *e);
                }
            }
            Payload::Colocation { server, apps } => {
                cloud.notify_colocation(self.server_ids[*server as usize], apps.clone());
            }
            _ => {
                let before = (self.replicas[k].role, self.replicas[k].term);
                let mut out = std::mem::take(&mut self.outbox);
                self.replicas[k].on_message(at, msg.from, &msg.payload, &mut out);
                self.note_transition(now, k, before);
                self.flush(now, k as u32, &mut out);
                self.outbox = out;
            }
        }
    }

    /// Folds an acked epoch into replica `k`: a coordinator in the same term
    /// adopts a higher seq (its volatile counter was reset by a restart —
    /// "reconciling placement epochs after heal"); an epoch from a newer
    /// term supersedes it entirely.
    fn reconcile(&mut self, now: SimTime, k: usize, e: PlacementEpoch) {
        if self.replicas[k].role != Role::Coordinator {
            return;
        }
        let my = self.replicas[k].term.expect("coordinator always has a term");
        if e.term == my.as_u64() {
            if e.seq > self.replicas[k].seq {
                self.replicas[k].seq = e.seq;
                self.emit(now, FlightEvent::Reconcile { replica: k as u32, seq: e.seq });
            }
        } else if e.term > my.as_u64() {
            let newer = Term { round: (e.term >> 32) as u32, owner: (e.term & 0xffff_ffff) as u32 };
            let before = (self.replicas[k].role, self.replicas[k].term);
            let mut out = std::mem::take(&mut self.outbox);
            self.replicas[k].observe_term(now, newer, false, &mut out);
            self.note_transition(now, k, before);
            self.flush(now, k as u32, &mut out);
            self.outbox = out;
        }
    }

    /// Ships replica `k`'s pending protocol messages. Replies generated
    /// while dispatching can themselves generate replies only on later
    /// ticks; that is fine — real sockets queue too.
    fn flush(&mut self, now: SimTime, k: u32, out: &mut Vec<(NodeId, Payload)>) {
        let from = NodeId::manager(k);
        for (to, payload) in out.drain(..) {
            self.net.send(now, Message { from, to, payload });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcloud_core::{AppId, PerfCloudConfig, VmRecord};
    use perfcloud_host::{Priority, VmId};
    use perfcloud_sim::faults::FaultRule;

    const TICK: SimDuration = SimDuration::from_micros(100_000);
    const SAMPLE: SimDuration = SimDuration::from_micros(1_000_000);

    fn cloud_with_vm() -> CloudManager {
        let mut cloud = CloudManager::new();
        cloud.register(
            VmId(0),
            VmRecord { server: ServerId(0), priority: Priority::High, app: Some(AppId(1)) },
        );
        cloud
    }

    fn agents(n: usize) -> Vec<NodeManager> {
        (0..n).map(|_| NodeManager::new(PerfCloudConfig::default())).collect()
    }

    fn plane(spec: ControlPlaneSpec, scenario: FaultScenario, servers: usize) -> ControlPlane {
        let ids = (0..servers).map(|i| ServerId(i as u32)).collect();
        ControlPlane::new(spec, 42, scenario, ids, SAMPLE)
    }

    #[test]
    fn migration_announcements_trace_and_flight_record() {
        // Announcements bypass the trace_events gate (default spec has it
        // off) and land in both the drained events and the flight recorder.
        let mut p = plane(ControlPlaneSpec::default(), FaultScenario::default(), 2);
        p.attach_flight(16);
        let t0 = SimTime::from_secs(10);
        let phases = [
            (t0, FlightEvent::MigrationStart { vm: 3, from: 0, to: 1 }),
            (
                t0 + SimDuration::from_secs(8.0),
                FlightEvent::MigrationStopCopy { vm: 3, from: 0, to: 1 },
            ),
            (
                t0 + SimDuration::from_secs(9.0),
                FlightEvent::MigrationComplete { vm: 3, from: 0, to: 1 },
            ),
        ];
        for (at, event) in phases {
            p.announce_migration(at, event);
        }
        let events: Vec<(SimTime, FlightEvent)> = p.drain_events().collect();
        assert_eq!(events, phases);
        let flight = p.flight().expect("recorder attached");
        let recorded: Vec<(u64, FlightEvent)> = flight.iter().map(|r| (r.t, r.event)).collect();
        assert_eq!(recorded, phases.map(|(at, e)| (at.as_micros(), e)));
    }

    /// Every control-plane decision renders exactly as the plane's
    /// hand-written trace strings did before the events became the only
    /// vocabulary. Each expected string is the old `format!` call, applied
    /// to the same values; terms with a nonzero owner and a round past
    /// `u32::MAX / 2` check the `round/owner` unpacking.
    #[test]
    fn ctrl_events_render_the_legacy_trace_text() {
        let (k, i) = (2usize, 5usize);
        let round = 3_000_000_000u32;
        let term = Term { round, owner: 2 };
        let newer = Term { round: u32::MAX, owner: 1 };
        let epoch = PlacementEpoch { term: term.as_u64(), seq: 7 };
        let have = PlacementEpoch { term: newer.as_u64(), seq: 12_345 };
        let e = PlacementEpoch { term: term.as_u64(), seq: 9 };
        let (sent, cut) = (3u32, 1u32);
        let (vm, from, to) = (VmId(10), ServerId(0), ServerId(1));
        let m = |word: &str| format!("migrate-{word} vm{} s{}->s{}", vm.0, from.0, to.0);
        let replica = k as u32;
        let cases = [
            (FlightEvent::ReplicaDown { replica }, format!("down m{k}")),
            (FlightEvent::ReplicaUp { replica }, format!("up m{k}")),
            (
                FlightEvent::Election { replica, round: round as u64 },
                format!("elect m{k} r={round}"),
            ),
            (
                FlightEvent::Coordinator { replica, term: term.as_u64() },
                format!("coord m{k} t={term}"),
            ),
            (
                FlightEvent::Stepdown { replica, term: newer.as_u64() },
                format!("stepdown m{k} t={newer}"),
            ),
            (
                FlightEvent::EpochPublished {
                    replica,
                    term: epoch.term,
                    seq: epoch.seq,
                    ok: sent,
                    cut,
                },
                format!("pub m{k} e={term}:{} ok={sent} cut={cut}", epoch.seq),
            ),
            (
                FlightEvent::EpochRejected {
                    server: i as u32,
                    term: epoch.term,
                    seq: epoch.seq,
                    have_term: have.term,
                    have_seq: have.seq,
                },
                format!("reject s{i} e={epoch} have={have}"),
            ),
            (
                FlightEvent::Reconcile { replica, seq: e.seq },
                format!("reconcile m{k} seq={}", e.seq),
            ),
            (FlightEvent::MigrationStart { vm: 10, from: 0, to: 1 }, m("start")),
            (FlightEvent::MigrationStopCopy { vm: 10, from: 0, to: 1 }, m("stopcopy")),
            (FlightEvent::MigrationComplete { vm: 10, from: 0, to: 1 }, m("done")),
        ];
        for (event, legacy) in cases {
            assert_eq!(event.to_string(), legacy);
        }
        // The values the goldens carry, spelled out.
        let golden = FlightEvent::EpochRejected {
            server: 0,
            term: Term { round: 1, owner: 0 }.as_u64(),
            seq: 1,
            have_term: Term { round: 2, owner: 1 }.as_u64(),
            have_seq: 3,
        };
        assert_eq!(golden.to_string(), "reject s0 e=1/0.1 have=2/1.3");
    }

    #[test]
    fn publishes_reach_the_trace_only_when_a_server_was_cut_off() {
        let scenario = FaultScenario::named("desync-s1").rule(
            FaultRule::new("desync-s1", FaultKind::DesyncPlacement { intervals: 1 })
                .on_server(1)
                .window(SimTime::from_secs(6), SimTime::from_secs(7)),
        );
        let spec = ControlPlaneSpec { trace_events: true, ..ControlPlaneSpec::default() };
        let cloud = cloud_with_vm();
        let mut p = plane(spec, scenario, 2);
        p.attach_flight(16);
        let term = Term { round: 1, owner: 0 }.as_u64();
        // Every server reachable: the publish is observed, not traced.
        p.begin_interval(SimTime::from_secs(5), &cloud);
        assert_eq!(p.drain_events().count(), 0);
        // s1's placement link is down: the publish is traced.
        p.begin_interval(SimTime::from_secs(6), &cloud);
        let cut = FlightEvent::EpochPublished { replica: 0, term, seq: 2, ok: 1, cut: 1 };
        assert_eq!(p.drain_events().collect::<Vec<_>>(), [(SimTime::from_secs(6), cut)]);
        let recorded: Vec<FlightEvent> =
            p.flight().expect("recorder attached").iter().map(|r| r.event).collect();
        assert_eq!(
            recorded,
            [FlightEvent::EpochPublished { replica: 0, term, seq: 1, ok: 2, cut: 0 }, cut]
        );
        assert_eq!(recorded[0].to_string(), "pub m0 e=1/0:1 ok=2 cut=0");
    }

    #[test]
    fn loopback_publish_applies_at_the_sampling_instant() {
        let mut cloud = cloud_with_vm();
        let mut nms = agents(2);
        let mut p = plane(ControlPlaneSpec::default(), FaultScenario::default(), 2);
        let term = Term { round: 1, owner: 0 };
        let t = SimTime::from_secs(5);
        p.begin_interval(t, &cloud);
        p.tick(t, &mut cloud, &mut nms);
        assert_eq!(p.coordinators(), vec![(0, term)]);
        for nm in &nms {
            assert_eq!(nm.last_epoch(), Some(PlacementEpoch { term: term.as_u64(), seq: 1 }));
        }
        // Each interval bumps the publish sequence; acks flow back without
        // disturbing the coordinator's counter.
        let t2 = t.saturating_add(SAMPLE);
        p.begin_interval(t2, &cloud);
        p.tick(t2, &mut cloud, &mut nms);
        assert_eq!(nms[0].last_epoch(), Some(PlacementEpoch { term: term.as_u64(), seq: 2 }));
        assert_eq!(p.replicas()[0].seq, 2);
        assert_eq!(p.net_stats().dropped, 0);
    }

    #[test]
    fn coordinator_outage_elects_standby_and_heal_steps_the_stale_one_down() {
        let scenario = FaultScenario::named("m0-outage").rule(
            FaultRule::new("down-m0", FaultKind::DownReplica)
                .on_server(0)
                .window(SimTime::from_secs(10), SimTime::from_secs(40)),
        );
        let spec = ControlPlaneSpec { managers: 3, ..ControlPlaneSpec::default() };
        let mut cloud = cloud_with_vm();
        let mut nms = agents(1);
        let mut p = plane(spec, scenario, 1);
        let mut standby_coronated_at = None;
        let mut t = SimTime::ZERO;
        while t <= SimTime::from_secs(60) {
            if t.as_micros().is_multiple_of(SAMPLE.as_micros()) {
                p.begin_interval(t, &cloud);
            }
            p.tick(t, &mut cloud, &mut nms);
            let coords = p.coordinators();
            // Safety: live coordinators never share a term.
            for (i, (_, ta)) in coords.iter().enumerate() {
                for (_, tb) in &coords[i + 1..] {
                    assert_ne!(ta, tb, "two live coordinators share term {ta} at {t:?}");
                }
            }
            if standby_coronated_at.is_none() && coords.iter().any(|&(id, _)| id == 1) {
                standby_coronated_at = Some(t);
            }
            t = t.saturating_add(TICK);
        }
        // Liveness: the best standby won within a handful of heartbeat
        // intervals of the outage.
        let at = standby_coronated_at.expect("m1 must take over");
        assert!(at < SimTime::from_secs(17), "failover took too long: {:?}", at);
        // After heal the stale coordinator has been corrected.
        let coords = p.coordinators();
        assert_eq!(coords.len(), 1, "exactly one live coordinator after heal: {coords:?}");
        assert_eq!(coords[0].0, 1);
        assert!(coords[0].1.round >= 2);
        assert_eq!(p.replicas()[0].role, Role::Follower, "healed m0 must have stepped down");
        // Placement epochs moved to the new coordinator's term and servers
        // kept receiving updates.
        let last = nms[0].last_epoch().expect("placement must keep flowing");
        assert_eq!(last.term, coords[0].1.as_u64());
        assert!(last.seq >= 10, "the new coordinator kept publishing: {last}");
    }

    #[test]
    fn stall_and_desync_windows_shape_delivery_like_the_old_node_faults() {
        let scenario = FaultScenario::named("cp-windows")
            .rule(
                FaultRule::new("stall-s0", FaultKind::StallManager { intervals: 3 })
                    .on_server(0)
                    .window(SimTime::from_secs(5), SimTime::from_secs(6)),
            )
            .rule(
                FaultRule::new("desync-s1", FaultKind::DesyncPlacement { intervals: 2 })
                    .on_server(1)
                    .window(SimTime::from_secs(5), SimTime::from_secs(6)),
            );
        let mut cloud = cloud_with_vm();
        let mut nms = agents(2);
        let mut p = plane(ControlPlaneSpec::default(), scenario, 2);
        let term = Term { round: 1, owner: 0 }.as_u64();
        for k in 0..=3u64 {
            let t = SimTime::from_secs(5 + k);
            p.begin_interval(t, &cloud);
            p.tick(t, &mut cloud, &mut nms);
            match k {
                // Window opens: s0 stalled (delivery dropped on the floor),
                // s1's placement link down (publish suppressed).
                0..=1 => {
                    assert!(p.stalled(0, t));
                    assert_eq!(nms[0].last_epoch(), None);
                    assert_eq!(nms[1].last_epoch(), None);
                }
                // Desync heals after 2 intervals; the stall lasts 3.
                2 => {
                    assert!(p.stalled(0, t));
                    assert!(!p.link_down(1, t));
                    assert_eq!(nms[0].last_epoch(), None);
                    assert_eq!(nms[1].last_epoch(), Some(PlacementEpoch { term, seq: 3 }));
                }
                _ => {
                    assert!(!p.stalled(0, t));
                    assert_eq!(nms[0].last_epoch(), Some(PlacementEpoch { term, seq: 4 }));
                    assert_eq!(nms[1].last_epoch(), Some(PlacementEpoch { term, seq: 4 }));
                }
            }
        }
        // A restart clears the stall window, like a crashed process losing
        // its freeze.
        p.clear_stall(0);
        assert!(!p.stalled(0, SimTime::from_secs(7)));
    }

    #[test]
    fn flight_recorder_captures_failover_without_changing_it() {
        let scenario = || {
            FaultScenario::named("m0-outage").rule(
                FaultRule::new("down-m0", FaultKind::DownReplica)
                    .on_server(0)
                    .window(SimTime::from_secs(10), SimTime::from_secs(40)),
            )
        };
        let spec = ControlPlaneSpec { managers: 3, ..ControlPlaneSpec::default() };
        let run = |observe: bool| {
            let mut cloud = cloud_with_vm();
            let mut nms = agents(1);
            let mut p = plane(spec.clone(), scenario(), 1);
            if observe {
                p.attach_flight(1024);
            }
            let mut t = SimTime::ZERO;
            while t <= SimTime::from_secs(60) {
                if t.as_micros().is_multiple_of(SAMPLE.as_micros()) {
                    p.begin_interval(t, &cloud);
                }
                p.tick(t, &mut cloud, &mut nms);
                t = t.saturating_add(TICK);
            }
            (p, nms[0].last_epoch())
        };
        let (plain, epoch_plain) = run(false);
        let (observed, epoch_obs) = run(true);
        // Pure observation: identical outcome with the recorder on.
        assert_eq!(epoch_plain, epoch_obs);
        assert_eq!(plain.net_stats(), observed.net_stats());
        assert_eq!(plain.coordinators(), observed.coordinators());
        // The recorder tells the whole failover story.
        let fl = observed.flight().expect("plane recorder attached");
        let saw = |pred: fn(&FlightEvent) -> bool| fl.iter().any(|r| pred(&r.event));
        assert!(saw(|e| matches!(e, FlightEvent::ReplicaDown { replica: 0 })));
        assert!(saw(|e| matches!(e, FlightEvent::ReplicaUp { replica: 0 })));
        assert!(saw(|e| matches!(e, FlightEvent::Election { replica: 1, .. })));
        assert!(saw(|e| matches!(e, FlightEvent::Coordinator { replica: 1, .. })));
        assert!(saw(|e| matches!(e, FlightEvent::EpochPublished { replica: 1, .. })));
        let net = observed.net_flight().expect("net recorder attached");
        assert!(net.iter().any(|r| matches!(r.event, FlightEvent::MsgSend { .. })));
        // Messages to the downed replica are dropped at dispatch, not on the
        // link, so drops here only appear under partitions/faults — none.
        assert!(net.total_recorded() > 0);
    }

    #[test]
    fn restarted_coordinator_reconciliation_is_recorded_and_traced() {
        // A lone replica bounces: its volatile publish counter restarts at
        // 1, the server rejects the stale publish, and the ack fast-forwards
        // the counter. Both the rejection and the fast-forward must reach
        // the flight ring and the trace queue.
        let scenario = FaultScenario::named("restart").rule(
            FaultRule::new("bounce-m0", FaultKind::DownReplica)
                .on_server(0)
                .window(SimTime::from_secs(12), SimTime::from_secs(23)),
        );
        let spec = ControlPlaneSpec {
            link: LinkSpec {
                latency: SimDuration::from_micros(300_000),
                jitter: SimDuration::ZERO,
            },
            trace_events: true,
            ..ControlPlaneSpec::default()
        };
        let mut cloud = cloud_with_vm();
        let mut nms = agents(1);
        let mut p = plane(spec, scenario, 1);
        p.attach_flight(1024);
        let mut traced = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= SimTime::from_secs(40) {
            if t.as_micros().is_multiple_of(SAMPLE.as_micros()) {
                p.begin_interval(t, &cloud);
            }
            p.tick(t, &mut cloud, &mut nms);
            traced.extend(p.drain_events().map(|(_, e)| e));
            t = t.saturating_add(TICK);
        }
        let reconciled = |e: &FlightEvent| matches!(e, FlightEvent::Reconcile { replica: 0, .. });
        let rejected =
            |e: &FlightEvent| matches!(e, FlightEvent::EpochRejected { server: 0, seq: 1, .. });
        let fl = p.flight().expect("plane recorder attached");
        assert!(fl.iter().any(|r| rejected(&r.event)), "the stale publish must be rejected");
        let Some(rec) = fl.iter().find(|r| reconciled(&r.event)) else {
            panic!("the ack-driven fast-forward must be flight-recorded");
        };
        let FlightEvent::Reconcile { seq, .. } = rec.event else { unreachable!() };
        assert!(seq > 1, "reconciliation adopts the applied sequence: {seq}");
        assert!(traced.iter().any(reconciled));
        assert!(traced.iter().any(rejected));
    }
}
