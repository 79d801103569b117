//! End-to-end control-plane failover: a replicated cloud manager dies
//! mid-run and the Bully handover must keep placement-synchronized
//! mitigation inside the bounded-staleness budget.

use perfcloud::cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
    TraceEntry,
};
use perfcloud::core::{NodeManager, PerfCloudConfig};
use perfcloud::ctrl::{ControlPlaneSpec, LinkSpec};
use perfcloud::frameworks::Benchmark;
use perfcloud::obs::FlightEvent;
use perfcloud::sim::faults::{FaultKind, FaultRule, FaultScenario};
use perfcloud::sim::{SimDuration, SimTime};

/// Terasort under a fio antagonist on the golden chaos testbed.
fn contended_config(mitigation: Mitigation) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(ClusterSpec::small_scale(42), mitigation);
    cfg.jobs.push((SimTime::from_secs(5), Benchmark::Terasort.job(20)));
    cfg.antagonists = vec![
        AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(SimTime::from_secs(15))
    ];
    cfg.max_sim_time = SimTime::from_secs(3_600);
    cfg
}

/// Three replicas over a 300 ms link; slow heartbeats so the outage opens a
/// real staleness window before the standby takes over.
fn replicated_control() -> ControlPlaneSpec {
    ControlPlaneSpec {
        managers: 3,
        heartbeat_interval: SimDuration::from_secs(2.0),
        heartbeat_timeout: 4,
        // Must exceed the 600 ms answer round trip, or an outranked
        // candidate crowns itself before the better replica's answer lands.
        election_timeout: SimDuration::from_micros(800_000),
        link: LinkSpec { latency: SimDuration::from_micros(300_000), jitter: SimDuration::ZERO },
        ..ControlPlaneSpec::default()
    }
}

#[test]
fn coordinator_failover_keeps_mitigation_inside_the_staleness_budget() {
    let contended = Experiment::build(contended_config(Mitigation::Default)).run().sole_jct();

    let mut cfg = contended_config(Mitigation::PerfCloud(PerfCloudConfig::default()));
    cfg.control = replicated_control();
    // The bootstrap coordinator dies at t=20 and never comes back.
    cfg.faults = Some(
        FaultScenario::named("coordinator-outage").rule(
            FaultRule::new("down-m0", FaultKind::DownReplica)
                .on_server(0)
                .window(SimTime::from_secs(20), SimTime::from_secs(3_600)),
        ),
    );
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    let protected = e.run().sole_jct();

    // The handover happened: the bootstrap replica is down, the best
    // standby is the sole live coordinator, and every node manager's last
    // applied placement came from the standby's term.
    assert!(e.plane.is_down(0), "m0 must still be down at the end of the run");
    let coords = e.plane.coordinators();
    assert_eq!(coords.len(), 1, "exactly one live coordinator: {coords:?}");
    assert_eq!(coords[0].0, 1, "the best standby (m1) must win: {coords:?}");
    let term = coords[0].1;
    for (i, nm) in e.node_managers.iter().enumerate() {
        let epoch = nm.last_epoch().expect("placement reached every server");
        assert_eq!(
            epoch.term,
            term.as_u64(),
            "server {i} last applied epoch {epoch:?} is not from the standby's term {term}"
        );
    }

    // The outage opened a staleness window (the sync path really went over
    // the wire), but the window closed within the bounded-staleness budget,
    // so mitigation never disengaged.
    let trace = e.decision_trace().expect("trace enabled");
    let mut stale_intervals = 0u32;
    let mut longest_run = 0u32;
    let mut run = 0u32;
    for step in trace.steps() {
        if step.placement_stale {
            stale_intervals += 1;
            run += 1;
            longest_run = longest_run.max(run);
        } else {
            run = 0;
        }
    }
    assert!(stale_intervals > 0, "the outage must open a staleness window");
    assert!(
        longest_run < NodeManager::MAX_PLACEMENT_STALENESS,
        "placement went stale for {longest_run} consecutive intervals — mitigation \
         would have disengaged at {}",
        NodeManager::MAX_PLACEMENT_STALENESS
    );

    // And mitigation kept working through the handover.
    assert!(
        protected < contended,
        "PerfCloud with a mid-run coordinator failover must still beat the \
         unmitigated run: {protected} !< {contended}"
    );
}

#[test]
fn restarted_coordinator_cannot_regress_applied_epochs() {
    // A single replica crashes and restarts mid-run. Its volatile publish
    // counter restarts at 1, so its first post-restart update carries an
    // older epoch than the servers have applied; they must ignore it (and
    // the ack-driven reconciliation then fast-forwards the counter).
    let mut cfg = contended_config(Mitigation::PerfCloud(PerfCloudConfig::default()));
    cfg.control = ControlPlaneSpec {
        link: LinkSpec { latency: SimDuration::from_micros(300_000), jitter: SimDuration::ZERO },
        trace_events: true,
        ..ControlPlaneSpec::default()
    };
    cfg.faults = Some(
        FaultScenario::named("restart").rule(
            FaultRule::new("bounce-m0", FaultKind::DownReplica)
                .on_server(0)
                .window(SimTime::from_secs(12), SimTime::from_secs(23)),
        ),
    );
    let mut e = Experiment::build(cfg);
    e.enable_decision_trace();
    let mut epochs = Vec::new();
    while !e.drained() {
        e.step_tick();
        if let Some(epoch) = e.node_managers[0].last_epoch() {
            epochs.push(epoch);
        }
    }
    // Monotone despite the regression attempt...
    assert!(epochs.windows(2).all(|w| w[0] <= w[1]), "applied epochs regressed");
    // ...which did happen: the trace shows the rejected stale publish, and
    // the reconciled counter then advanced past the pre-crash sequence.
    let trace = e.decision_trace().expect("trace enabled");
    assert!(
        trace.lines().iter().any(|entry| matches!(
            entry,
            TraceEntry::Ctrl(_, FlightEvent::EpochRejected { server: 0, .. })
        )),
        "the restarted coordinator's stale publish must be rejected"
    );
    let last = *epochs.last().expect("placement applied");
    let highest_before_crash =
        epochs.iter().filter(|e| e.seq <= 3).map(|e| e.seq).max().unwrap_or(0);
    assert!(
        last.seq > highest_before_crash,
        "reconciliation must fast-forward the publish counter past the \
         pre-crash sequence: {last:?}"
    );
}
