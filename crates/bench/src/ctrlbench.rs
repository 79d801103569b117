//! Control-plane throughput probe.
//!
//! Drives a full [`ControlPlane`] — three cloud-manager replicas, sixteen
//! server endpoints, a 10 ms ± 2 ms link — through placement publishes,
//! acks and heartbeats over simulated time, and reports **delivered
//! control-plane messages per wall-clock second** into `BENCH_ctrl.json`.
//! The sampling cadence is cranked far above the production default so the
//! measurement is dominated by the message path (network wheel, jitter
//! hashing, epoch stamping, placement apply) rather than by idle ticks.
//! `msgs_per_sec` is the regression-gated headline number.

use crate::benchjson::BenchRecord;
use perfcloud_core::{AppId, CloudManager, NodeManager, PerfCloudConfig, VmRecord};
use perfcloud_ctrl::{ControlPlane, ControlPlaneSpec, LinkSpec};
use perfcloud_host::{Priority, ServerId, VmId};
use perfcloud_sim::faults::FaultScenario;
use perfcloud_sim::{SimDuration, SimTime};
use std::time::Instant;

/// Cloud-manager replicas in the probe deployment.
const MANAGERS: u32 = 3;
/// Server endpoints receiving placement updates.
const SERVERS: usize = 16;
/// VMs registered per server (sets the size of each placement payload).
const VMS_PER_SERVER: u32 = 2;
/// Tick driving delivery and replica timers.
const TICK: SimDuration = SimDuration::from_micros(10_000);
/// Placement publish cadence (50× the production 5 s default).
const SAMPLE: SimDuration = SimDuration::from_micros(100_000);
/// Simulated horizon (long enough for ~0.3 s of wall time, so the gate
/// compares stable averages rather than timer noise).
const HORIZON: SimTime = SimTime::from_secs(3600);

/// Runs the probe and returns the record (not yet written to disk).
pub fn probe() -> BenchRecord {
    let spec = ControlPlaneSpec {
        managers: MANAGERS,
        link: LinkSpec {
            latency: SimDuration::from_micros(10_000),
            jitter: SimDuration::from_micros(2_000),
        },
        ..ControlPlaneSpec::default()
    };
    let mut cloud = CloudManager::new();
    for s in 0..SERVERS as u32 {
        for v in 0..VMS_PER_SERVER {
            cloud.register(
                VmId(s * VMS_PER_SERVER + v),
                VmRecord {
                    server: ServerId(s),
                    priority: if v == 0 { Priority::High } else { Priority::Low },
                    app: (v == 0).then_some(AppId(s)),
                },
            );
        }
    }
    let mut nms: Vec<NodeManager> =
        (0..SERVERS).map(|_| NodeManager::new(PerfCloudConfig::default())).collect();
    let ids = (0..SERVERS).map(|i| ServerId(i as u32)).collect();
    let mut plane = ControlPlane::new(spec, 0xC7B1, FaultScenario::default(), ids, SAMPLE);

    let start = Instant::now();
    let mut now = SimTime::ZERO;
    let mut next_sample = SimTime::ZERO;
    while now <= HORIZON {
        if now >= next_sample {
            plane.begin_interval(now, &cloud);
            next_sample = next_sample.saturating_add(SAMPLE);
        }
        plane.tick(now, &mut cloud, &mut nms);
        now = now.saturating_add(TICK);
    }
    let wall_seconds = start.elapsed().as_secs_f64();

    let stats = plane.net_stats();
    let mut record = BenchRecord::wall("ctrl", wall_seconds);
    record.extras.push(("messages_sent".into(), stats.sent as f64));
    record.extras.push(("messages_delivered".into(), stats.delivered as f64));
    record.extras.push(("msgs_per_sec".into(), stats.delivered as f64 / wall_seconds));
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_counts_and_gated_field_are_wired() {
        let record = probe();
        let sent = extra(&record, "messages_sent");
        let delivered = extra(&record, "messages_delivered");
        // Publishes alone: one update per server per interval, each acked.
        let intervals = (HORIZON.as_micros() / SAMPLE.as_micros() + 1) as f64;
        assert!(sent >= intervals * SERVERS as f64 * 2.0, "sent {sent} over {intervals} intervals");
        // A loss-free link delivers everything that was in flight.
        assert!(delivered >= sent * 0.99, "delivered {delivered} of {sent}");
        assert!(extra(&record, "msgs_per_sec") > 0.0);
        assert!(record.to_json().contains("\"msgs_per_sec\""));
    }

    fn extra(record: &BenchRecord, key: &str) -> f64 {
        record
            .extras
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing extra {key}"))
    }
}
