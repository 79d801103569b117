//! Integration tests of the PerfCloud pipeline's control dynamics.

use perfcloud_core::{
    AppId, CloudManager, NodeManager, PerfCloudConfig, Placement, PlacementEpoch, StepReport,
    VmRecord,
};
use perfcloud_host::{PhysicalServer, Priority, ServerConfig, ServerId, VmConfig, VmId};
use perfcloud_sim::{RngFactory, SimDuration, SimTime};
use perfcloud_workloads::FioRandRead;

const DT: SimDuration = SimDuration::from_micros(100_000);

struct Rig {
    server: PhysicalServer,
    cloud: CloudManager,
    nm: NodeManager,
    now: SimTime,
}

fn rig(victims: u32) -> Rig {
    let mut server =
        PhysicalServer::new(ServerId(0), ServerConfig::chameleon(), RngFactory::new(77), DT);
    let mut cloud = CloudManager::new();
    for i in 0..victims {
        let vm = VmId(i);
        server.add_vm(vm, VmConfig::high_priority());
        server.spawn(vm, Box::new(FioRandRead::with_rate(800.0, 4096.0, None)));
        cloud.register(
            vm,
            VmRecord { server: ServerId(0), priority: Priority::High, app: Some(AppId(1)) },
        );
    }
    server.add_vm(VmId(50), VmConfig::low_priority());
    cloud.register(VmId(50), VmRecord { server: ServerId(0), priority: Priority::Low, app: None });
    Rig { server, cloud, nm: NodeManager::new(PerfCloudConfig::default()), now: SimTime::ZERO }
}

impl Rig {
    fn intervals(&mut self, n: usize) {
        for _ in 0..n {
            for _ in 0..50 {
                self.server.tick(DT);
            }
            self.now += SimDuration::from_secs(5.0);
            self.loopback_step();
        }
    }

    /// One interval as the control plane's zero-latency loopback runs it:
    /// the registry's view is applied at a fresh epoch, the agent steps,
    /// and its colocation notices go straight to the cloud manager.
    fn loopback_step(&mut self) {
        let mut view = Placement::default();
        self.cloud.placement_into(self.server.id, &mut view);
        let epoch = PlacementEpoch { term: 1, seq: self.now.as_micros() };
        self.nm.apply_placement(self.now, epoch, &view);
        self.nm.step_synced(self.now, &mut self.server, false, &mut StepReport::default());
        while let Some(apps) = self.nm.take_colocation_notice() {
            self.cloud.notify_colocation(self.server.id, apps);
        }
    }

    fn start_antagonist(&mut self) {
        self.server.spawn(VmId(50), Box::new(FioRandRead::new(None).with_modulation(3)));
    }
}

#[test]
fn control_is_persistent_across_quiet_periods() {
    // Algorithm 1: once identified, the antagonist stays under CUBIC
    // control — the cap probes up during quiet periods instead of being
    // released, so the next contention event throttles it instantly
    // without re-identification.
    let mut r = rig(6);
    r.intervals(3);
    r.start_antagonist();
    r.intervals(30);
    let trace = r.nm.io_cap_trace(VmId(50)).expect("antagonist was controlled");
    assert!(
        trace.len() >= 20,
        "control must persist, not release: only {} cap samples",
        trace.len()
    );
    let caps: Vec<f64> = trace.values().iter().filter_map(|v| *v).collect();
    let ceiling = PerfCloudConfig::default().release_level;
    assert!(caps.iter().all(|&c| c <= ceiling + 1e-9), "caps bounded by the probe ceiling");
    // The cap visits both throttled and non-binding levels (the limit cycle).
    assert!(caps.iter().any(|&c| c < 0.5));
    assert!(caps.iter().any(|&c| c > 1.0));
}

#[test]
fn no_throttle_is_ever_applied_without_an_antagonist() {
    let mut r = rig(6);
    r.intervals(20);
    assert!(r.nm.io_cap_trace(VmId(50)).is_none());
    assert!(!r.server.io_throttle(VmId(50)).unwrap().is_throttled());
}

#[test]
fn deregistered_vm_is_dropped_from_control() {
    let mut r = rig(6);
    r.intervals(3);
    r.start_antagonist();
    r.intervals(10);
    assert!(r.nm.io_cap_trace(VmId(50)).is_some(), "precondition: control engaged");
    // The VM disappears from the registry (teardown / migration).
    r.cloud.deregister(VmId(50));
    let before = r.nm.io_cap_trace(VmId(50)).map(|t| t.len()).unwrap_or(0);
    r.intervals(5);
    let after = r.nm.io_cap_trace(VmId(50)).map(|t| t.len()).unwrap_or(0);
    assert_eq!(before, after, "no further caps applied to a deregistered VM");
}

#[test]
fn two_victim_vms_are_the_minimum_for_detection() {
    // With a single app VM the deviation is undefined; PerfCloud must not
    // fire (and must not panic).
    let mut r = rig(1);
    r.start_antagonist();
    r.intervals(10);
    assert!(r.nm.io_cap_trace(VmId(50)).is_none());
}
