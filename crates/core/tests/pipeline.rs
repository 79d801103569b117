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
    /// Runs `n` sampling intervals (5 s each), returning their reports.
    fn intervals(&mut self, n: usize) -> Vec<StepReport> {
        (0..n)
            .map(|_| {
                for _ in 0..50 {
                    self.server.tick(DT);
                }
                self.now += SimDuration::from_secs(5.0);
                self.loopback_step()
            })
            .collect()
    }

    /// One interval as the control plane's zero-latency loopback runs it:
    /// the registry's view is applied at a fresh epoch, the agent steps,
    /// and its colocation notices go straight to the cloud manager.
    fn loopback_step(&mut self) -> StepReport {
        let mut view = Placement::default();
        self.cloud.placement_into(self.server.id, &mut view);
        let epoch = PlacementEpoch { term: 1, seq: self.now.as_micros() };
        self.nm.apply_placement(self.now, epoch, &view);
        let mut report = StepReport::default();
        self.nm.step_synced(self.now, &mut self.server, false, &mut report);
        while let Some(apps) = self.nm.take_colocation_notice() {
            self.cloud.notify_colocation(self.server.id, apps);
        }
        report
    }

    fn start_antagonist(&mut self) {
        self.server.spawn(VmId(50), Box::new(FioRandRead::new(None).with_modulation(3)));
    }
}

/// The I/O caps the reports applied to the antagonist (VM 50), in order.
fn antagonist_caps(reports: &[StepReport]) -> Vec<f64> {
    reports
        .iter()
        .flat_map(|r| r.io_caps.iter().filter(|&&(vm, _)| vm == VmId(50)).map(|&(_, cap)| cap))
        .collect()
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
    let caps = antagonist_caps(&r.intervals(30));
    assert!(caps.len() >= 20, "control must persist, not release: only {} cap samples", caps.len());
    let ceiling = PerfCloudConfig::default().release_level;
    assert!(caps.iter().all(|&c| c <= ceiling + 1e-9), "caps bounded by the probe ceiling");
    // The cap visits both throttled and non-binding levels (the limit cycle).
    assert!(caps.iter().any(|&c| c < 0.5));
    assert!(caps.iter().any(|&c| c > 1.0));
}

#[test]
fn no_throttle_is_ever_applied_without_an_antagonist() {
    let mut r = rig(6);
    assert!(antagonist_caps(&r.intervals(20)).is_empty());
    assert!(!r.server.io_throttle(VmId(50)).unwrap().is_throttled());
}

#[test]
fn deregistered_vm_is_dropped_from_control() {
    let mut r = rig(6);
    r.intervals(3);
    r.start_antagonist();
    let engaged = antagonist_caps(&r.intervals(10));
    assert!(!engaged.is_empty(), "precondition: control engaged");
    // The VM disappears from the registry (teardown / migration).
    r.cloud.deregister(VmId(50));
    let after = antagonist_caps(&r.intervals(5));
    assert!(after.is_empty(), "no further caps applied to a deregistered VM");
}

#[test]
fn two_victim_vms_are_the_minimum_for_detection() {
    // With a single app VM the deviation is undefined; PerfCloud must not
    // fire (and must not panic).
    let mut r = rig(1);
    r.start_antagonist();
    assert!(antagonist_caps(&r.intervals(10)).is_empty());
}
