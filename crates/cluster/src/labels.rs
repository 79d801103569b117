//! Ground-truth labels for accuracy scoring.
//!
//! Antagonists and faults are *injected*, so the true answer to every
//! question a pipeline faces — which server was contended, on which
//! resource, by which VM, over which interval — is known exactly. This
//! module derives those labels from an experiment's antagonist placements
//! ([`GroundTruth`]); the accuracy harness in `perfcloud-bench` scores the
//! typed step rows of the run's [`DecisionTrace`] against them.
//!
//! [`DecisionTrace`]: crate::trace::DecisionTrace

use crate::antagonists::AntagonistKind;
use crate::experiment::Experiment;
use perfcloud_core::antagonist::Resource;
use perfcloud_host::VmId;

/// The resource a placed antagonist truly contends on, or `None` for
/// workloads injected as decoys / innocents that a correct pipeline should
/// *not* throttle: CPU-only compute (`SysbenchCpu`), individually-mild
/// STREAM, and low-rate fio whose submission rate is well inside the disk's
/// capacity.
pub fn truth_resource(kind: AntagonistKind) -> Option<Resource> {
    match kind {
        AntagonistKind::Fio => Some(Resource::Io),
        // A rate-limited fio only saturates the shared disk when the rate is
        // a contention-scale fraction of its capacity; below that it is an
        // innocent bystander doing light I/O.
        AntagonistKind::FioRate(rate) => (rate >= 1_000.0).then_some(Resource::Io),
        AntagonistKind::Stream | AntagonistKind::StreamThreads(_) => Some(Resource::Cpu),
        AntagonistKind::StreamMild => None,
        AntagonistKind::SysbenchOltp => Some(Resource::Io),
        AntagonistKind::SysbenchCpu => None,
    }
}

/// One labeled antagonist: who, where, what, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthEntry {
    /// The antagonist's VM.
    pub vm: VmId,
    /// Server index it was placed on.
    pub server: usize,
    /// The resource it truly contends, `None` for innocents.
    pub resource: Option<Resource>,
    /// Workload onset, simulated seconds.
    pub active_from: f64,
    /// Workload end, simulated seconds; `None` = whole run.
    pub active_until: Option<f64>,
}

impl TruthEntry {
    /// Whether the antagonist was active at `t` (seconds), counting `grace`
    /// seconds past its end as still active.
    pub fn active_at(&self, t: f64, grace: f64) -> bool {
        t >= self.active_from && self.active_until.is_none_or(|end| t <= end + grace)
    }
}

/// The complete injected-antagonist schedule of one experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    /// All labeled antagonists, in placement order.
    pub entries: Vec<TruthEntry>,
}

impl GroundTruth {
    /// Derives the labels from a built experiment's antagonist placements.
    /// Call on the built (or finished) experiment — placements are fixed at
    /// build time, so before/after makes no difference.
    pub fn from_experiment(experiment: &Experiment) -> Self {
        let entries = experiment
            .antagonist_vms()
            .iter()
            .map(|&(vm, p)| TruthEntry {
                vm,
                server: p.server_idx,
                resource: truth_resource(p.kind),
                active_from: p.start.as_secs_f64(),
                active_until: p.duration.map(|d| (p.start + d).as_secs_f64()),
            })
            .collect();
        GroundTruth { entries }
    }

    /// The guilty entries — those that truly contend some resource.
    pub fn culprits(&self) -> impl Iterator<Item = &TruthEntry> {
        self.entries.iter().filter(|e| e.resource.is_some())
    }

    /// Whether `vm` is a true antagonist for `resource` at time `t` on
    /// `server`, within `grace` seconds of its end.
    pub fn is_culprit(
        &self,
        server: usize,
        vm: VmId,
        resource: Resource,
        t: f64,
        grace: f64,
    ) -> bool {
        self.entries.iter().any(|e| {
            e.vm == vm
                && e.server == server
                && e.resource == Some(resource)
                && e.active_at(t, grace)
        })
    }

    /// Whether *any* antagonist truly contends `resource` on `server` at
    /// time `t`, within `grace` seconds of its end — the detection-level
    /// truth.
    pub fn server_contended(&self, server: usize, resource: Resource, t: f64, grace: f64) -> bool {
        self.entries
            .iter()
            .any(|e| e.server == server && e.resource == Some(resource) && e.active_at(t, grace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_resource_classification() {
        assert_eq!(truth_resource(AntagonistKind::Fio), Some(Resource::Io));
        assert_eq!(truth_resource(AntagonistKind::FioRate(20_000.0)), Some(Resource::Io));
        assert_eq!(truth_resource(AntagonistKind::FioRate(250.0)), None);
        assert_eq!(truth_resource(AntagonistKind::Stream), Some(Resource::Cpu));
        assert_eq!(truth_resource(AntagonistKind::StreamMild), None);
        assert_eq!(truth_resource(AntagonistKind::SysbenchCpu), None);
    }

    #[test]
    fn truth_entry_active_interval() {
        let e = TruthEntry {
            vm: VmId(10),
            server: 0,
            resource: Some(Resource::Io),
            active_from: 15.0,
            active_until: Some(165.0),
        };
        assert!(!e.active_at(10.0, 0.0));
        assert!(e.active_at(15.0, 0.0));
        assert!(e.active_at(165.0, 0.0));
        assert!(!e.active_at(170.0, 0.0));
        assert!(e.active_at(170.0, 5.0));
        assert!(!e.active_at(10.0, 100.0), "grace extends the end, not the onset");
        let forever = TruthEntry { active_until: None, ..e };
        assert!(forever.active_at(1.0e9, 0.0));
    }

    #[test]
    fn culprit_queries_respect_server_resource_and_time() {
        let truth = GroundTruth {
            entries: vec![
                TruthEntry {
                    vm: VmId(10),
                    server: 0,
                    resource: Some(Resource::Io),
                    active_from: 15.0,
                    active_until: None,
                },
                TruthEntry {
                    vm: VmId(11),
                    server: 0,
                    resource: None,
                    active_from: 0.0,
                    active_until: None,
                },
            ],
        };
        assert!(truth.is_culprit(0, VmId(10), Resource::Io, 20.0, 0.0));
        assert!(!truth.is_culprit(0, VmId(10), Resource::Io, 10.0, 0.0));
        assert!(!truth.is_culprit(0, VmId(10), Resource::Cpu, 20.0, 0.0));
        assert!(!truth.is_culprit(1, VmId(10), Resource::Io, 20.0, 0.0));
        assert!(!truth.is_culprit(0, VmId(11), Resource::Io, 20.0, 0.0));
        assert!(truth.server_contended(0, Resource::Io, 20.0, 0.0));
        assert!(!truth.server_contended(0, Resource::Cpu, 20.0, 0.0));
        assert_eq!(truth.culprits().count(), 1);
    }
}
