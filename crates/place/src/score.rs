//! Usage-vector scoring: VUPIC-style complementary-resource affinity plus
//! an interference-penalty term fed by identify history.
//!
//! Every VM gets a demand profile normalized per resource dimension; a
//! destination server is scored by how little its aggregate load conflicts
//! with the candidate's profile. Two disk-hungry VMs conflict; a
//! disk-hungry VM and a CPU-hungry VM are complementary and pack well —
//! the VUPIC placement rule. On top of that, VMs with a history of
//! identified interference carry a decayed penalty that the migration rule
//! uses to move them away from protected applications.

use perfcloud_host::VmId;
use std::collections::BTreeMap;

/// A VM's (or server's aggregate) demand profile, one entry per resource
/// dimension, each normalized to the server's capacity (so values are
/// roughly in `[0, 1]` but may exceed 1 under overload).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UsageVector {
    /// CPU demand as a fraction of the server's cores.
    pub cpu: f64,
    /// Disk demand as a fraction of the device's sequential bandwidth.
    pub disk: f64,
    /// Network demand as a fraction of link bandwidth. The current
    /// testbed models no guest networking, so experiment drivers feed 0
    /// here; the dimension exists so the scoring model matches VUPIC's
    /// three-axis usage vectors and picks up a real signal the moment the
    /// host model grows one.
    pub net: f64,
}

impl UsageVector {
    /// A profile from raw observed usage and the capacities to normalize
    /// against. Non-finite or negative inputs clamp to zero.
    pub fn normalized(
        cpu_cores: f64,
        total_cores: f64,
        disk_bps: f64,
        disk_capacity_bps: f64,
    ) -> Self {
        let frac = |used: f64, cap: f64| {
            if used.is_finite() && used > 0.0 && cap > 0.0 {
                used / cap
            } else {
                0.0
            }
        };
        UsageVector {
            cpu: frac(cpu_cores, total_cores),
            disk: frac(disk_bps, disk_capacity_bps),
            net: 0.0,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &UsageVector) -> UsageVector {
        UsageVector {
            cpu: self.cpu + other.cpu,
            disk: self.disk + other.disk,
            net: self.net + other.net,
        }
    }
}

/// How strongly two profiles compete for the same resources: the dot
/// product of the two vectors. Zero when the profiles are complementary
/// (disjoint dominant resources), large when both hammer the same
/// dimension.
pub fn conflict(a: &UsageVector, b: &UsageVector) -> f64 {
    a.cpu * b.cpu + a.disk * b.disk + a.net * b.net
}

/// One candidate destination's current state, as the scorer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerLoad {
    /// Aggregate demand profile of the VMs already hosted there.
    pub usage: UsageVector,
    /// Number of hosted VMs (crowding term).
    pub vms: usize,
    /// Whether a high-priority application runs there (antagonist-aware
    /// placement keeps penalized VMs off protected servers).
    pub protected: bool,
}

/// Weight of the crowding term: a mild preference for emptier servers so
/// equal-conflict candidates spread instead of piling onto one host.
const CROWDING_WEIGHT: f64 = 0.01;

/// Weight of the interference penalty when the destination hosts a
/// protected application. Large enough that any identify history
/// dominates the complementarity terms.
const PROTECTED_PENALTY_WEIGHT: f64 = 10.0;

/// Affinity of placing a VM with profile `vm` (and decayed interference
/// penalty `penalty`) onto a server in state `load`. Higher is better.
/// The score combines VUPIC complementarity (low conflict with the
/// resident load), a mild crowding term, and — only for protected
/// servers — the interference penalty.
pub fn affinity(vm: &UsageVector, penalty: f64, load: &ServerLoad) -> f64 {
    let mut score = -conflict(vm, &load.usage) - CROWDING_WEIGHT * load.vms as f64;
    if load.protected {
        score -= PROTECTED_PENALTY_WEIGHT * penalty;
    }
    score
}

/// Decayed ledger of identify verdicts per VM: every interval a VM is
/// fingered as an antagonist adds one unit of penalty; every interval
/// without a verdict decays all penalties geometrically. Deterministic
/// (BTreeMap order) and bounded: fully decayed entries are dropped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InterferenceHistory {
    penalties: BTreeMap<VmId, f64>,
}

/// Per-interval geometric decay factor. At one verdict per interval the
/// penalty saturates near `1 / (1 - DECAY) = 5`; after a verdict stops,
/// it halves roughly every three intervals.
const DECAY: f64 = 0.8;

/// Penalties below this are dropped from the ledger entirely.
const FLOOR: f64 = 1e-3;

impl InterferenceHistory {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one identify verdict against `vm`.
    pub fn record_verdict(&mut self, vm: VmId) {
        *self.penalties.entry(vm).or_insert(0.0) += 1.0;
    }

    /// Applies one interval's decay to every ledger entry.
    pub fn decay(&mut self) {
        self.penalties.retain(|_, p| {
            *p *= DECAY;
            *p >= FLOOR
        });
    }

    /// Current penalty of `vm` (0 if never fingered or fully decayed).
    pub fn penalty(&self, vm: VmId) -> f64 {
        self.penalties.get(&vm).copied().unwrap_or(0.0)
    }

    /// Forgets a VM entirely (e.g. after it was migrated away — its
    /// history belonged to the old colocation).
    pub fn forget(&mut self, vm: VmId) {
        self.penalties.remove(&vm);
    }

    /// Number of VMs with live penalties.
    pub fn len(&self) -> usize {
        self.penalties.len()
    }

    /// True when no VM carries a penalty.
    pub fn is_empty(&self) -> bool {
        self.penalties.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_clamps_junk() {
        let v = UsageVector::normalized(f64::NAN, 48.0, -5.0, 4e8);
        assert_eq!(v, UsageVector::default());
        let v = UsageVector::normalized(24.0, 48.0, 2e8, 4e8);
        assert!((v.cpu - 0.5).abs() < 1e-12 && (v.disk - 0.5).abs() < 1e-12);
    }

    #[test]
    fn complementary_profiles_do_not_conflict() {
        let cpu_hog = UsageVector { cpu: 0.9, disk: 0.0, net: 0.0 };
        let disk_hog = UsageVector { cpu: 0.0, disk: 0.9, net: 0.0 };
        assert_eq!(conflict(&cpu_hog, &disk_hog), 0.0);
        assert!(conflict(&disk_hog, &disk_hog) > 0.5);
    }

    #[test]
    fn affinity_prefers_complementary_and_empty_servers() {
        let vm = UsageVector { cpu: 0.1, disk: 0.8, net: 0.0 };
        let disk_loaded = ServerLoad {
            usage: UsageVector { disk: 0.9, ..Default::default() },
            vms: 5,
            protected: false,
        };
        let cpu_loaded = ServerLoad {
            usage: UsageVector { cpu: 0.9, ..Default::default() },
            vms: 5,
            protected: false,
        };
        let empty = ServerLoad::default();
        assert!(affinity(&vm, 0.0, &cpu_loaded) > affinity(&vm, 0.0, &disk_loaded));
        assert!(affinity(&vm, 0.0, &empty) > affinity(&vm, 0.0, &cpu_loaded));
    }

    #[test]
    fn penalty_only_bites_on_protected_servers() {
        let vm = UsageVector { disk: 0.5, ..Default::default() };
        let open = ServerLoad { protected: false, ..Default::default() };
        let protected_ = ServerLoad { protected: true, ..Default::default() };
        assert_eq!(affinity(&vm, 3.0, &open), affinity(&vm, 0.0, &open));
        assert!(affinity(&vm, 3.0, &protected_) < affinity(&vm, 0.0, &protected_) - 1.0);
    }

    #[test]
    fn history_accumulates_decays_and_forgets() {
        let mut h = InterferenceHistory::new();
        assert!(h.is_empty());
        h.record_verdict(VmId(7));
        h.record_verdict(VmId(7));
        h.record_verdict(VmId(3));
        assert_eq!(h.penalty(VmId(7)), 2.0);
        assert_eq!(h.len(), 2);
        h.decay();
        assert!((h.penalty(VmId(7)) - 1.6).abs() < 1e-12);
        // Decay eventually drops entries entirely.
        for _ in 0..60 {
            h.decay();
        }
        assert!(h.is_empty(), "fully decayed entries must be dropped");
        h.record_verdict(VmId(3));
        h.forget(VmId(3));
        assert_eq!(h.penalty(VmId(3)), 0.0);
    }
}
