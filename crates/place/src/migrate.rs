//! The live-migration cost model: iterative pre-copy with a
//! dirty-rate-driven geometric series, a hypervisor CPU tax on both ends,
//! and a final stop-and-copy stall.
//!
//! The model is the standard pre-copy analysis: round 0 transfers the
//! whole guest memory at link speed; each further round re-transfers the
//! pages dirtied during the previous round, shrinking geometrically by
//! `r = dirty_rate / link_bps`. After `precopy_rounds` rounds the VM is
//! frozen and the remaining dirty set is copied in the stop-and-copy
//! phase. Everything is computed once, up front, from static parameters —
//! no randomness, no wall clock — so a migration's timeline is a pure
//! function of `(guest memory, model, start time)` and replays exactly
//! under forks.

use perfcloud_host::{ServerId, VmId};
use perfcloud_sim::{SimDuration, SimTime};

/// Static parameters of the migration path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationModel {
    /// Migration-link bandwidth in bytes/second (default 10 GbE).
    pub link_bps: f64,
    /// Guest page-dirtying rate in bytes/second while running.
    pub dirty_rate_bps: f64,
    /// Pre-copy rounds before the stop-and-copy freeze.
    pub precopy_rounds: u32,
    /// Hypervisor cores consumed on *each* end while the migration is in
    /// flight (the copy threads' CPU tax).
    pub cpu_tax_cores: f64,
    /// Lower bound on the stop-and-copy stall (connection switch-over
    /// latency dominates for tiny dirty sets).
    pub min_stop_copy: SimDuration,
}

impl Default for MigrationModel {
    fn default() -> Self {
        MigrationModel {
            link_bps: 1.25e9,
            dirty_rate_bps: 2.5e8,
            precopy_rounds: 2,
            cpu_tax_cores: 0.5,
            min_stop_copy: SimDuration::from_secs(0.1),
        }
    }
}

/// A migration's computed timeline: how long the VM keeps running while
/// memory streams (pre-copy) and how long it is frozen (stop-and-copy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPlan {
    /// Duration of the pre-copy phase (VM running, CPU tax applied).
    pub precopy: SimDuration,
    /// Duration of the stop-and-copy stall (VM frozen).
    pub stop_copy: SimDuration,
}

impl MigrationModel {
    /// Validates the parameters (panics on nonsense, mirroring
    /// `PerfCloudConfig::validate`).
    pub fn validate(&self) {
        assert!(self.link_bps > 0.0 && self.link_bps.is_finite(), "link_bps must be positive");
        assert!(
            self.dirty_rate_bps >= 0.0 && self.dirty_rate_bps.is_finite(),
            "dirty_rate_bps must be non-negative"
        );
        assert!(
            self.cpu_tax_cores >= 0.0 && self.cpu_tax_cores.is_finite(),
            "cpu_tax_cores must be non-negative"
        );
    }

    /// Plans a migration of a guest with `mem_bytes` of memory.
    pub fn plan(&self, mem_bytes: u64) -> MigrationPlan {
        self.validate();
        let mem = mem_bytes as f64;
        let round0 = mem / self.link_bps;
        // Dirty-to-transfer ratio; clamped below 1 so the series converges
        // even for a guest dirtying faster than the link drains (real
        // hypervisors fall back to stop-and-copy in that regime too).
        let r = (self.dirty_rate_bps / self.link_bps).min(0.95);
        let mut precopy = 0.0;
        let mut round = round0;
        for _ in 0..self.precopy_rounds {
            precopy += round;
            round *= r;
        }
        // `round` is now the transfer time of the residual dirty set.
        let stop = SimDuration::from_secs(round).max(self.min_stop_copy);
        MigrationPlan { precopy: SimDuration::from_secs(precopy), stop_copy: stop }
    }
}

/// Phase of an in-flight migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Memory streaming while the VM runs; CPU tax on both ends.
    PreCopy,
    /// The VM is frozen for the final dirty-set copy.
    StopCopy,
}

/// One in-flight migration, tracked by the experiment driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveMigration {
    /// The VM being moved.
    pub vm: VmId,
    /// Source server.
    pub from: ServerId,
    /// Destination server.
    pub to: ServerId,
    /// When pre-copy began.
    pub started: SimTime,
    /// When the VM freezes (pre-copy end).
    pub stop_at: SimTime,
    /// When the VM resumes on the destination.
    pub done_at: SimTime,
}

impl ActiveMigration {
    /// Starts a migration at `now` under `model` for a guest with
    /// `mem_bytes` of memory.
    pub fn begin(
        vm: VmId,
        from: ServerId,
        to: ServerId,
        now: SimTime,
        model: &MigrationModel,
        mem_bytes: u64,
    ) -> Self {
        let plan = model.plan(mem_bytes);
        let stop_at = now + plan.precopy;
        ActiveMigration { vm, from, to, started: now, stop_at, done_at: stop_at + plan.stop_copy }
    }

    /// The phase in force at `now` (`None` once complete).
    pub fn phase(&self, now: SimTime) -> Option<MigrationPhase> {
        if now >= self.done_at {
            None
        } else if now >= self.stop_at {
            Some(MigrationPhase::StopCopy)
        } else {
            Some(MigrationPhase::PreCopy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_shape_for_standard_guest() {
        // 8 GiB guest, 10 GbE link: round 0 ≈ 6.9 s, ratio 0.2, two
        // rounds ≈ 8.2 s of pre-copy, residual ≈ 0.27 s of stall.
        let plan = MigrationModel::default().plan(8 << 30);
        let pre = plan.precopy.as_secs_f64();
        let stop = plan.stop_copy.as_secs_f64();
        assert!((8.0..9.0).contains(&pre), "precopy {pre}");
        assert!((0.2..0.4).contains(&stop), "stop-copy {stop}");
    }

    #[test]
    fn stop_copy_never_below_floor() {
        let model = MigrationModel { dirty_rate_bps: 0.0, ..Default::default() };
        let plan = model.plan(8 << 30);
        assert_eq!(plan.stop_copy, model.min_stop_copy);
    }

    #[test]
    fn fast_dirtier_converges_via_clamp() {
        let model = MigrationModel { dirty_rate_bps: 1e12, ..Default::default() };
        let plan = model.plan(8 << 30);
        assert!(plan.precopy.as_secs_f64().is_finite());
        assert!(plan.stop_copy >= model.min_stop_copy);
    }

    #[test]
    fn more_rounds_shrink_the_stall() {
        let few = MigrationModel {
            precopy_rounds: 1,
            min_stop_copy: SimDuration::ZERO,
            ..Default::default()
        };
        let many = MigrationModel {
            precopy_rounds: 4,
            min_stop_copy: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(many.plan(8 << 30).stop_copy < few.plan(8 << 30).stop_copy);
        assert!(many.plan(8 << 30).precopy > few.plan(8 << 30).precopy);
    }

    #[test]
    fn phases_progress_in_order() {
        let m = ActiveMigration::begin(
            VmId(1),
            ServerId(0),
            ServerId(1),
            SimTime::from_secs(100),
            &MigrationModel::default(),
            8 << 30,
        );
        assert_eq!(m.phase(SimTime::from_secs(100)), Some(MigrationPhase::PreCopy));
        assert_eq!(m.phase(m.stop_at), Some(MigrationPhase::StopCopy));
        assert_eq!(m.phase(m.done_at), None);
        assert!(m.started < m.stop_at && m.stop_at < m.done_at);
    }
}
