//! Placement-subsystem benchmark: policy decision throughput plus the
//! throttle-vs-migrate-vs-hybrid scenario comparison.
//!
//! Two measurements land in one `BENCH_placement.json` record:
//!
//! - `decisions_per_sec` — how fast [`AntagonistAware::propose`] turns a
//!   cluster snapshot (server loads + candidate VMs + penalty ledger)
//!   into migration proposals. This is the hot path a cloud-scale
//!   coordinator would run every sampling interval, so CI gates it
//!   against the committed baseline like the control-plane probe.
//! - the scenario JCT comparison — the three `placement_*` golden
//!   testbeds re-run end to end, recording each arm's victim JCT,
//!   migration count, and the hybrid-vs-throttle delta. These are
//!   deterministic (fixed seed, tick-driven), so [`check`] can assert
//!   the paper-level claims exactly: migration fires, ping-pong does
//!   not, and hybrid does not lose to throttle-only.

use crate::benchjson::BenchRecord;
use crate::scenarios::{ANTAGONIST_ONSET, JOB_START};
use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
};
use perfcloud_core::PerfCloudConfig;
use perfcloud_frameworks::Benchmark;
use perfcloud_host::{ServerId, VmId};
use perfcloud_place::{
    AntagonistAware, InterferenceHistory, MigrationCandidate, PlacementConfig, PlacementCtx,
    PlacementPolicy, ServerLoad, UsageVector,
};
use perfcloud_sim::SimTime;
use std::time::Instant;

/// Servers in the synthetic decision-throughput snapshot.
const PROBE_SERVERS: usize = 64;
/// Candidate low-priority VMs per snapshot.
const PROBE_CANDIDATES: usize = 128;
/// Proposal rounds per timed pass of [`decision_throughput`].
const PROBE_ROUNDS: usize = 2_000;
/// Timed passes; the fastest one is reported. A single pass lasts only a
/// few milliseconds, which is far too noisy for a CI gate on a shared
/// runner — the best-of-N minimum is stable to a few percent.
const PROBE_PASSES: usize = 5;

/// One arm of the scenario comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmResult {
    /// Victim job completion time, seconds.
    pub jct: f64,
    /// Live migrations the placement runtime started.
    pub migrations: u64,
}

/// The full placement measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementProbe {
    /// Policy proposals evaluated per wall-clock second.
    pub decisions_per_sec: f64,
    /// Throttle-only arm (PerfCloud, no placement runtime).
    pub throttle: ArmResult,
    /// Migrate-only arm (no throttling).
    pub migrate: ArmResult,
    /// Hybrid arm (throttle + migrate).
    pub hybrid: ArmResult,
    /// Wall-clock seconds for the whole probe.
    pub wall_seconds: f64,
}

/// Builds the shared scenario config: the `placement_*` golden testbed —
/// two servers with the second held spare, one terasort job, one fio
/// antagonist on the populated server.
fn arm_config(seed: u64, mitigation: Mitigation) -> ExperimentConfig {
    let mut cluster = ClusterSpec::small_scale(seed);
    cluster.servers = 2;
    cluster.spare_servers = 1;
    let mut cfg = ExperimentConfig::new(cluster, mitigation);
    cfg.jobs.push((JOB_START, Benchmark::Terasort.job(20)));
    cfg.antagonists
        .push(AntagonistPlacement::pinned(AntagonistKind::Fio, 0).starting_at(ANTAGONIST_ONSET));
    cfg.max_sim_time = SimTime::from_secs(7_200);
    cfg
}

/// Runs one arm to completion.
fn run_arm(seed: u64, mitigation: Mitigation) -> ArmResult {
    let mut e = Experiment::build(arm_config(seed, mitigation));
    let r = e.run();
    let migrations = e.placement().map_or(0, |rt| rt.migrations_started());
    ArmResult { jct: r.sole_jct(), migrations }
}

/// Times [`AntagonistAware::propose`] over a synthetic cluster snapshot:
/// deterministic loads (no RNG — the bytes don't matter, only that the
/// policy walks every server per candidate), a ledger with a handful of
/// penalized VMs, and [`PROBE_ROUNDS`] proposal rounds.
pub fn decision_throughput() -> f64 {
    let mut history = InterferenceHistory::new();
    for vm in 0..PROBE_CANDIDATES as u32 {
        if vm % 7 == 0 {
            history.record_verdict(VmId(vm));
        }
    }
    let servers: Vec<ServerLoad> = (0..PROBE_SERVERS)
        .map(|i| ServerLoad {
            usage: UsageVector {
                cpu: (i % 10) as f64 / 10.0,
                disk: (i % 5) as f64 / 5.0,
                net: 0.0,
            },
            vms: i % 4 + 1,
            protected: i % 3 == 0,
        })
        .collect();
    let candidates: Vec<MigrationCandidate> = (0..PROBE_CANDIDATES)
        .map(|i| MigrationCandidate {
            vm: VmId(i as u32),
            from: ServerId((i % PROBE_SERVERS) as u32),
            usage: UsageVector { disk: (i % 3) as f64 / 3.0, cpu: 0.2, net: 0.0 },
        })
        .collect();
    let policy = AntagonistAware::default();
    let ctx = PlacementCtx { servers: &servers, history: &history };
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_PASSES {
        let start = Instant::now();
        let mut proposals = 0usize;
        for _ in 0..PROBE_ROUNDS {
            proposals += policy.propose(&candidates, &ctx).len();
            std::hint::black_box(proposals);
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert!(proposals > 0, "throughput probe proposed nothing — snapshot degenerate");
        best = best.min(elapsed);
    }
    let decisions = (PROBE_ROUNDS * PROBE_CANDIDATES) as f64;
    if best > 0.0 {
        decisions / best
    } else {
        f64::INFINITY
    }
}

/// Runs the full probe: the decision-throughput micro-bench plus the
/// three scenario arms, all at `seed`.
pub fn probe(seed: u64) -> PlacementProbe {
    let start = Instant::now();
    let decisions_per_sec = decision_throughput();
    let throttle = run_arm(seed, Mitigation::PerfCloud(PerfCloudConfig::default()));
    let migrate = run_arm(seed, Mitigation::MigrateOnly(PlacementConfig::default()));
    let hybrid =
        run_arm(seed, Mitigation::Hybrid(PerfCloudConfig::default(), PlacementConfig::default()));
    PlacementProbe {
        decisions_per_sec,
        throttle,
        migrate,
        hybrid,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

impl PlacementProbe {
    /// The probe as a `BENCH_placement.json` record.
    pub fn record(&self) -> BenchRecord {
        let mut r = BenchRecord::wall("placement", self.wall_seconds);
        r.extras.push(("decisions_per_sec".into(), self.decisions_per_sec));
        r.extras.push(("throttle_jct".into(), self.throttle.jct));
        r.extras.push(("migrate_jct".into(), self.migrate.jct));
        r.extras.push(("hybrid_jct".into(), self.hybrid.jct));
        r.extras.push(("migrate_migrations".into(), self.migrate.migrations as f64));
        r.extras.push(("hybrid_migrations".into(), self.hybrid.migrations as f64));
        r.extras.push(("hybrid_vs_throttle".into(), self.hybrid.jct / self.throttle.jct));
        r
    }

    /// The deterministic paper-level invariants the CI `--check` run
    /// asserts. Returns the violations (empty = all good).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.migrate.migrations == 0 {
            out.push("migrate-only arm started no migration".into());
        }
        if self.hybrid.migrations == 0 {
            out.push("hybrid arm started no migration".into());
        }
        for (name, arm) in [("migrate-only", self.migrate), ("hybrid", self.hybrid)] {
            if arm.migrations > 2 {
                out.push(format!(
                    "{name} arm started {} migrations — ping-pong guard broken",
                    arm.migrations
                ));
            }
        }
        if self.hybrid.jct > self.throttle.jct {
            out.push(format!(
                "hybrid victim JCT {} lost to throttle-only {}",
                self.hybrid.jct, self.throttle.jct
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_throughput_is_positive_and_finite() {
        let dps = decision_throughput();
        assert!(dps > 0.0 && dps.is_finite(), "decisions/sec: {dps}");
    }

    #[test]
    fn record_carries_all_gate_fields() {
        let p = PlacementProbe {
            decisions_per_sec: 1e6,
            throttle: ArmResult { jct: 39.2, migrations: 0 },
            migrate: ArmResult { jct: 39.5, migrations: 1 },
            hybrid: ArmResult { jct: 38.8, migrations: 1 },
            wall_seconds: 1.0,
        };
        let json = p.record().to_json();
        for field in [
            "decisions_per_sec",
            "throttle_jct",
            "migrate_jct",
            "hybrid_jct",
            "migrate_migrations",
            "hybrid_migrations",
            "hybrid_vs_throttle",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        assert!(p.violations().is_empty());
    }

    #[test]
    fn violations_catch_broken_invariants() {
        let p = PlacementProbe {
            decisions_per_sec: 1e6,
            throttle: ArmResult { jct: 30.0, migrations: 0 },
            migrate: ArmResult { jct: 50.0, migrations: 0 },
            hybrid: ArmResult { jct: 31.0, migrations: 5 },
            wall_seconds: 1.0,
        };
        let v = p.violations();
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().any(|m| m.contains("no migration")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("ping-pong")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("lost to throttle-only")), "{v:?}");
    }
}
