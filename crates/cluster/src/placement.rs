//! The placement runtime: the experiment-side executor that closes the
//! loop from identify verdicts to live migrations.
//!
//! [`PlacementRuntime`] owns the pieces the `place` crate deliberately
//! leaves to the driver: the interference ledger fed by node-manager
//! identify results, the in-flight migration list, and the hysteresis
//! bookkeeping (per-VM cooldown, cluster-wide concurrency cap). All of it
//! runs on the coordinator side of the shard barrier — verdicts are read
//! after the sampling phase rejoins, server loads are scanned in index
//! order, and every mutation (pause, extract/insert, registry move, CPU
//! tax) happens between ticks — so a run with placement enabled is as
//! shard- and thread-invariant as one without.
//!
//! Only low-priority VMs are ever proposed or moved: the framework
//! scheduler addresses its workers by `(server_idx, vm)` and worker VMs
//! must stay put. The registry move (`CloudManager::migrate`) is published
//! to node managers through the epoch'd control plane at the next
//! sampling interval, exactly like any other placement change.

use perfcloud_core::{CloudManager, NodeManager};
use perfcloud_ctrl::ControlPlane;
use perfcloud_host::{PhysicalServer, Priority, ServerId, VmId};
use perfcloud_obs::FlightEvent;
use perfcloud_place::{
    ActiveMigration, InterferenceHistory, MigrationCandidate, MigrationModel, PlacementConfig,
    PlacementCtx, PlacementPolicy, ServerLoad, UsageVector,
};
use perfcloud_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

use perfcloud_core::VmMetricKind;

/// One in-flight migration plus its driver-side progress flag.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    migration: ActiveMigration,
    /// Whether the stop-and-copy freeze has been applied and announced.
    stopped: bool,
}

/// Executes placement decisions for one experiment run.
#[derive(Clone)]
pub struct PlacementRuntime {
    policy: Box<dyn PlacementPolicy + Send>,
    model: MigrationModel,
    cooldown: SimDuration,
    max_active: usize,
    history: InterferenceHistory,
    active: Vec<Inflight>,
    /// Migration start instants per VM (cooldown hysteresis) and per-VM
    /// start counts (ping-pong assertions in tests).
    last_start: BTreeMap<VmId, SimTime>,
    starts: BTreeMap<VmId, u64>,
    /// Scratch buffers reused every sampling interval.
    loads: Vec<ServerLoad>,
    candidates: Vec<MigrationCandidate>,
}

impl std::fmt::Debug for PlacementRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementRuntime")
            .field("policy", &self.policy.name())
            .field("active", &self.active.len())
            .field("history", &self.history)
            .finish_non_exhaustive()
    }
}

impl PlacementRuntime {
    /// Builds the runtime from its configuration.
    pub fn new(config: &PlacementConfig) -> Self {
        config.model.validate();
        assert!(config.max_active >= 1, "max_active must be at least 1");
        PlacementRuntime {
            policy: config.policy.build(),
            model: config.model,
            cooldown: config.cooldown,
            max_active: config.max_active,
            history: InterferenceHistory::new(),
            active: Vec::new(),
            last_start: BTreeMap::new(),
            starts: BTreeMap::new(),
            loads: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// The deciding policy's stable name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Total migrations started over the run.
    pub fn migrations_started(&self) -> u64 {
        self.starts.values().sum()
    }

    /// Migration starts of one VM — the ping-pong/hysteresis probe.
    pub fn starts_of(&self, vm: VmId) -> u64 {
        self.starts.get(&vm).copied().unwrap_or(0)
    }

    /// In-flight migration count.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The decayed interference ledger.
    pub fn history(&self) -> &InterferenceHistory {
        &self.history
    }

    /// Advances in-flight migrations to `now`: applies the stop-and-copy
    /// freeze when pre-copy ends, and completes the move — VM extracted
    /// from the source tick order, installed at the destination tail,
    /// unfrozen, registry updated — when the stall ends. Called every tick
    /// *before* servers tick, so a transition applies to the tick that
    /// crosses its deadline.
    pub fn advance(
        &mut self,
        now: SimTime,
        servers: &mut [PhysicalServer],
        cloud: &mut CloudManager,
        plane: &mut ControlPlane,
    ) {
        let mut changed = false;
        let mut k = 0;
        while k < self.active.len() {
            let m = self.active[k].migration;
            let (vm, from, to) = (u64::from(m.vm.0), m.from.0, m.to.0);
            if now >= m.done_at {
                let moving = servers[m.from.0 as usize]
                    .extract_vm(m.vm)
                    .expect("migrating VM hosted on source");
                servers[m.to.0 as usize].insert_vm(moving);
                servers[m.to.0 as usize].set_paused(m.vm, false);
                cloud.migrate(m.vm, m.to);
                // The VM's verdict history belonged to the old colocation;
                // it must re-earn a penalty before it can be moved again.
                self.history.forget(m.vm);
                plane.announce_migration(now, FlightEvent::MigrationComplete { vm, from, to });
                self.active.remove(k);
                changed = true;
                continue;
            }
            if now >= m.stop_at && !self.active[k].stopped {
                servers[m.from.0 as usize].set_paused(m.vm, true);
                plane.announce_migration(now, FlightEvent::MigrationStopCopy { vm, from, to });
                self.active[k].stopped = true;
            }
            k += 1;
        }
        if changed {
            self.apply_taxes(servers);
        }
    }

    /// Runs one placement decision round at a sampling instant, after the
    /// node managers stepped: ingest fresh identify verdicts into the
    /// ledger, then — capacity and cooldown permitting — ask the policy
    /// for proposals over the currently placed low-priority VMs and start
    /// the best one.
    pub fn on_sample(
        &mut self,
        now: SimTime,
        node_managers: &[NodeManager],
        servers: &mut [PhysicalServer],
        cloud: &CloudManager,
        plane: &mut ControlPlane,
    ) {
        // Decay covers the elapsed interval; fresh verdicts land on top.
        self.history.decay();
        for nm in node_managers {
            for &(vm, _) in nm.identified() {
                self.history.record_verdict(vm);
            }
        }

        if self.active.len() >= self.max_active {
            return;
        }

        // Per-server loads in index order (ServerId(i) == index i).
        self.loads.clear();
        for (i, server) in servers.iter().enumerate() {
            let nm = &node_managers[i];
            let mut usage = UsageVector::default();
            let ids = server.vm_ids();
            for &vm in &ids {
                usage = usage.plus(&vm_usage(nm, server, vm));
            }
            self.loads.push(ServerLoad {
                usage,
                vms: ids.len(),
                protected: !cloud.apps_on(ServerId(i as u32)).is_empty(),
            });
        }

        // Candidates: placed low-priority VMs that are not mid-flight and
        // are past their cooldown. Workers (high priority) never move.
        self.candidates.clear();
        for i in 0..servers.len() {
            let sid = ServerId(i as u32);
            for vm in cloud.low_priority_on(sid) {
                if self.active.iter().any(|a| a.migration.vm == vm) {
                    continue;
                }
                if self.last_start.get(&vm).is_some_and(|&t| now < t + self.cooldown) {
                    continue;
                }
                self.candidates.push(MigrationCandidate {
                    vm,
                    from: sid,
                    usage: vm_usage(&node_managers[i], &servers[i], vm),
                });
            }
        }
        if self.candidates.is_empty() {
            return;
        }

        let ctx = PlacementCtx { servers: &self.loads, history: &self.history };
        let proposals = self.policy.propose(&self.candidates, &ctx);
        // Best gain wins; ties break to the lowest VM id so the decision
        // is independent of proposal order.
        let Some(best) = proposals.iter().copied().reduce(|a, b| {
            if (b.gain, std::cmp::Reverse(b.vm)) > (a.gain, std::cmp::Reverse(a.vm)) {
                b
            } else {
                a
            }
        }) else {
            return;
        };

        let source = &servers[best.from.0 as usize];
        debug_assert_eq!(source.priority(best.vm), Some(Priority::Low));
        let mem = source.vm_config(best.vm).expect("candidate hosted on source").memory_bytes;
        let migration = ActiveMigration::begin(best.vm, best.from, best.to, now, &self.model, mem);
        let (vm, from, to) = (u64::from(best.vm.0), best.from.0, best.to.0);
        plane.announce_migration(now, FlightEvent::MigrationStart { vm, from, to });
        self.last_start.insert(best.vm, now);
        *self.starts.entry(best.vm).or_insert(0) += 1;
        self.active.push(Inflight { migration, stopped: false });
        self.apply_taxes(servers);
    }

    /// Re-derives every server's migration CPU tax from the in-flight set
    /// (both endpoints of each migration pay `cpu_tax_cores`).
    fn apply_taxes(&self, servers: &mut [PhysicalServer]) {
        let mut tax = vec![0.0f64; servers.len()];
        for a in &self.active {
            tax[a.migration.from.0 as usize] += self.model.cpu_tax_cores;
            tax[a.migration.to.0 as usize] += self.model.cpu_tax_cores;
        }
        for (server, t) in servers.iter_mut().zip(tax) {
            server.set_migration_load(t);
        }
    }
}

/// A VM's current demand profile as its node manager's monitor sees it:
/// CPU cores against the server's core count, disk bytes/s against the
/// device's effective sequential bandwidth. No samples yet (or a paused
/// VM with missing latest values) reads as a zero vector.
fn vm_usage(nm: &NodeManager, server: &PhysicalServer, vm: VmId) -> UsageVector {
    let monitor = nm.monitor();
    let cpu = monitor.latest_present(vm, VmMetricKind::CpuCores).unwrap_or(0.0);
    let disk = monitor.latest_present(vm, VmMetricKind::IoBps).unwrap_or(0.0);
    let cfg = server.config();
    UsageVector::normalized(cpu, cfg.cores as f64, disk, cfg.disk.max_seq_bps * cfg.speed_factor)
}
