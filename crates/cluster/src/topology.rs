//! Cluster topologies: virtual Hadoop clusters over physical servers.

use perfcloud_core::{AppId, CloudManager, VmRecord};
use perfcloud_frameworks::Worker;
use perfcloud_host::{PhysicalServer, Priority, ServerConfig, ServerId, VmConfig, VmId};
use perfcloud_sim::{RngFactory, SimDuration};

/// Specification of a virtual Hadoop cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of physical servers.
    pub servers: usize,
    /// Worker (slave) VMs per server.
    pub workers_per_server: usize,
    /// Task slots per worker VM (paper VMs have 2 vCPUs → 2 slots).
    pub slots_per_worker: u32,
    /// Physical server model.
    pub server_config: ServerConfig,
    /// Length of one experiment tick.
    pub tick: SimDuration,
    /// Master seed for all randomness in the run.
    pub seed: u64,
    /// Per-server relative speed factors for heterogeneous clusters
    /// (empty = homogeneous). Length must match `servers` when non-empty.
    pub speed_factors: Vec<f64>,
    /// Trailing servers that get no worker VMs — migration headroom for
    /// placement experiments. Must be less than `servers`; 0 (the
    /// default) reproduces the classic fully-populated topologies.
    pub spare_servers: usize,
}

impl ClusterSpec {
    /// The paper's small-scale setup: a 12-node virtual cluster on one
    /// server (2 masters are implicit in the scheduler; 10 slave VMs).
    pub fn small_scale(seed: u64) -> Self {
        ClusterSpec {
            servers: 1,
            workers_per_server: 10,
            slots_per_worker: 2,
            server_config: ServerConfig::chameleon(),
            tick: SimDuration::from_millis(100),
            seed,
            speed_factors: Vec::new(),
            spare_servers: 0,
        }
    }

    /// The paper's large-scale setup: a 152-node virtual cluster over 15
    /// servers (10 slave VMs per server).
    pub fn large_scale(seed: u64) -> Self {
        ClusterSpec {
            servers: 15,
            workers_per_server: 10,
            slots_per_worker: 2,
            server_config: ServerConfig::chameleon(),
            tick: SimDuration::from_millis(100),
            seed,
            speed_factors: Vec::new(),
            spare_servers: 0,
        }
    }

    /// Total worker VM count (spare servers host none).
    pub fn worker_count(&self) -> usize {
        (self.servers - self.spare_servers) * self.workers_per_server
    }
}

/// A built testbed: servers, the cloud registry, and worker descriptors.
pub struct Testbed {
    /// The physical servers, index-aligned with worker `server_idx`.
    pub servers: Vec<PhysicalServer>,
    /// The central VM registry.
    pub cloud: CloudManager,
    /// Worker descriptors for the framework scheduler.
    pub workers: Vec<Worker>,
    /// The RNG factory for this run.
    pub rng: RngFactory,
    /// The tick length the servers were built with.
    pub tick: SimDuration,
    next_vm: u32,
}

/// The application id assigned to the Hadoop/Spark workers.
pub const HADOOP_APP: AppId = AppId(1);

impl Testbed {
    /// Builds the testbed for `spec`: servers, high-priority worker VMs
    /// (all belonging to [`HADOOP_APP`]), and cloud-manager registrations.
    pub fn build(spec: &ClusterSpec) -> Self {
        assert!(spec.servers >= 1 && spec.workers_per_server >= 1);
        assert!(
            spec.speed_factors.is_empty() || spec.speed_factors.len() == spec.servers,
            "speed_factors must be empty or one per server"
        );
        assert!(
            spec.spare_servers < spec.servers,
            "spare_servers must leave at least one populated server"
        );
        let rng = RngFactory::new(spec.seed);
        let mut servers = Vec::with_capacity(spec.servers);
        let mut workers = Vec::new();
        let mut cloud = CloudManager::new();
        let mut next_vm = 0u32;
        for s in 0..spec.servers {
            let mut cfg = spec.server_config.clone();
            if let Some(&f) = spec.speed_factors.get(s) {
                cfg.speed_factor = f;
            }
            let mut server = PhysicalServer::new(
                ServerId(s as u32),
                cfg,
                rng.child_indexed("server", s as u64),
                spec.tick,
            );
            let workers_here =
                if s < spec.servers - spec.spare_servers { spec.workers_per_server } else { 0 };
            for _ in 0..workers_here {
                let vm = VmId(next_vm);
                next_vm += 1;
                server.add_vm(vm, VmConfig::high_priority());
                cloud.register(
                    vm,
                    VmRecord {
                        server: ServerId(s as u32),
                        priority: Priority::High,
                        app: Some(HADOOP_APP),
                    },
                );
                workers.push(Worker { server_idx: s, vm, slots: spec.slots_per_worker });
            }
            servers.push(server);
        }
        Testbed { servers, cloud, workers, rng, tick: spec.tick, next_vm }
    }

    /// Adds a low-priority VM on `server_idx`, returning its id.
    pub fn add_low_priority_vm(&mut self, server_idx: usize) -> VmId {
        let vm = VmId(self.next_vm);
        self.next_vm += 1;
        self.servers[server_idx].add_vm(vm, VmConfig::low_priority());
        self.cloud.register(
            vm,
            VmRecord { server: ServerId(server_idx as u32), priority: Priority::Low, app: None },
        );
        vm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_matches_paper() {
        let spec = ClusterSpec::small_scale(1);
        assert_eq!(spec.servers, 1);
        assert_eq!(spec.worker_count(), 10);
        let tb = Testbed::build(&spec);
        assert_eq!(tb.servers.len(), 1);
        assert_eq!(tb.workers.len(), 10);
        assert_eq!(tb.cloud.apps_on(ServerId(0)).len(), 1);
        assert_eq!(tb.cloud.apps_on(ServerId(0))[0].1.len(), 10);
    }

    #[test]
    fn large_scale_matches_paper() {
        let spec = ClusterSpec::large_scale(1);
        assert_eq!(spec.worker_count(), 150);
        let tb = Testbed::build(&spec);
        assert_eq!(tb.servers.len(), 15);
        // Workers spread evenly.
        for s in 0..15 {
            assert_eq!(tb.cloud.apps_on(ServerId(s as u32))[0].1.len(), 10);
        }
    }

    #[test]
    fn low_priority_vms_register_correctly() {
        let mut tb = Testbed::build(&ClusterSpec::small_scale(2));
        let vm = tb.add_low_priority_vm(0);
        assert!(tb.servers[0].hosts(vm));
        assert_eq!(tb.cloud.low_priority_on(ServerId(0)), vec![vm]);
    }

    #[test]
    fn heterogeneous_speed_factors_apply() {
        let mut spec = ClusterSpec::small_scale(3);
        spec.servers = 2;
        spec.speed_factors = vec![1.0, 0.5];
        let tb = Testbed::build(&spec);
        assert_eq!(tb.servers[1].config().speed_factor, 0.5);
        assert_eq!(tb.servers[0].config().speed_factor, 1.0);
    }

    #[test]
    #[should_panic(expected = "speed_factors")]
    fn mismatched_speed_factors_rejected() {
        let mut spec = ClusterSpec::small_scale(3);
        spec.speed_factors = vec![1.0, 0.5];
        let _ = Testbed::build(&spec);
    }

    #[test]
    fn spare_servers_host_no_workers() {
        let mut spec = ClusterSpec::large_scale(4);
        spec.servers = 3;
        spec.spare_servers = 1;
        assert_eq!(spec.worker_count(), 20);
        let tb = Testbed::build(&spec);
        assert_eq!(tb.servers.len(), 3);
        assert_eq!(tb.workers.len(), 20);
        assert!(tb.workers.iter().all(|w| w.server_idx < 2));
        assert!(tb.cloud.apps_on(ServerId(2)).is_empty());
        assert!(tb.servers[2].vm_ids().is_empty());
    }

    #[test]
    #[should_panic(expected = "spare_servers")]
    fn all_spare_topology_rejected() {
        let mut spec = ClusterSpec::small_scale(5);
        spec.spare_servers = 1;
        let _ = Testbed::build(&spec);
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let a = Testbed::build(&ClusterSpec::small_scale(1));
        let b = Testbed::build(&ClusterSpec::small_scale(2));
        assert_ne!(a.rng.master_seed(), b.rng.master_seed());
    }
}
