//! The four benchmark workloads, each a list of real `ExperimentConfig`s.
//!
//! Every workload uses the paper's topology: Chameleon servers, ten worker
//! VMs each, 100 ms ticks. Each experiment replays a fixed job trace — the
//! §IV-C mix generated from [`JOB_SEED`] plus the experiment's index —
//! in an environment drawn from the run's seed: antagonist placements and
//! start times, every VM's performance luck, antagonist rate modulation
//! and fault draws. Fixing the jobs keeps the simulated work per rep
//! nearly constant across seeds, so host-time metrics compare across
//! seeds; at seed 42 the environment matches the job trace's own seed, as
//! in the fig11 harness. Arrivals are fixed in simulated time, so a rep is
//! a batch: the measured host time is what one rep of simulated work
//! costs. The README says why each workload exists.

use perfcloud_baselines::{Dolly, LatePolicy};
use perfcloud_cluster::{
    ClusterSpec, Experiment, ExperimentConfig, ExperimentResult, Mitigation, MixConfig, WorkloadMix,
};
use perfcloud_core::{DetectorKind, IdentifierKind, PerfCloudConfig, PipelineSpec};
use perfcloud_ctrl::{ControlPlaneSpec, LinkSpec};
use perfcloud_place::PlacementConfig;
use perfcloud_sim::{
    FaultKind, FaultRule, FaultScenario, MessageClass, RngFactory, SimDuration, SimTime,
};
use perfcloud_telemetry::{RecordingFormat, TelemetryRecording};
use std::sync::Arc;
use std::time::Instant;

use crate::digest;

/// Seed of the first job trace; the `k`-th experiment of a rep replays
/// the trace generated from `JOB_SEED + k`.
pub const JOB_SEED: u64 = 42;

/// Flight-recorder capacity of the observed workload.
pub const FLIGHT_CAPACITY: usize = 4096;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §IV-C mix under LATE, Dolly-4 and PerfCloud.
    PaperMix,
    /// The mix scaled to 128 populated servers plus 8 spares, under
    /// throttle-plus-migrate with three manager replicas.
    FleetHybrid,
    /// The paper mix under PerfCloud with 1 s sampling, the alioth/panda
    /// pipeline, faults, and every observer on, three job traces.
    Finemon,
    /// `Finemon` with observers off, its node managers replaying the
    /// recordings a `Finemon` run teed.
    FinemonReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::PaperMix, Workload::FleetHybrid, Workload::Finemon, Workload::FinemonReplay];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::FleetHybrid => "fleet_hybrid",
            Workload::Finemon => "finemon",
            Workload::FinemonReplay => "finemon_replay",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiments one rep of this workload runs, in order. The
    /// `k`-th job trace runs in the environment of seed `seed + k`.
    pub fn cells(self, seed: u64, size: Size) -> Vec<Cell> {
        let cell = |k: u64, arm| Cell {
            workload: self,
            seed: seed.wrapping_add(k),
            job_seed: JOB_SEED + k,
            arm,
            size,
        };
        match self {
            Workload::PaperMix => {
                [Arm::Late, Arm::Dolly4, Arm::PerfCloud].map(|arm| cell(0, arm)).to_vec()
            }
            Workload::FleetHybrid => vec![cell(0, Arm::Hybrid)],
            Workload::Finemon | Workload::FinemonReplay => {
                (0..3).map(|k| cell(k, Arm::FineMon)).collect()
            }
        }
    }
}

/// How large a workload is built. `Paper` is what the benchmark measures;
/// `Mini` is a 10-job, few-server shape of the same configuration for
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Paper,
    /// A reduced size with the same configuration.
    Mini,
}

/// The mitigation arm of one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// LATE speculative execution.
    Late,
    /// Dolly with four clones per small job.
    Dolly4,
    /// PerfCloud with the paper's settings.
    PerfCloud,
    /// PerfCloud throttling plus interference-aware live migration.
    Hybrid,
    /// PerfCloud sampling every second.
    FineMon,
}

impl Arm {
    fn perfcloud_config(self) -> PerfCloudConfig {
        match self {
            Arm::FineMon => PerfCloudConfig {
                sample_interval: SimDuration::from_secs(1.0),
                ..PerfCloudConfig::default()
            },
            _ => PerfCloudConfig::default(),
        }
    }

    /// The mitigation the experiment is built with.
    pub fn mitigation(self) -> Mitigation {
        match self {
            Arm::Late => Mitigation::Late(LatePolicy::default()),
            Arm::Dolly4 => Mitigation::Dolly(Dolly::new(4)),
            Arm::PerfCloud | Arm::FineMon => Mitigation::PerfCloud(self.perfcloud_config()),
            Arm::Hybrid => Mitigation::Hybrid(self.perfcloud_config(), PlacementConfig::default()),
        }
    }
}

/// One experiment of a workload rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The workload the experiment belongs to.
    pub workload: Workload,
    /// Seed of the environment: the cluster's random streams and the
    /// antagonists' placements and start times.
    pub seed: u64,
    /// Seed of the job trace.
    pub job_seed: u64,
    /// The mitigation arm.
    pub arm: Arm,
    /// Paper or reduced size.
    pub size: Size,
}

impl Cell {
    /// Whether the decision trace and the flight recorders are on.
    pub fn observed(&self) -> bool {
        self.workload == Workload::Finemon
    }

    /// Generates the experiment configuration: topology, job mix,
    /// antagonists, mitigation, control plane, faults and telemetry.
    /// `replay` is the recording a `FinemonReplay` cell ingests.
    pub fn config(&self, replay: Option<Arc<TelemetryRecording>>) -> ExperimentConfig {
        assert_eq!(
            replay.is_some(),
            self.workload == Workload::FinemonReplay,
            "only finemon_replay ingests a recording"
        );
        let fleet = self.workload == Workload::FleetHybrid;
        // Populated servers; the fleet adds one spare per 16 of them.
        let populated: usize = match (self.size, fleet) {
            (Size::Paper, true) => 128,
            (Size::Paper, false) => 15,
            (Size::Mini, _) => 3,
        };
        let spare = if fleet { populated.div_ceil(16) } else { 0 };
        let mut cluster = ClusterSpec::large_scale(self.seed);
        cluster.servers = populated + spare;
        cluster.spare_servers = spare;

        let mut mix_config = MixConfig::paper(populated);
        if self.size == Size::Mini {
            mix_config = mix_config.scaled(0.05);
        } else if fleet {
            // The arrival rate grows with the cluster, so the load per
            // server matches the 15-server mix; the job count grows half as
            // much, which halves the simulated horizon and keeps one rep
            // near the others' host time.
            let factor = populated as f64 / 15.0;
            mix_config = MixConfig {
                mean_arrival_gap: mix_config.mean_arrival_gap / factor,
                ..mix_config.scaled(factor / 2.0)
            };
        }
        let jobs = WorkloadMix::generate(&mix_config, &RngFactory::new(self.job_seed)).jobs;
        // Antagonist placements come from their own stream of the mix
        // generator, so a job-less mix from the environment seed places
        // them as the full mix of that seed would.
        let env = RngFactory::new(self.seed);
        let no_jobs = MixConfig { mapreduce_jobs: 0, spark_jobs: 0, ..mix_config };
        let mut placed = WorkloadMix::generate(&no_jobs, &env);
        placed.stagger_antagonists(&env, 120.0);

        let mut config = ExperimentConfig::new(cluster, self.arm.mitigation());
        config.jobs = jobs;
        config.antagonists = placed.antagonists;
        config.max_sim_time = SimTime::from_secs(4 * 3_600);
        match self.workload {
            Workload::PaperMix => {}
            Workload::FleetHybrid => {
                config.control = ControlPlaneSpec {
                    managers: 3,
                    link: LinkSpec { latency: SimDuration::from_millis(20), ..LinkSpec::default() },
                    ..ControlPlaneSpec::default()
                };
            }
            Workload::Finemon | Workload::FinemonReplay => {
                config.pipeline = PipelineSpec {
                    detector: DetectorKind::Alioth,
                    identifier: IdentifierKind::Panda,
                };
                config.faults = Some(
                    FaultScenario::named("perfbench-finemon")
                        .rule(
                            FaultRule::new("drop-sample", FaultKind::DropSample)
                                .with_probability(0.05),
                        )
                        .rule(
                            FaultRule::new(
                                "lag-placement",
                                FaultKind::DelayMessage { micros: 1_500_000 },
                            )
                            .on_message(MessageClass::Placement)
                            .with_probability(0.10),
                        ),
                );
                config.control = ControlPlaneSpec {
                    managers: 3,
                    trace_events: true,
                    ..ControlPlaneSpec::default()
                };
                if self.workload == Workload::Finemon {
                    config.telemetry.tee = Some(RecordingFormat::Binary);
                }
                config.telemetry.replay = replay;
            }
        }
        config
    }

    /// Builds the experiment with this cell's observers attached.
    pub fn build(&self, config: ExperimentConfig) -> Experiment {
        let mut exp = Experiment::build(config);
        assert_eq!(exp.shards(), 1, "the benchmark measures one shard");
        if self.observed() {
            exp.enable_decision_trace();
            exp.enable_observability(FLIGHT_CAPACITY);
        }
        exp
    }
}

/// What one experiment run produced.
pub struct CellRun {
    /// The experiment after its run, for end-of-run state such as the
    /// teed recording.
    pub experiment: Experiment,
    /// The experiment's result.
    pub result: ExperimentResult,
    /// Jobs the experiment was given.
    pub jobs: usize,
    /// Digest of the result and, when observed, the decision trace.
    pub digest: u64,
    /// Servers × ticks simulated.
    pub server_ticks: u64,
    /// Host seconds of the set-up: loading the recording, generating the
    /// configuration and building the experiment.
    pub setup_s: f64,
    /// Host seconds from the first tick to the result.
    pub run_s: f64,
}

/// Sets the experiment up and returns it with its job count and the host
/// seconds the set-up took. `replay` loads the recording a
/// `finemon_replay` cell ingests; loading it is part of the set-up.
pub fn set_up(
    cell: &Cell,
    replay: impl FnOnce() -> Option<Arc<TelemetryRecording>>,
) -> (Experiment, usize, f64) {
    let t0 = Instant::now();
    let config = cell.config(replay());
    let jobs = config.jobs.len();
    let exp = cell.build(config);
    (exp, jobs, t0.elapsed().as_secs_f64())
}

/// Sets the experiment up and runs it through `Experiment::run`, the
/// product path.
pub fn run_cell(cell: &Cell, replay: impl FnOnce() -> Option<Arc<TelemetryRecording>>) -> CellRun {
    let (mut exp, jobs, setup_s) = set_up(cell, replay);
    let t1 = Instant::now();
    let result = exp.run();
    let run_s = t1.elapsed().as_secs_f64();
    let trace = exp.decision_trace().map(|t| t.digest());
    CellRun {
        jobs,
        digest: digest::cell(digest::result(&result), trace),
        server_ticks: exp.ticks_stepped() * exp.servers.len() as u64,
        setup_s,
        run_s,
        result,
        experiment: exp,
    }
}
