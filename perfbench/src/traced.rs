//! The traced mirror: re-drives a built `Experiment` from outside, one
//! tick at a time, timing each call into a layer.
//!
//! [`drive`] is a one-shard copy of `Experiment::step_tick` and
//! `Experiment::run` written against the experiment's public fields
//! (`servers`, `scheduler`, `node_managers`, `plane`, `cloud`). The loop
//! state that `Experiment` keeps private — pending jobs and antagonists,
//! the speculation policy, Dolly, the placement runtime, the decision
//! trace and the tee writer — lives in a [`Mirror`] rebuilt from the same
//! configuration. The mirror must reproduce `Experiment::run` bit for bit
//! (the integration tests check it by digest), so it has to change
//! whenever `step_tick` or a layer's public signature does.
//!
//! Timing uses a lap clock: every `Instant` read closes the span of the
//! layer that just ran and opens the next, so the layer self times and the
//! mirror's glue sum to the loop's wall time. Nothing inside the loop
//! allocates.

use crate::digest;
use crate::workloads::Cell;
use perfcloud_baselines::Dolly;
use perfcloud_cluster::{
    AntagonistPlacement, DecisionTrace, Experiment, ExperimentConfig, ExperimentResult, Mitigation,
    PlacementRuntime,
};
use perfcloud_core::{PerfCloudConfig, StepReport};
use perfcloud_ctrl::NetStats;
use perfcloud_frameworks::{JobSpec, NoSpeculation, SpeculationPolicy};
use perfcloud_host::{FinishedProcess, VmId};
use perfcloud_sim::{RngFactory, SimDuration, SimTime};
use perfcloud_telemetry::{Sample, TelemetryWriter};
use std::time::{Duration, Instant};

/// Host time spent in each layer, and the work each layer did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// `PhysicalServer::tick` over every server.
    pub host: Duration,
    /// `FrameworkScheduler::on_tick`, `submit`, and `Dolly::submit`.
    pub sched: Duration,
    /// `NodeManager::step_synced` and `take_colocation_notice`.
    pub nm: Duration,
    /// `ControlPlane` calls: intervals, ticks, stalls, colocation sends,
    /// and event drains when no trace consumes them.
    pub ctrl: Duration,
    /// `PlacementRuntime::advance` and `on_sample`.
    pub place: Duration,
    /// `DecisionTrace::record` and `record_ctrl`.
    pub trace: Duration,
    /// `NodeManager::drain_tee_into` and `TelemetryWriter::append`.
    pub tee: Duration,
    /// The mirror's own glue: antagonist spawns, job pops, loop control.
    pub glue: Duration,
    /// Wall time of the whole loop.
    pub wall: Duration,
    /// Ticks stepped.
    pub ticks: u64,
    /// Server ticks (servers × ticks).
    pub server_ticks: u64,
    /// VM ticks (hosted VMs × ticks).
    pub vm_ticks: u64,
    /// Processes the host reported finished.
    pub procs_finished: u64,
    /// Node-manager steps.
    pub nm_steps: u64,
    /// Caps in force summed over node-manager steps.
    pub cap_decisions: u64,
    /// Antagonists identified summed over node-manager steps.
    pub identified: u64,
    /// Decision-trace lines written.
    pub trace_lines: u64,
    /// Samples teed into the recording.
    pub tee_samples: u64,
}

impl Layers {
    /// Self time attributed to the simulator's layers: the wall time
    /// minus the mirror's own glue.
    pub fn attributed(&self) -> Duration {
        self.host + self.sched + self.nm + self.ctrl + self.place + self.trace + self.tee
    }

    /// Adds another run's times and counts to these.
    pub fn add(&mut self, o: &Layers) {
        self.host += o.host;
        self.sched += o.sched;
        self.nm += o.nm;
        self.ctrl += o.ctrl;
        self.place += o.place;
        self.trace += o.trace;
        self.tee += o.tee;
        self.glue += o.glue;
        self.wall += o.wall;
        self.ticks += o.ticks;
        self.server_ticks += o.server_ticks;
        self.vm_ticks += o.vm_ticks;
        self.procs_finished += o.procs_finished;
        self.nm_steps += o.nm_steps;
        self.cap_decisions += o.cap_decisions;
        self.identified += o.identified;
        self.trace_lines += o.trace_lines;
        self.tee_samples += o.tee_samples;
    }
}

/// Closes one layer's span and opens the next at a single clock read.
struct Lap(Instant);

impl Lap {
    fn to(&mut self, layer: &mut Duration) {
        let now = Instant::now();
        *layer += now - self.0;
        self.0 = now;
    }
}

/// The loop state `Experiment` keeps private, rebuilt from the same
/// configuration the experiment was built from.
struct Mirror {
    /// Pending jobs, latest first (pop from the back = earliest).
    jobs: Vec<(SimTime, JobSpec)>,
    antagonist_seeds: Vec<u64>,
    tick: SimDuration,
    sample_interval: SimDuration,
    max_sim_time: SimTime,
    policy: Box<dyn SpeculationPolicy>,
    dolly: Option<Dolly>,
    placement: Option<PlacementRuntime>,
    trace: Option<DecisionTrace>,
    tee: Option<TelemetryWriter>,
}

impl Mirror {
    /// Captures what the mirror needs from `config` before
    /// `Experiment::build` consumes it.
    fn new(cell: &Cell, config: &ExperimentConfig) -> Self {
        let mut jobs = config.jobs.clone();
        jobs.sort_by_key(|(t, _)| *t);
        jobs.reverse();
        // `Experiment::build` derives each antagonist's seed from the
        // cluster seed this way.
        let rng = RngFactory::new(config.cluster.seed);
        let antagonist_seeds = config
            .antagonists
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let idx = p.seed_group.unwrap_or(i as u64 + 1_000);
                rng.child_indexed("antagonist", idx).master_seed()
            })
            .collect();
        // What `resolve_mitigation` makes of the mitigation. Passive arms
        // sample at the default cadence in monitoring-only mode.
        let default_interval = PerfCloudConfig::default().sample_interval;
        let (policy, dolly, placement, sample_interval): (Box<dyn SpeculationPolicy>, _, _, _) =
            match &config.mitigation {
                Mitigation::Late(late) => (Box::new(late.clone()), None, None, default_interval),
                Mitigation::Dolly(d) => (Box::new(NoSpeculation), Some(*d), None, default_interval),
                Mitigation::PerfCloud(pc) => {
                    (Box::new(NoSpeculation), None, None, pc.sample_interval)
                }
                Mitigation::Hybrid(pc, p) => (
                    Box::new(NoSpeculation),
                    None,
                    Some(PlacementRuntime::new(p)),
                    pc.sample_interval,
                ),
                other => panic!("the mirror does not drive the {} mitigation", other.name()),
            };
        Mirror {
            jobs,
            antagonist_seeds,
            tick: config.cluster.tick,
            sample_interval,
            max_sim_time: config.max_sim_time,
            policy,
            dolly,
            placement,
            trace: cell.observed().then(DecisionTrace::new),
            tee: None,
        }
    }
}

/// One experiment driven through the mirror.
#[derive(Debug)]
pub struct Traced {
    /// The result, assembled as `Experiment::result` does.
    pub result: ExperimentResult,
    /// The digest `crate::workloads::run_cell` computes for the same cell.
    pub digest: u64,
    /// Per-layer times and work counts.
    pub layers: Layers,
    /// Migrations the placement runtime started.
    pub migrations: u64,
    /// Control-network delivery counters.
    pub net: NetStats,
}

/// Builds `cell`'s experiment from `config` and drives it to completion
/// through the mirror.
pub fn run(cell: &Cell, config: ExperimentConfig) -> Traced {
    let mut mirror = Mirror::new(cell, &config);
    let tee = config.telemetry.tee;
    let mut exp = cell.build(config);
    let source = exp.node_managers.first().map_or("sim", |nm| nm.source_name());
    mirror.tee = tee.map(|fmt| TelemetryWriter::new(fmt, source));
    let mut layers = Layers::default();
    let result = drive(&mut exp, &mut mirror, &mut layers);
    let trace = mirror.trace.as_ref().map(DecisionTrace::digest);
    Traced {
        digest: digest::cell(digest::result(&result), trace),
        result,
        layers,
        migrations: mirror.placement.as_ref().map_or(0, PlacementRuntime::migrations_started),
        net: exp.plane.net_stats(),
    }
}

/// Runs the experiment until its jobs drain or `max_sim_time` passes, as
/// `Experiment::run` does, timing every layer call into `layers`.
fn drive(exp: &mut Experiment, m: &mut Mirror, layers: &mut Layers) -> ExperimentResult {
    let n = exp.servers.len();
    let antagonists: Vec<(VmId, AntagonistPlacement)> = exp.antagonist_vms().to_vec();
    let hosted_vms: u64 = exp.servers.iter().map(|s| s.vm_ids().len() as u64).sum();
    let mut pending_antagonists: Vec<usize> = (0..antagonists.len()).collect();
    let mut finished: Vec<(usize, FinishedProcess)> = Vec::new();
    let mut report = StepReport::default();
    let mut tee_buf: Vec<Sample> = Vec::new();
    let has_jobs = !m.jobs.is_empty();
    let mut submitted = 0usize;
    let mut now = SimTime::ZERO;
    let mut next_sample = SimTime::ZERO + m.sample_interval;

    let start = Instant::now();
    let mut lap = Lap(start);
    while now < m.max_sim_time {
        if has_jobs && m.jobs.is_empty() && submitted > 0 && exp.scheduler.is_idle() {
            break;
        }
        now += m.tick;
        layers.ticks += 1;

        // Due antagonists start on the server the registry holds them on.
        let (servers, cloud, seeds) = (&mut exp.servers, &exp.cloud, &m.antagonist_seeds);
        pending_antagonists.retain(|&i| {
            let (vm, p) = antagonists[i];
            if p.start <= now {
                let host = cloud.record(vm).expect("antagonist registered").server.0 as usize;
                servers[host].spawn(vm, p.kind.spawn(p.duration, seeds[i]));
                false
            } else {
                true
            }
        });
        lap.to(&mut layers.glue);

        if let Some(rt) = m.placement.as_mut() {
            rt.advance(now, &mut exp.servers, &mut exp.cloud, &mut exp.plane);
            lap.to(&mut layers.place);
        }

        while let Some((t, _)) = m.jobs.last() {
            if *t > now {
                break;
            }
            let (t, spec) = m.jobs.pop().expect("peeked");
            lap.to(&mut layers.glue);
            match &m.dolly {
                Some(d) => {
                    d.submit(&mut exp.scheduler, spec, t.max(now));
                }
                None => {
                    exp.scheduler.submit(spec, t.max(now));
                }
            }
            submitted += 1;
            lap.to(&mut layers.sched);
        }

        finished.clear();
        for (i, server) in exp.servers.iter_mut().enumerate() {
            let tick_report = server.tick(m.tick);
            for f in tick_report.finished {
                finished.push((i, f));
            }
        }
        lap.to(&mut layers.host);
        layers.server_ticks += n as u64;
        layers.vm_ticks += hosted_vms;
        layers.procs_finished += finished.len() as u64;

        exp.scheduler.on_tick(now, &mut exp.servers, &finished, m.policy.as_mut());
        lap.to(&mut layers.sched);

        let sampling = now >= next_sample;
        if sampling {
            exp.plane.begin_interval(now, &exp.cloud);
        }
        exp.plane.tick(now, &mut exp.cloud, &mut exp.node_managers);
        lap.to(&mut layers.ctrl);

        if sampling {
            for i in 0..n {
                let stalled = exp.plane.stalled(i, now);
                lap.to(&mut layers.ctrl);
                let nm = &mut exp.node_managers[i];
                nm.step_synced(now, &mut exp.servers[i], stalled, &mut report);
                lap.to(&mut layers.nm);
                if report.restarted {
                    exp.plane.clear_stall(i);
                    lap.to(&mut layers.ctrl);
                }
                while let Some(apps) = exp.node_managers[i].take_colocation_notice() {
                    lap.to(&mut layers.nm);
                    exp.plane.send_colocation(now, i, apps);
                    lap.to(&mut layers.ctrl);
                }
                lap.to(&mut layers.nm);
                if let Some(trace) = m.trace.as_mut() {
                    trace.record(now, i, &report);
                    lap.to(&mut layers.trace);
                }
                layers.nm_steps += 1;
                layers.cap_decisions += (report.io_caps.len() + report.cpu_caps.len()) as u64;
                layers.identified +=
                    (report.io_antagonists.len() + report.cpu_antagonists.len()) as u64;
            }
            if let Some(writer) = m.tee.as_mut() {
                for (i, nm) in exp.node_managers.iter_mut().enumerate() {
                    tee_buf.clear();
                    nm.drain_tee_into(&mut tee_buf);
                    for s in &tee_buf {
                        writer.append(i as u32, s);
                    }
                }
                lap.to(&mut layers.tee);
            }
            next_sample += m.sample_interval;
            if let Some(rt) = m.placement.as_mut() {
                rt.on_sample(now, &exp.node_managers, &mut exp.servers, &exp.cloud, &mut exp.plane);
                lap.to(&mut layers.place);
            }
        }

        if let Some(trace) = m.trace.as_mut() {
            for (at, text) in exp.plane.drain_events() {
                trace.record_ctrl(at, &text);
            }
            lap.to(&mut layers.trace);
        } else {
            exp.plane.drain_events();
            lap.to(&mut layers.ctrl);
        }
    }
    lap.to(&mut layers.glue);
    layers.wall += lap.0 - start;
    layers.trace_lines += m.trace.as_ref().map_or(0, |t| t.lines().len() as u64);
    layers.tee_samples += m.tee.as_ref().map_or(0, |w| w.len() as u64);

    // The experiment's own clock never moved; only the duration differs.
    ExperimentResult { duration: now.saturating_since(SimTime::ZERO), ..exp.result() }
}
