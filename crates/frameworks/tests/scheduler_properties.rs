//! Property-based tests of the framework scheduler's invariants under
//! randomized job shapes, cluster shapes and speculation.

use perfcloud_frameworks::job::{JobSpec, StageSpec, TaskId};
use perfcloud_frameworks::scheduler::{
    FrameworkScheduler, NoSpeculation, SchedulerView, SpeculationPolicy, Worker,
    MAX_ATTEMPTS_PER_TASK,
};
use perfcloud_frameworks::task::{Phase, TaskSpec};
use perfcloud_host::{PhysicalServer, ServerConfig, ServerId, VmConfig, VmId};
use perfcloud_sim::{RngFactory, SimDuration, SimTime};
use proptest::prelude::*;

const DT: SimDuration = SimDuration::from_micros(100_000);

/// `servers` servers with `workers` worker VMs each; VM ids are unique
/// across the cluster.
fn testbed(servers: usize, workers: u32, slots: u32) -> (Vec<PhysicalServer>, Vec<Worker>) {
    let mut srv = Vec::new();
    let mut ws = Vec::new();
    for s in 0..servers {
        let mut server = PhysicalServer::new(
            ServerId(s as u32),
            ServerConfig::default(),
            RngFactory::new(19 + s as u64),
            DT,
        );
        for i in 0..workers {
            let vm = VmId(s as u32 * workers + i);
            server.add_vm(vm, VmConfig::high_priority());
            ws.push(Worker { server_idx: s, vm, slots });
        }
        srv.push(server);
    }
    (srv, ws)
}

fn job(name: &str, stages: &[u8], instructions: f64) -> JobSpec {
    JobSpec {
        name: name.into(),
        stages: stages
            .iter()
            .map(|&n| StageSpec {
                tasks: (0..n.max(1))
                    .map(|i| {
                        TaskSpec::new(format!("{name}-{i}"), vec![Phase::compute(instructions)])
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Requests a copy of every running task and records the most attempts
/// any task in a view had. The scheduler builds the view whenever a slot
/// is free.
#[derive(Clone, Default)]
struct SpeculateAll {
    max_attempts: usize,
}

impl SpeculationPolicy for SpeculateAll {
    fn name(&self) -> &'static str {
        "all"
    }
    fn plan(&mut self, view: &SchedulerView) -> Vec<TaskId> {
        for r in &view.running {
            self.max_attempts = self.max_attempts.max(r.attempts);
        }
        view.running.iter().map(|r| r.task).collect()
    }
}

/// Submits `shapes` (alternating plain and `clones`-way cloned jobs) of
/// tasks that each compute `instructions`, and ticks until the scheduler is idle, checking the per-worker slot
/// invariant every tick. Returns the scheduler and the logical job names.
fn drain(
    servers: usize,
    workers: u32,
    slots: u32,
    shapes: &[Vec<u8>],
    clones: usize,
    instructions: f64,
    policy: &mut dyn SpeculationPolicy,
) -> (FrameworkScheduler, Vec<String>) {
    let (mut srv, ws) = testbed(servers, workers, slots);
    let mut sched = FrameworkScheduler::new(ws.clone());
    let mut names = Vec::new();
    for (k, shape) in shapes.iter().enumerate() {
        let spec = job(&format!("j{k}"), shape, instructions);
        names.push(spec.name.clone());
        if k % 2 == 0 {
            sched.submit(spec, SimTime::ZERO);
        } else {
            sched.submit_cloned(spec, clones, SimTime::ZERO);
        }
    }
    let mut now = SimTime::ZERO;
    sched.on_tick(now, &mut srv, &[], policy);
    let mut ticks = 0;
    while !sched.is_idle() {
        now += DT;
        let mut fin = Vec::new();
        for (i, s) in srv.iter_mut().enumerate() {
            for f in s.tick(DT).finished {
                fin.push((i, f));
            }
        }
        sched.on_tick(now, &mut srv, &fin, policy);
        // Invariant: no worker runs more attempts than it has slots.
        for w in &ws {
            let running = srv[w.server_idx].process_count(w.vm);
            assert!(running <= w.slots as usize, "{running} attempts on {:?} > {}", w.vm, w.slots);
        }
        ticks += 1;
        assert!(ticks < 40_000, "scheduler did not drain");
    }
    (sched, names)
}

/// Each logical job reports exactly one outcome.
fn each_job_finished_once(sched: &FrameworkScheduler, names: &[String]) {
    let mut reported: Vec<&str> = sched.outcomes().iter().map(|o| o.name.as_str()).collect();
    reported.sort_unstable();
    let mut expected: Vec<&str> = names.iter().map(String::as_str).collect();
    expected.sort_unstable();
    assert_eq!(reported, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any mix of jobs drains; every logical job finishes exactly once;
    /// no worker runs more attempts than its slots; efficiency of
    /// non-speculative runs is 1.
    #[test]
    fn scheduler_drains_all_jobs(
        shapes in proptest::collection::vec(
            proptest::collection::vec(1u8..6, 1..4),
            1..5,
        ),
        servers in 1usize..4,
        workers in 1u32..4,
        slots in 1u32..3,
        clones in 1usize..4,
    ) {
        let (sched, names) = drain(servers, workers, slots, &shapes, clones, 2.0e8, &mut NoSpeculation);
        each_job_finished_once(&sched, &names);
        for o in sched.outcomes() {
            prop_assert!(o.jct > 0.0);
            prop_assert!(o.successful_task_secs <= o.total_task_secs + 1e-9);
            if o.clones == 1 {
                prop_assert!((o.efficiency() - 1.0).abs() < 1e-9,
                    "un-cloned, un-speculated jobs waste nothing");
            }
        }
    }

    /// Under a policy that asks to copy every running task, no task gets
    /// more than `MAX_ATTEMPTS_PER_TASK` attempts and every logical job
    /// still finishes exactly once.
    #[test]
    fn speculation_caps_attempts_and_finishes_each_job_once(
        shapes in proptest::collection::vec(
            proptest::collection::vec(1u8..6, 1..4),
            1..5,
        ),
        servers in 1usize..4,
        workers in 1u32..4,
        slots in 1u32..4,
        clones in 1usize..4,
    ) {
        // Tasks several ticks long, so copies overlap their originals.
        let mut policy = SpeculateAll::default();
        let (sched, names) = drain(servers, workers, slots, &shapes, clones, 1.0e9, &mut policy);
        prop_assert!(policy.max_attempts <= MAX_ATTEMPTS_PER_TASK,
            "a task had {} attempts", policy.max_attempts);
        each_job_finished_once(&sched, &names);
        for o in sched.outcomes() {
            prop_assert!(o.jct > 0.0);
            prop_assert!(o.successful_task_secs <= o.total_task_secs + 1e-9);
        }
    }
}
