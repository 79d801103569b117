//! The framework scheduler (JobTracker / Spark master).
//!
//! Slot-based task scheduling over worker VMs: each worker advertises a
//! fixed number of task slots (the paper's VMs have 2 vCPUs → 2 slots);
//! pending tasks of the current stage are dispatched to the freest worker.
//! A task may run several attempts — the original, speculative copies
//! requested by a [`SpeculationPolicy`] (how LATE plugs in), or attempts
//! belonging to Dolly clone jobs submitted via [`FrameworkScheduler::submit_cloned`].
//! The first attempt to finish wins; the scheduler kills the losers and
//! accounts their execution time as waste for the paper's
//! resource-utilization-efficiency metric.

use crate::job::{
    Attempt, AttemptId, AttemptOutcome, JobId, JobOutcome, JobSpec, JobState, JobStatus, TaskId,
};
use crate::task::TaskProcess;
use perfcloud_host::{FinishedProcess, PhysicalServer, VmId};
use perfcloud_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Maximum attempts per task (original + one speculative copy, as in
/// Hadoop's default speculation cap).
pub const MAX_ATTEMPTS_PER_TASK: usize = 2;

/// A worker VM registered with the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Worker {
    /// Index of the hosting server in the experiment's server list.
    pub server_idx: usize,
    /// The worker VM.
    pub vm: VmId,
    /// Concurrent task slots.
    pub slots: u32,
}

/// Snapshot of one running task offered to speculation policies.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningTaskView {
    /// The task.
    pub task: TaskId,
    /// Best progress across its running attempts, in [0, 1].
    pub progress: f64,
    /// Seconds since its earliest running attempt started.
    pub elapsed: f64,
    /// Total attempts launched so far (running or not).
    pub attempts: usize,
    /// Uncontended runtime estimate of the task, seconds.
    pub nominal_seconds: f64,
}

impl RunningTaskView {
    /// Progress rate (progress per second); 0 if just started.
    pub fn progress_rate(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.progress / self.elapsed
        } else {
            0.0
        }
    }

    /// LATE's estimated time to finish: `(1 − progress) / rate`.
    /// Infinite when no progress has been made.
    pub fn estimated_time_left(&self) -> f64 {
        let r = self.progress_rate();
        if r > 0.0 {
            (1.0 - self.progress) / r
        } else {
            f64::INFINITY
        }
    }
}

/// What a speculation policy sees each tick.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerView {
    /// Current time.
    pub now: SimTime,
    /// Running, incomplete tasks of running jobs.
    pub running: Vec<RunningTaskView>,
    /// Free task slots across workers.
    pub free_slots: usize,
    /// Total task slots across workers.
    pub total_slots: usize,
}

/// The `CloneBox` bound on [`SpeculationPolicy`]: policies must be
/// duplicable so a whole experiment can be forked mid-run.
/// Blanket-implemented for any `Clone` policy.
pub trait ClonePolicy {
    /// Boxes a deep copy of `self`.
    fn clone_box(&self) -> Box<dyn SpeculationPolicy>;
}

impl<T: SpeculationPolicy + Clone + 'static> ClonePolicy for T {
    fn clone_box(&self) -> Box<dyn SpeculationPolicy> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn SpeculationPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Hook for straggler-mitigation policies that launch speculative attempts.
///
/// `Send` because experiments (which own their policy) move between sweep
/// worker threads; [`ClonePolicy`] so forking an experiment can deep-copy
/// the policy.
pub trait SpeculationPolicy: Send + ClonePolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;
    /// Returns the tasks to launch one more attempt for. The scheduler
    /// enforces slot availability and [`MAX_ATTEMPTS_PER_TASK`].
    fn plan(&mut self, view: &SchedulerView) -> Vec<TaskId>;
    /// Whether [`plan`](Self::plan) reads the view at all. A policy that
    /// returns `false` is never consulted, so the scheduler skips building
    /// the view for it.
    fn reads_view(&self) -> bool {
        true
    }
}

/// The default: never speculate.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpeculation;

impl SpeculationPolicy for NoSpeculation {
    fn name(&self) -> &'static str {
        "none"
    }
    fn plan(&mut self, _view: &SchedulerView) -> Vec<TaskId> {
        Vec::new()
    }
    fn reads_view(&self) -> bool {
        false
    }
}

#[derive(Clone)]
struct CloneGroup {
    members: Vec<JobId>,
    winner: Option<JobId>,
    name: String,
    submitted: SimTime,
}

/// The scheduler itself.
///
/// Per-tick work is proportional to running jobs and to launch and finish
/// events, not to job history or cluster size: `running_jobs`,
/// `free_slots`, `by_free` and `worker_of` index what would otherwise be
/// scans over `jobs` and `workers`.
#[derive(Clone)]
pub struct FrameworkScheduler {
    workers: Vec<Worker>,
    /// Attempts running on each worker; written only by `set_running`.
    running_on: Vec<usize>,
    /// Σ slots over workers.
    total_slots: usize,
    /// Σ free slots over workers, kept in step by `set_running`.
    free_slots: usize,
    /// `by_free[f]` holds the indices of the workers with `f` free slots.
    by_free: Vec<BTreeSet<usize>>,
    /// `(server_idx, vm)` → worker index.
    worker_of: HashMap<(usize, VmId), usize>,
    jobs: BTreeMap<JobId, JobState>,
    /// Jobs whose status is `Running`, in `JobId` order.
    running_jobs: BTreeSet<JobId>,
    specs: HashMap<JobId, JobSpec>,
    pending: VecDeque<TaskId>,
    pid_index: HashMap<(usize, perfcloud_host::ProcessId), (TaskId, AttemptId)>,
    clone_groups: HashMap<u64, CloneGroup>,
    outcomes: Vec<JobOutcome>,
    next_job: u64,
    next_attempt: u64,
    next_group: u64,
}

impl FrameworkScheduler {
    /// Creates a scheduler over the given workers. Panics if empty.
    pub fn new(workers: Vec<Worker>) -> Self {
        assert!(!workers.is_empty(), "scheduler needs at least one worker");
        let n = workers.len();
        let total_slots = workers.iter().map(|w| w.slots as usize).sum();
        let max_slots = workers.iter().map(|w| w.slots as usize).max().unwrap_or(0);
        let mut by_free = vec![BTreeSet::new(); max_slots + 1];
        let mut worker_of = HashMap::with_capacity(n);
        for (i, w) in workers.iter().enumerate() {
            by_free[w.slots as usize].insert(i);
            let dup = worker_of.insert((w.server_idx, w.vm), i);
            assert!(dup.is_none(), "worker {:?} on server {} registered twice", w.vm, w.server_idx);
        }
        FrameworkScheduler {
            workers,
            running_on: vec![0; n],
            total_slots,
            free_slots: total_slots,
            by_free,
            worker_of,
            jobs: BTreeMap::new(),
            running_jobs: BTreeSet::new(),
            specs: HashMap::new(),
            pending: VecDeque::new(),
            pid_index: HashMap::new(),
            clone_groups: HashMap::new(),
            outcomes: Vec::new(),
            next_job: 0,
            next_attempt: 0,
            next_group: 0,
        }
    }

    /// Submits a job; its first stage becomes dispatchable immediately.
    pub fn submit(&mut self, spec: JobSpec, now: SimTime) -> JobId {
        self.submit_internal(spec, now, None)
    }

    /// Submits `clones` identical copies of a job (Dolly). The first clone
    /// to finish wins; the others are killed. Returns the member job ids.
    pub fn submit_cloned(&mut self, spec: JobSpec, clones: usize, now: SimTime) -> Vec<JobId> {
        assert!(clones >= 1);
        if clones == 1 {
            return vec![self.submit(spec, now)];
        }
        let gid = self.next_group;
        self.next_group += 1;
        let mut members = Vec::with_capacity(clones);
        for _ in 0..clones {
            members.push(self.submit_internal(spec.clone(), now, Some(gid)));
        }
        self.clone_groups.insert(
            gid,
            CloneGroup {
                members: members.clone(),
                winner: None,
                name: spec.name.clone(),
                submitted: now,
            },
        );
        members
    }

    fn submit_internal(&mut self, spec: JobSpec, now: SimTime, group: Option<u64>) -> JobId {
        assert!(!spec.stages.is_empty(), "job must have at least one stage");
        let id = JobId(self.next_job);
        self.next_job += 1;
        let state = JobState::new(id, &spec, now, group);
        for index in 0..state.stages[0].len() {
            self.pending.push_back(TaskId { job: id, stage: 0, index });
        }
        self.jobs.insert(id, state);
        self.running_jobs.insert(id);
        self.specs.insert(id, spec);
        id
    }

    /// One scheduling round: process completions, consult the speculation
    /// policy, dispatch pending tasks.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        servers: &mut [PhysicalServer],
        finished: &[(usize, FinishedProcess)],
        policy: &mut dyn SpeculationPolicy,
    ) {
        self.handle_finished(now, servers, finished);
        self.run_speculation(now, servers, policy);
        self.dispatch(now, servers);
    }

    /// True when no job is still running.
    pub fn is_idle(&self) -> bool {
        self.running_jobs.is_empty()
    }

    /// Outcomes of finished logical jobs (clone groups count once).
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Read access to a job's state.
    #[cfg(test)]
    fn job(&self, id: JobId) -> Option<&JobState> {
        self.jobs.get(&id)
    }

    fn worker_free(&self, widx: usize) -> usize {
        (self.workers[widx].slots as usize).saturating_sub(self.running_on[widx])
    }

    /// Sets the attempt count of worker `widx`, keeping `free_slots` and
    /// `by_free` in step. The only writer of `running_on`.
    fn set_running(&mut self, widx: usize, n: usize) {
        let old = self.worker_free(widx);
        self.running_on[widx] = n;
        let new = self.worker_free(widx);
        if new != old {
            self.free_slots = self.free_slots - old + new;
            self.by_free[old].remove(&widx);
            self.by_free[new].insert(widx);
        }
    }

    /// Picks the freest worker, preferring ones not already running an
    /// attempt of `task` (for speculative copies). Returns its index.
    ///
    /// Any worker not in `avoid_vms` ("clean") beats every avoided one;
    /// among equals the most free slots win, then the lowest index. The
    /// first clean worker of the highest level of `by_free` that has one
    /// is exactly that; each level is probed past at most the avoided
    /// workers.
    fn pick_worker(&self, avoid_vms: &[VmId]) -> Option<usize> {
        let mut fallback = None;
        for level in self.by_free[1..].iter().rev() {
            for &i in level {
                if !avoid_vms.contains(&self.workers[i].vm) {
                    return Some(i);
                }
                fallback = fallback.or(Some(i));
            }
        }
        fallback
    }

    /// `pick_worker` as a scan over every worker: the reference the
    /// index test compares it with.
    #[cfg(test)]
    fn pick_worker_linear(&self, avoid_vms: &[VmId]) -> Option<usize> {
        let mut best: Option<(usize, usize, bool)> = None; // (idx, free, avoided)
        for (i, w) in self.workers.iter().enumerate() {
            let free = self.worker_free(i);
            if free == 0 {
                continue;
            }
            let clean = !avoid_vms.contains(&w.vm);
            let better = match best {
                None => true,
                Some((_, bfree, bclean)) => (clean, free) > (bclean, bfree),
            };
            if better {
                best = Some((i, free, clean));
            }
        }
        best.map(|(i, _, _)| i)
    }

    fn launch_attempt(
        &mut self,
        tid: TaskId,
        now: SimTime,
        servers: &mut [PhysicalServer],
    ) -> bool {
        let avoid: Vec<VmId> = {
            let job = &self.jobs[&tid.job];
            job.stages[tid.stage][tid.index]
                .attempts
                .iter()
                .filter(|a| a.outcome == AttemptOutcome::Running)
                .map(|a| a.vm)
                .collect()
        };
        let Some(widx) = self.pick_worker(&avoid) else {
            return false;
        };
        let w = self.workers[widx];
        let spec = self.jobs[&tid.job].stages[tid.stage][tid.index].spec.clone();
        let pid = servers[w.server_idx].spawn(w.vm, Box::new(TaskProcess::new(spec)));
        let aid = AttemptId(self.next_attempt);
        self.next_attempt += 1;
        self.set_running(widx, self.running_on[widx] + 1);
        self.pid_index.insert((w.server_idx, pid), (tid, aid));
        let job = self.jobs.get_mut(&tid.job).expect("job exists");
        job.stages[tid.stage][tid.index].attempts.push(Attempt {
            id: aid,
            server_idx: w.server_idx,
            vm: w.vm,
            pid,
            started: now,
            ended: None,
            outcome: AttemptOutcome::Running,
        });
        true
    }

    fn worker_index(&self, server_idx: usize, vm: VmId) -> Option<usize> {
        self.worker_of.get(&(server_idx, vm)).copied()
    }

    /// Releases one slot on the worker hosting `vm` on server `server_idx`.
    fn release_slot(&mut self, server_idx: usize, vm: VmId) {
        if let Some(widx) = self.worker_index(server_idx, vm) {
            self.set_running(widx, self.running_on[widx].saturating_sub(1));
        }
    }

    fn kill_attempt(
        &mut self,
        tid: TaskId,
        aid: AttemptId,
        now: SimTime,
        servers: &mut [PhysicalServer],
    ) {
        let job = self.jobs.get_mut(&tid.job).expect("job exists");
        let task = &mut job.stages[tid.stage][tid.index];
        let Some(a) = task.attempts.iter_mut().find(|a| a.id == aid) else {
            return;
        };
        if a.outcome != AttemptOutcome::Running {
            return;
        }
        a.outcome = AttemptOutcome::Killed;
        a.ended = Some(now);
        let (sidx, vm, pid) = (a.server_idx, a.vm, a.pid);
        servers[sidx].kill(vm, pid);
        self.pid_index.remove(&(sidx, pid));
        self.release_slot(sidx, vm);
    }

    fn handle_finished(
        &mut self,
        now: SimTime,
        servers: &mut [PhysicalServer],
        finished: &[(usize, FinishedProcess)],
    ) {
        for (sidx, fin) in finished {
            let Some((tid, aid)) = self.pid_index.remove(&(*sidx, fin.pid)) else {
                continue; // not ours (an antagonist or already-killed attempt)
            };
            self.release_slot(*sidx, fin.vm);
            let job = self.jobs.get_mut(&tid.job).expect("job exists");
            let task = &mut job.stages[tid.stage][tid.index];
            let attempt =
                task.attempts.iter_mut().find(|a| a.id == aid).expect("attempt recorded at launch");
            attempt.ended = Some(now);
            let job_running = job.status == JobStatus::Running;
            if !job_running || task.completed_at.is_some() {
                attempt.outcome = AttemptOutcome::Discarded;
                continue;
            }
            attempt.outcome = AttemptOutcome::Won;
            task.completed_at = Some(now);
            // Kill losing sibling attempts.
            let losers: Vec<AttemptId> = task
                .attempts
                .iter()
                .filter(|a| a.outcome == AttemptOutcome::Running)
                .map(|a| a.id)
                .collect();
            for l in losers {
                self.kill_attempt(tid, l, now, servers);
            }
            self.advance_job(tid.job, now, servers);
        }
    }

    fn advance_job(&mut self, jid: JobId, now: SimTime, servers: &mut [PhysicalServer]) {
        loop {
            let job = self.jobs.get_mut(&jid).expect("job exists");
            if job.status != JobStatus::Running {
                return;
            }
            let stage = job.current_stage;
            if stage >= job.stages.len() || !job.stage_complete(stage) {
                return;
            }
            job.current_stage += 1;
            if job.current_stage == job.stages.len() {
                job.completed = Some(now);
                job.status = JobStatus::Completed;
                let group = job.clone_group;
                self.running_jobs.remove(&jid);
                match group {
                    None => self.finalize_single(jid, now),
                    Some(gid) => self.finalize_group_winner(gid, jid, now, servers),
                }
                return;
            }
            let next = job.current_stage;
            for index in 0..job.stages[next].len() {
                self.pending.push_back(TaskId { job: jid, stage: next, index });
            }
        }
    }

    fn finalize_single(&mut self, jid: JobId, now: SimTime) {
        let job = &self.jobs[&jid];
        let (mut ok, mut total, mut count) = (0.0, 0.0, 0);
        for stage in &job.stages {
            for task in stage {
                count += 1;
                for a in &task.attempts {
                    let rt = a.runtime(now);
                    total += rt;
                    if a.outcome == AttemptOutcome::Won {
                        ok += rt;
                    }
                }
            }
        }
        self.outcomes.push(JobOutcome {
            name: job.name.clone(),
            submitted: job.submitted,
            jct: job.jct().expect("job completed"),
            successful_task_secs: ok,
            total_task_secs: total,
            task_count: count,
            clones: 1,
        });
    }

    fn finalize_group_winner(
        &mut self,
        gid: u64,
        winner: JobId,
        now: SimTime,
        servers: &mut [PhysicalServer],
    ) {
        let members = {
            let g = self.clone_groups.get_mut(&gid).expect("group exists");
            if g.winner.is_some() {
                return; // already decided (shouldn't happen; be safe)
            }
            g.winner = Some(winner);
            g.members.clone()
        };
        // Kill losing clones.
        for &m in &members {
            if m == winner {
                continue;
            }
            let running: Vec<(TaskId, AttemptId)> = {
                let job = &self.jobs[&m];
                job.stages
                    .iter()
                    .enumerate()
                    .flat_map(|(si, stage)| {
                        stage.iter().enumerate().flat_map(move |(ti, task)| {
                            task.attempts
                                .iter()
                                .filter(|a| a.outcome == AttemptOutcome::Running)
                                .map(move |a| (TaskId { job: m, stage: si, index: ti }, a.id))
                        })
                    })
                    .collect()
            };
            for (tid, aid) in running {
                self.kill_attempt(tid, aid, now, servers);
            }
            let job = self.jobs.get_mut(&m).expect("member exists");
            if job.status == JobStatus::Running {
                job.status = JobStatus::Cancelled;
                self.running_jobs.remove(&m);
            }
            // Drop its pending tasks.
            self.pending.retain(|t| t.job != m);
        }
        // Aggregate the group outcome.
        let g = &self.clone_groups[&gid];
        let (mut ok, mut total) = (0.0, 0.0);
        let mut count = 0;
        for &m in &members {
            let job = &self.jobs[&m];
            for stage in &job.stages {
                for task in stage {
                    for a in &task.attempts {
                        let rt = a.runtime(now);
                        total += rt;
                        if m == winner && a.outcome == AttemptOutcome::Won {
                            ok += rt;
                        }
                    }
                }
            }
            if m == winner {
                count = job.stages.iter().map(Vec::len).sum();
            }
        }
        let winner_job = &self.jobs[&winner];
        self.outcomes.push(JobOutcome {
            name: g.name.clone(),
            submitted: g.submitted,
            jct: winner_job
                .completed
                .expect("winner completed")
                .saturating_since(g.submitted)
                .as_secs_f64(),
            successful_task_secs: ok,
            total_task_secs: total,
            task_count: count,
            clones: members.len(),
        });
    }

    fn build_view(&self, now: SimTime, servers: &[PhysicalServer]) -> SchedulerView {
        let mut running = Vec::new();
        for jid in &self.running_jobs {
            let job = &self.jobs[jid];
            let stage = job.current_stage.min(job.stages.len() - 1);
            for (ti, task) in job.stages[stage].iter().enumerate() {
                if task.is_complete() {
                    continue;
                }
                let mut progress: f64 = 0.0;
                let mut earliest: Option<SimTime> = None;
                let mut any_running = false;
                for a in &task.attempts {
                    if a.outcome != AttemptOutcome::Running {
                        continue;
                    }
                    any_running = true;
                    if let Some(p) = servers[a.server_idx].process_progress(a.vm, a.pid) {
                        progress = progress.max(p);
                    }
                    earliest = Some(match earliest {
                        None => a.started,
                        Some(e) => e.min(a.started),
                    });
                }
                if !any_running {
                    continue;
                }
                running.push(RunningTaskView {
                    task: TaskId { job: *jid, stage, index: ti },
                    progress,
                    elapsed: now
                        .saturating_since(earliest.expect("running attempt has start"))
                        .as_secs_f64(),
                    attempts: task.attempts.len(),
                    nominal_seconds: task.spec.nominal_seconds(),
                });
            }
        }
        SchedulerView { now, running, free_slots: self.free_slots, total_slots: self.total_slots }
    }

    fn run_speculation(
        &mut self,
        now: SimTime,
        servers: &mut [PhysicalServer],
        policy: &mut dyn SpeculationPolicy,
    ) {
        if !policy.reads_view() || self.free_slots == 0 {
            return;
        }
        let view = self.build_view(now, servers);
        if view.running.is_empty() {
            return;
        }
        let mut requested = policy.plan(&view);
        requested.dedup();
        for tid in requested {
            let Some(job) = self.jobs.get(&tid.job) else { continue };
            if job.status != JobStatus::Running {
                continue;
            }
            let task = &job.stages[tid.stage][tid.index];
            if task.is_complete() || task.attempts.len() >= MAX_ATTEMPTS_PER_TASK {
                continue;
            }
            if self.free_slots == 0 {
                break;
            }
            self.launch_attempt(tid, now, servers);
        }
    }

    fn dispatch(&mut self, now: SimTime, servers: &mut [PhysicalServer]) {
        let mut requeue = VecDeque::new();
        while self.free_slots > 0 {
            let Some(tid) = self.pending.pop_front() else { break };
            let job = &self.jobs[&tid.job];
            if job.status != JobStatus::Running || job.stages[tid.stage][tid.index].is_complete() {
                continue;
            }
            if !self.launch_attempt(tid, now, servers) {
                requeue.push_back(tid);
                break;
            }
        }
        while let Some(t) = requeue.pop_front() {
            self.pending.push_front(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::StageSpec;
    use crate::task::{Phase, TaskSpec};
    use perfcloud_host::{ServerConfig, ServerId, VmConfig};
    use perfcloud_sim::{RngFactory, SimDuration};

    const DT: SimDuration = SimDuration::from_micros(100_000);

    fn testbed(workers_per_server: u32, servers: usize) -> (Vec<PhysicalServer>, Vec<Worker>) {
        let mut srv = Vec::new();
        let mut workers = Vec::new();
        let mut vm_counter = 0;
        for s in 0..servers {
            let mut server = PhysicalServer::new(
                ServerId(s as u32),
                ServerConfig::default(),
                RngFactory::new(40 + s as u64),
                DT,
            );
            for _ in 0..workers_per_server {
                let vm = VmId(vm_counter);
                vm_counter += 1;
                server.add_vm(vm, VmConfig::high_priority());
                workers.push(Worker { server_idx: s, vm, slots: 2 });
            }
            srv.push(server);
        }
        (srv, workers)
    }

    fn cpu_job(name: &str, tasks: &[usize], instr: f64) -> JobSpec {
        JobSpec {
            name: name.into(),
            stages: tasks
                .iter()
                .map(|&n| StageSpec {
                    tasks: (0..n)
                        .map(|i| TaskSpec::new(format!("{name}-t{i}"), vec![Phase::compute(instr)]))
                        .collect(),
                })
                .collect(),
        }
    }

    fn drive(
        sched: &mut FrameworkScheduler,
        servers: &mut [PhysicalServer],
        policy: &mut dyn SpeculationPolicy,
        max_ticks: usize,
    ) -> usize {
        let mut now = SimTime::ZERO;
        for tick in 0..max_ticks {
            now += DT;
            let mut finished = Vec::new();
            for (i, s) in servers.iter_mut().enumerate() {
                let rep = s.tick(DT);
                for f in rep.finished {
                    finished.push((i, f));
                }
            }
            sched.on_tick(now, servers, &finished, policy);
            if sched.is_idle() {
                return tick + 1;
            }
        }
        panic!("scheduler did not drain in {max_ticks} ticks");
    }

    #[test]
    fn single_stage_job_completes() {
        let (mut servers, workers) = testbed(2, 1);
        let mut sched = FrameworkScheduler::new(workers);
        sched.submit(cpu_job("j", &[4], 2.3e8), SimTime::ZERO);
        sched.dispatch(SimTime::ZERO, &mut servers);
        drive(&mut sched, &mut servers, &mut NoSpeculation, 1000);
        assert_eq!(sched.outcomes().len(), 1);
        let o = &sched.outcomes()[0];
        assert_eq!(o.task_count, 4);
        assert!(o.jct > 0.0);
        assert!((o.efficiency() - 1.0).abs() < 1e-9, "no kills => perfect efficiency");
    }

    #[test]
    fn stages_run_sequentially() {
        let (mut servers, workers) = testbed(2, 1);
        let mut sched = FrameworkScheduler::new(workers);
        let jid = sched.submit(cpu_job("j", &[2, 2], 2.3e9), SimTime::ZERO);
        sched.dispatch(SimTime::ZERO, &mut servers);
        // While stage 0 incomplete, stage 1 has no attempts.
        let mut now = SimTime::ZERO;
        for _ in 0..2 {
            now += DT;
            let mut fin = Vec::new();
            for (i, s) in servers.iter_mut().enumerate() {
                for f in s.tick(DT).finished {
                    fin.push((i, f));
                }
            }
            sched.on_tick(now, &mut servers, &fin, &mut NoSpeculation);
        }
        let job = sched.job(jid).unwrap();
        assert!(job.stages[1].iter().all(|t| t.attempts.is_empty()));
        drive(&mut sched, &mut servers, &mut NoSpeculation, 1000);
        let job = sched.job(jid).unwrap();
        assert_eq!(job.status, JobStatus::Completed);
        assert!(job.stages[1].iter().all(|t| t.is_complete()));
    }

    #[test]
    fn slots_limit_concurrency() {
        let (mut servers, workers) = testbed(1, 1); // 1 worker × 2 slots
        let mut sched = FrameworkScheduler::new(workers);
        sched.submit(cpu_job("j", &[8], 2.3e9), SimTime::ZERO);
        sched.dispatch(SimTime::ZERO, &mut servers);
        assert_eq!(sched.free_slots, 0);
        assert_eq!(servers[0].process_count(VmId(0)), 2, "only 2 of 8 tasks running");
        drive(&mut sched, &mut servers, &mut NoSpeculation, 5000);
        assert_eq!(sched.outcomes().len(), 1);
    }

    #[test]
    fn cloned_job_counts_once_and_wastes_work() {
        let (mut servers, workers) = testbed(4, 2);
        let mut sched = FrameworkScheduler::new(workers);
        let members = sched.submit_cloned(cpu_job("j", &[2], 2.3e8), 3, SimTime::ZERO);
        assert_eq!(members.len(), 3);
        sched.dispatch(SimTime::ZERO, &mut servers);
        drive(&mut sched, &mut servers, &mut NoSpeculation, 1000);
        assert_eq!(sched.outcomes().len(), 1, "clone group reports one outcome");
        let o = &sched.outcomes()[0];
        assert_eq!(o.clones, 3);
        assert!(o.efficiency() < 0.9, "losing clones waste work: {}", o.efficiency());
        // Exactly one member Completed; others Cancelled (or Completed-then-
        // discarded is impossible since the winner cancels them).
        let done = members
            .iter()
            .filter(|&&m| sched.job(m).unwrap().status == JobStatus::Completed)
            .count();
        let cancelled = members
            .iter()
            .filter(|&&m| sched.job(m).unwrap().status == JobStatus::Cancelled)
            .count();
        assert_eq!(done, 1);
        assert_eq!(cancelled, 2);
    }

    /// A policy that speculates every running task immediately.
    #[derive(Clone)]
    struct AlwaysSpeculate;
    impl SpeculationPolicy for AlwaysSpeculate {
        fn name(&self) -> &'static str {
            "always"
        }
        fn plan(&mut self, view: &SchedulerView) -> Vec<TaskId> {
            view.running.iter().map(|r| r.task).collect()
        }
    }

    #[test]
    fn speculation_launches_bounded_copies() {
        let (mut servers, workers) = testbed(4, 1);
        let mut sched = FrameworkScheduler::new(workers);
        let jid = sched.submit(cpu_job("j", &[2], 2.3e9), SimTime::ZERO);
        sched.dispatch(SimTime::ZERO, &mut servers);
        let mut pol = AlwaysSpeculate;
        drive(&mut sched, &mut servers, &mut pol, 2000);
        let job = sched.job(jid).unwrap();
        for task in &job.stages[0] {
            assert!(task.attempts.len() <= MAX_ATTEMPTS_PER_TASK);
            assert!(!task.attempts.is_empty());
        }
        // With duplicates, some work is wasted.
        let o = &sched.outcomes()[0];
        assert!(o.total_task_secs >= o.successful_task_secs);
    }

    #[test]
    fn speculative_copy_lands_on_a_different_vm() {
        let (mut servers, workers) = testbed(4, 1);
        let mut sched = FrameworkScheduler::new(workers);
        let jid = sched.submit(cpu_job("j", &[1], 2.3e9), SimTime::ZERO);
        sched.dispatch(SimTime::ZERO, &mut servers);
        let mut pol = AlwaysSpeculate;
        // One tick to start speculation.
        let mut now = SimTime::ZERO;
        now += DT;
        let mut fin = Vec::new();
        for (i, s) in servers.iter_mut().enumerate() {
            for f in s.tick(DT).finished {
                fin.push((i, f));
            }
        }
        sched.on_tick(now, &mut servers, &fin, &mut pol);
        let job = sched.job(jid).unwrap();
        let attempts = &job.stages[0][0].attempts;
        assert_eq!(attempts.len(), 2);
        assert_ne!(attempts[0].vm, attempts[1].vm);
    }

    #[test]
    fn multiple_jobs_share_the_cluster() {
        let (mut servers, workers) = testbed(3, 2);
        let mut sched = FrameworkScheduler::new(workers);
        for k in 0..4 {
            sched.submit(cpu_job(&format!("j{k}"), &[3], 2.3e8), SimTime::ZERO);
        }
        sched.dispatch(SimTime::ZERO, &mut servers);
        drive(&mut sched, &mut servers, &mut NoSpeculation, 2000);
        assert_eq!(sched.outcomes().len(), 4);
    }

    #[test]
    fn outcome_jct_reflects_contention() {
        // 8 tasks on 2 slots must take ~4x longer than 2 tasks on 2 slots.
        let run = |ntasks: usize| {
            let (mut servers, workers) = testbed(1, 1);
            let mut sched = FrameworkScheduler::new(workers);
            sched.submit(cpu_job("j", &[ntasks], 2.3e8), SimTime::ZERO);
            sched.dispatch(SimTime::ZERO, &mut servers);
            drive(&mut sched, &mut servers, &mut NoSpeculation, 4000);
            sched.outcomes()[0].jct
        };
        let small = run(2);
        let big = run(8);
        assert!(big >= 3.0 * small, "small {small} big {big}");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_worker_set_rejected() {
        let _ = FrameworkScheduler::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_worker_rejected() {
        let w = Worker { server_idx: 0, vm: VmId(0), slots: 2 };
        let _ = FrameworkScheduler::new(vec![w, w]);
    }

    /// Three servers whose workers have 1, 2 and 3 slots in turn.
    fn mixed_testbed() -> (Vec<PhysicalServer>, Vec<Worker>) {
        let (servers, mut workers) = testbed(3, 3);
        for (i, w) in workers.iter_mut().enumerate() {
            w.slots = 1 + (i % 3) as u32;
        }
        (servers, workers)
    }

    /// Every index equals its brute-force recomputation.
    fn assert_indexes_match(sched: &FrameworkScheduler, servers: &[PhysicalServer]) {
        let running: BTreeSet<JobId> = sched
            .jobs
            .iter()
            .filter(|(_, j)| j.status == JobStatus::Running)
            .map(|(&id, _)| id)
            .collect();
        assert_eq!(sched.running_jobs, running);
        assert_eq!(sched.is_idle(), running.is_empty());
        let n = sched.workers.len();
        for (i, w) in sched.workers.iter().enumerate() {
            assert_eq!(sched.running_on[i], servers[w.server_idx].process_count(w.vm));
        }
        let slots: usize = sched.workers.iter().map(|w| w.slots as usize).sum();
        assert_eq!(sched.total_slots, slots);
        let free: usize = sched
            .workers
            .iter()
            .zip(&sched.running_on)
            .map(|(w, &r)| (w.slots as usize).saturating_sub(r))
            .sum();
        assert_eq!(sched.free_slots, free);
        for (f, level) in sched.by_free.iter().enumerate() {
            let expect: BTreeSet<usize> = (0..n).filter(|&i| sched.worker_free(i) == f).collect();
            assert_eq!(level, &expect, "workers with {f} free slots");
        }
        assert_eq!(sched.worker_of.len(), n);
        for w in &sched.workers {
            let scan =
                sched.workers.iter().position(|x| x.server_idx == w.server_idx && x.vm == w.vm);
            assert_eq!(sched.worker_index(w.server_idx, w.vm), scan);
        }
    }

    #[test]
    fn indexes_match_brute_force_and_pick_matches_linear_scan() {
        use rand::Rng;
        let (mut servers, workers) = mixed_testbed();
        let nvm = workers.len() as u32;
        let mut sched = FrameworkScheduler::new(workers);
        sched.submit(cpu_job("a", &[5, 3], 2.3e8), SimTime::ZERO);
        sched.submit_cloned(cpu_job("b", &[4], 4.6e8), 3, SimTime::ZERO);
        sched.submit(cpu_job("c", &[9, 2, 4], 1.2e8), SimTime::ZERO);
        sched.submit_cloned(cpu_job("d", &[2, 6], 2.3e8), 2, SimTime::ZERO);
        let mut rng = RngFactory::new(5).stream("avoid");
        let mut pol = AlwaysSpeculate;
        let mut now = SimTime::ZERO;
        sched.on_tick(now, &mut servers, &[], &mut pol);
        assert_indexes_match(&sched, &servers);
        let mut ticks = 0;
        while !sched.is_idle() {
            now += DT;
            let mut fin = Vec::new();
            for (i, s) in servers.iter_mut().enumerate() {
                for f in s.tick(DT).finished {
                    fin.push((i, f));
                }
            }
            sched.on_tick(now, &mut servers, &fin, &mut pol);
            assert_indexes_match(&sched, &servers);
            // Short lists as a speculative copy sees them, long ones that
            // can cover every free worker (both may name a VM one past the
            // last worker's), and every worker avoided.
            for k in 0..9 {
                let avoid: Vec<VmId> = if k == 8 {
                    (0..nvm).map(VmId).collect()
                } else {
                    let len = rng.gen_range(0..if k < 4 { 4 } else { nvm + 2 });
                    (0..len).map(|_| VmId(rng.gen_range(0..nvm + 1))).collect()
                };
                assert_eq!(
                    sched.pick_worker(&avoid),
                    sched.pick_worker_linear(&avoid),
                    "{avoid:?}"
                );
            }
            ticks += 1;
            assert!(ticks < 5000, "scheduler did not drain");
        }
        assert_eq!(sched.outcomes().len(), 4);
    }

    /// A policy that never reads the view and must never be consulted.
    #[derive(Clone)]
    struct Blind;
    impl SpeculationPolicy for Blind {
        fn name(&self) -> &'static str {
            "blind"
        }
        fn plan(&mut self, _view: &SchedulerView) -> Vec<TaskId> {
            panic!("plan called on a policy that does not read the view")
        }
        fn reads_view(&self) -> bool {
            false
        }
    }

    #[test]
    fn policy_that_reads_no_view_is_never_consulted() {
        let (mut servers, workers) = mixed_testbed();
        let mut sched = FrameworkScheduler::new(workers);
        sched.submit(cpu_job("a", &[5, 3], 2.3e8), SimTime::ZERO);
        sched.submit_cloned(cpu_job("b", &[4], 2.3e8), 2, SimTime::ZERO);
        sched.submit(cpu_job("c", &[12], 1.2e8), SimTime::ZERO);
        sched.on_tick(SimTime::ZERO, &mut servers, &[], &mut Blind);
        drive(&mut sched, &mut servers, &mut Blind, 5000);
        assert_eq!(sched.outcomes().len(), 3);
    }
}
