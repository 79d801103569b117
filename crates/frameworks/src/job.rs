//! Jobs, stages, tasks and attempts.
//!
//! A job is a sequence of stages; a stage is a set of tasks that can run in
//! parallel; stage *n+1* starts when every task of stage *n* has completed.
//! MapReduce jobs have two stages (map, reduce); Spark jobs linearize their
//! stage DAG. A *task* may have several *attempts* (the original plus
//! speculative copies or clone-job siblings); the first attempt to finish
//! wins and the rest are killed — the accounting behind the paper's
//! resource-utilization-efficiency metric (Fig. 11c).

use crate::task::TaskSpec;
use perfcloud_host::{ProcessId, VmId};
use perfcloud_sim::SimTime;

/// Identifier of a job within one scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Identifier of a task within the scheduler: job, stage index, task index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    /// Owning job.
    pub job: JobId,
    /// Stage index within the job.
    pub stage: usize,
    /// Task index within the stage.
    pub index: usize,
}

/// Identifier of a task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttemptId(pub u64);

/// One stage of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// The stage's tasks.
    pub tasks: Vec<TaskSpec>,
}

/// A job specification: name plus stages.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable name (benchmark + size), e.g. `"terasort/10m+10r"`.
    pub name: String,
    /// Stages in execution order.
    pub stages: Vec<StageSpec>,
}

impl JobSpec {
    /// Total number of tasks across stages.
    pub fn task_count(&self) -> usize {
        self.stages.iter().map(|s| s.tasks.len()).sum()
    }

    /// Largest stage width (the paper characterizes jobs by tasks-per-stage).
    pub fn max_tasks_per_stage(&self) -> usize {
        self.stages.iter().map(|s| s.tasks.len()).max().unwrap_or(0)
    }
}

/// How an attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Still executing.
    Running,
    /// Finished first and its result was used.
    Won,
    /// Finished but the result was discarded (a sibling won, or the clone
    /// group's winner was another job).
    Discarded,
    /// Killed before finishing.
    Killed,
}

/// One execution attempt of a task.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Attempt identifier.
    pub id: AttemptId,
    /// Index of the hosting server in the experiment's server list.
    pub server_idx: usize,
    /// Hosting VM.
    pub vm: VmId,
    /// Server-local process id of the attempt.
    pub pid: ProcessId,
    /// Launch time.
    pub started: SimTime,
    /// End time (completion or kill).
    pub ended: Option<SimTime>,
    /// How it ended.
    pub outcome: AttemptOutcome,
}

impl Attempt {
    /// Execution time so far (until `now` if still running).
    pub fn runtime(&self, now: SimTime) -> f64 {
        let end = self.ended.unwrap_or(now);
        end.saturating_since(self.started).as_secs_f64()
    }
}

/// Execution state of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskState {
    /// The task's specification.
    pub spec: TaskSpec,
    /// All attempts launched so far.
    pub attempts: Vec<Attempt>,
    /// Completion time (first attempt to finish).
    pub completed_at: Option<SimTime>,
}

impl TaskState {
    pub(crate) fn new(spec: TaskSpec) -> Self {
        TaskState { spec, attempts: Vec::new(), completed_at: None }
    }

    /// True once some attempt has won.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Some stage still has incomplete tasks.
    Running,
    /// All stages completed and (if cloned) this clone won.
    Completed,
    /// Killed because a sibling clone won.
    Cancelled,
}

/// Execution state of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobState {
    /// Identifier.
    pub id: JobId,
    /// Name from the spec.
    pub name: String,
    /// Per-stage task states.
    pub stages: Vec<Vec<TaskState>>,
    /// Index of the stage currently eligible to run.
    pub current_stage: usize,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time, set when the last stage finishes.
    pub completed: Option<SimTime>,
    /// Lifecycle status.
    pub status: JobStatus,
    /// Clone group this job belongs to (Dolly), if any.
    pub clone_group: Option<u64>,
}

impl JobState {
    pub(crate) fn new(
        id: JobId,
        spec: &JobSpec,
        submitted: SimTime,
        clone_group: Option<u64>,
    ) -> Self {
        JobState {
            id,
            name: spec.name.clone(),
            stages: spec
                .stages
                .iter()
                .map(|s| s.tasks.iter().cloned().map(TaskState::new).collect())
                .collect(),
            current_stage: 0,
            submitted,
            completed: None,
            status: JobStatus::Running,
            clone_group,
        }
    }

    /// Job completion time, if finished.
    pub fn jct(&self) -> Option<f64> {
        self.completed.map(|c| c.saturating_since(self.submitted).as_secs_f64())
    }

    /// True if every task of `stage` is complete.
    pub fn stage_complete(&self, stage: usize) -> bool {
        self.stages[stage].iter().all(TaskState::is_complete)
    }
}

/// Final metrics for a logical job (one clone group counts once).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job name.
    pub name: String,
    /// Submission time.
    pub submitted: SimTime,
    /// Job completion time, seconds (winner's completion for clone groups).
    pub jct: f64,
    /// Seconds of task execution whose results were used.
    pub successful_task_secs: f64,
    /// Seconds of all task execution, including killed/discarded attempts.
    pub total_task_secs: f64,
    /// Number of logical tasks.
    pub task_count: usize,
    /// Number of clones launched (1 = not cloned).
    pub clones: usize,
}

impl JobOutcome {
    /// The paper's resource-utilization-efficiency metric: successful task
    /// time over total task time.
    pub fn efficiency(&self) -> f64 {
        if self.total_task_secs <= 0.0 {
            1.0
        } else {
            (self.successful_task_secs / self.total_task_secs).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Phase;

    fn spec(stages: &[usize]) -> JobSpec {
        JobSpec {
            name: "test".into(),
            stages: stages
                .iter()
                .map(|&n| StageSpec {
                    tasks: (0..n)
                        .map(|i| TaskSpec::new(format!("t{i}"), vec![Phase::compute(1e9)]))
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn spec_counts() {
        let s = spec(&[10, 4]);
        assert_eq!(s.task_count(), 14);
        assert_eq!(s.max_tasks_per_stage(), 10);
    }

    #[test]
    fn job_state_tracks_stages() {
        let s = spec(&[2, 1]);
        let mut j = JobState::new(JobId(0), &s, SimTime::ZERO, None);
        assert!(!j.stage_complete(0));
        j.stages[0][0].completed_at = Some(SimTime::from_secs(1));
        assert!(!j.stage_complete(0));
        j.stages[0][1].completed_at = Some(SimTime::from_secs(2));
        assert!(j.stage_complete(0));
        assert_eq!(j.jct(), None);
        j.completed = Some(SimTime::from_secs(5));
        assert_eq!(j.jct(), Some(5.0));
    }

    #[test]
    fn attempt_runtime_until_now_or_end() {
        let a = Attempt {
            id: AttemptId(0),
            server_idx: 0,
            vm: VmId(0),
            pid: ProcessId(0),
            started: SimTime::from_secs(10),
            ended: None,
            outcome: AttemptOutcome::Running,
        };
        assert_eq!(a.runtime(SimTime::from_secs(15)), 5.0);
        let mut done = a.clone();
        done.ended = Some(SimTime::from_secs(12));
        done.outcome = AttemptOutcome::Won;
        assert_eq!(done.runtime(SimTime::from_secs(100)), 2.0);
    }

    #[test]
    fn efficiency_metric() {
        let o = JobOutcome {
            name: "x".into(),
            submitted: SimTime::ZERO,
            jct: 10.0,
            successful_task_secs: 30.0,
            total_task_secs: 40.0,
            task_count: 4,
            clones: 2,
        };
        assert!((o.efficiency() - 0.75).abs() < 1e-12);
        let perfect = JobOutcome { total_task_secs: 0.0, ..o };
        assert_eq!(perfect.efficiency(), 1.0);
    }

    #[test]
    fn new_task_state_has_no_attempts() {
        let t = TaskState::new(TaskSpec::new("t", vec![Phase::compute(1.0)]));
        assert!(!t.is_complete());
        assert!(t.attempts.is_empty());
    }
}
