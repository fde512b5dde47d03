//! Deterministic fault injection and the failure taxonomy of the simulated
//! cluster.
//!
//! MEMPHIS's reuse/eviction story rests on Spark's guarantee that any lost
//! or evicted partition can be recomputed from lineage. A [`FaultPlan`]
//! (injected via [`crate::config::SparkConfig`]) lets tests and experiments
//! exercise exactly that guarantee under pressure: it can fail individual
//! task attempts, kill executors at stage boundaries, and drop cached
//! partitions or shuffle map outputs at job boundaries.
//!
//! **Determinism.** Every fault decision is a pure hash of the plan seed
//! and *run-stable* coordinates — the job sequence number within the
//! context, the stage sequence number within the job, the partition index,
//! and the attempt number. Raw `RddId`/`ShuffleId` values are never hashed
//! (they come from process-global counters and differ between otherwise
//! identical runs); cached partitions are instead tagged with a hash of
//! their RDD's *name*. Consequently a driver program that issues jobs
//! sequentially sees the identical fault schedule on every run with the
//! same seed, independent of executor thread count, and the chaos suite is
//! reproducible in CI.

use memphis_matrix::hash::{decide4, fnv1a, FNV_OFFSET};
use std::fmt;

/// Stable tag for an RDD used in cache-drop decisions: a hash of the
/// operator *name* (assigned at creation), which — unlike the RDD id — is
/// identical across repeated runs of the same driver program.
pub fn name_tag(name: &str) -> u64 {
    fnv1a(FNV_OFFSET, name.as_bytes())
}

/// A planned executor loss: before stage `stage` of job `job` starts, the
/// executor dies, invalidating its cached partitions and shuffle map
/// outputs (attributed deterministically by `partition % num_executors`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorKill {
    /// Job sequence number within the context (0-based, in action order).
    pub job: u64,
    /// Stage sequence number within the job (0-based; ancestor map stages
    /// first in topological order, the result stage last). Killing before
    /// the result stage of a shuffle job loses freshly written map outputs
    /// and exercises fetch-failure-driven stage resubmission.
    pub stage: u64,
    /// The executor to lose.
    pub executor: usize,
}

/// Seeded, deterministic fault-injection plan for a simulated cluster.
///
/// The default plan injects nothing; `FaultPlan::seeded(seed)` is the
/// starting point for chaos configurations.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions.
    pub seed: u64,
    /// Probability that any individual task *attempt* fails at launch
    /// (before side effects). Retried up to
    /// [`crate::config::SparkConfig::task_max_failures`] times.
    pub task_failure_rate: f64,
    /// Probability, evaluated at each job start for each cached partition,
    /// that the partition is dropped (as if its host died between jobs).
    pub cached_drop_rate: f64,
    /// Probability, evaluated at each job start for each retained shuffle
    /// map output, that the output is lost — forcing a fetch failure and a
    /// partial map-stage resubmission when next read.
    pub shuffle_drop_rate: f64,
    /// Planned executor losses at exact (job, stage) boundaries.
    pub executor_kills: Vec<ExecutorKill>,
    /// Probability that a durable disk record write is *torn*: only a
    /// prefix of the record reaches the file and the store crashes (as if
    /// the process died mid-`write`). Keyed by the store's write sequence
    /// number.
    pub disk_torn_write_rate: f64,
    /// Probability that a durable record is silently bit-flipped on its
    /// way to disk. The write is acknowledged normally; the corruption is
    /// only detectable by the record checksum at read/recovery time.
    pub disk_corrupt_rate: f64,
    /// Probability that an fsync "succeeds" while actually losing every
    /// byte written since the previous sync, then crashing the store —
    /// the classic lying-disk/partial-fsync power-loss failure. Keyed by
    /// the store's sync sequence number.
    pub disk_partial_fsync_rate: f64,
    /// Deterministic kill switch: crash the durable store at exactly the
    /// Nth sync point (1-based; every segment fsync, manifest fsync, and
    /// manifest rename is one sync point). Bytes written since the
    /// previous sync are lost. Drives the kill-at-every-sync sweep.
    pub disk_kill_at_sync: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        Self {
            seed: 0,
            task_failure_rate: 0.0,
            cached_drop_rate: 0.0,
            shuffle_drop_rate: 0.0,
            executor_kills: Vec::new(),
            disk_torn_write_rate: 0.0,
            disk_corrupt_rate: 0.0,
            disk_partial_fsync_rate: 0.0,
            disk_kill_at_sync: None,
        }
    }

    /// An empty plan carrying a seed, to be populated with rates/kills.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::none()
        }
    }

    /// Sets the per-attempt task failure rate.
    pub fn with_task_failure_rate(mut self, rate: f64) -> Self {
        self.task_failure_rate = rate;
        self
    }

    /// Sets the per-job cached-partition drop rate.
    pub fn with_cached_drop_rate(mut self, rate: f64) -> Self {
        self.cached_drop_rate = rate;
        self
    }

    /// Sets the per-job shuffle-map-output drop rate.
    pub fn with_shuffle_drop_rate(mut self, rate: f64) -> Self {
        self.shuffle_drop_rate = rate;
        self
    }

    /// Adds a planned executor kill.
    pub fn with_executor_kill(mut self, job: u64, stage: u64, executor: usize) -> Self {
        self.executor_kills.push(ExecutorKill {
            job,
            stage,
            executor,
        });
        self
    }

    /// Sets the torn-disk-write rate.
    pub fn with_disk_torn_write_rate(mut self, rate: f64) -> Self {
        self.disk_torn_write_rate = rate;
        self
    }

    /// Sets the silent record-corruption rate.
    pub fn with_disk_corrupt_rate(mut self, rate: f64) -> Self {
        self.disk_corrupt_rate = rate;
        self
    }

    /// Sets the partial-fsync (lying disk) rate.
    pub fn with_disk_partial_fsync_rate(mut self, rate: f64) -> Self {
        self.disk_partial_fsync_rate = rate;
        self
    }

    /// Crashes the durable store at exactly the Nth sync point (1-based).
    pub fn with_disk_kill_at_sync(mut self, sync_point: u64) -> Self {
        self.disk_kill_at_sync = Some(sync_point);
        self
    }

    /// True when the plan can inject at least one *disk* fault. Separate
    /// from [`FaultPlan::is_active`], which gates cluster-level behavior
    /// (lazy-GC downgrades) and must not change when only disk faults are
    /// configured.
    pub fn disk_faults_active(&self) -> bool {
        self.disk_torn_write_rate > 0.0
            || self.disk_corrupt_rate > 0.0
            || self.disk_partial_fsync_rate > 0.0
            || self.disk_kill_at_sync.is_some()
    }

    /// Should the `write_seq`-th durable record write be torn?
    pub fn should_tear_disk_write(&self, write_seq: u64) -> bool {
        self.disk_torn_write_rate > 0.0
            && decide4(self.seed, 4, [write_seq, 0, 0, 0]) < self.disk_torn_write_rate
    }

    /// Should the `write_seq`-th durable record be silently bit-flipped?
    pub fn should_corrupt_disk_record(&self, write_seq: u64) -> bool {
        self.disk_corrupt_rate > 0.0
            && decide4(self.seed, 5, [write_seq, 0, 0, 0]) < self.disk_corrupt_rate
    }

    /// Should the `sync_seq`-th fsync lie (lose unsynced bytes + crash)?
    pub fn should_drop_fsync(&self, sync_seq: u64) -> bool {
        self.disk_partial_fsync_rate > 0.0
            && decide4(self.seed, 6, [sync_seq, 0, 0, 0]) < self.disk_partial_fsync_rate
    }

    /// Is `sync_seq` the planned deterministic kill point?
    pub fn should_kill_at_sync(&self, sync_seq: u64) -> bool {
        self.disk_kill_at_sync == Some(sync_seq)
    }

    /// True when the plan can inject at least one fault (fast-path gate).
    pub fn is_active(&self) -> bool {
        self.task_failure_rate > 0.0
            || self.cached_drop_rate > 0.0
            || self.shuffle_drop_rate > 0.0
            || !self.executor_kills.is_empty()
    }

    /// Should the given task attempt fail at launch?
    pub fn should_fail_task(&self, job: u64, stage: u64, partition: usize, attempt: u64) -> bool {
        self.task_failure_rate > 0.0
            && decide4(self.seed, 1, [job, stage, partition as u64, attempt])
                < self.task_failure_rate
    }

    /// Should this cached partition be dropped at the start of `job`?
    /// `tag` is the RDD's [`name_tag`] (stored by the block manager).
    pub fn should_drop_cached(&self, job: u64, tag: u64, partition: usize) -> bool {
        self.cached_drop_rate > 0.0
            && decide4(self.seed, 2, [job, tag, partition as u64, 0]) < self.cached_drop_rate
    }

    /// Should this retained shuffle map output be dropped at the start of
    /// `job`? Keyed by map partition only (shuffle ids are not run-stable).
    pub fn should_drop_shuffle_output(&self, job: u64, map_partition: usize) -> bool {
        self.shuffle_drop_rate > 0.0
            && decide4(self.seed, 3, [job, map_partition as u64, 0, 0]) < self.shuffle_drop_rate
    }

    /// Executors scheduled to die right before (job, stage) starts.
    pub fn kills_at(&self, job: u64, stage: u64) -> impl Iterator<Item = usize> + '_ {
        self.executor_kills
            .iter()
            .filter(move |k| k.job == job && k.stage == stage)
            .map(|k| k.executor)
    }
}

/// Why one task attempt failed.
#[derive(Debug, Clone)]
pub enum TaskError {
    /// An injected fault from the [`FaultPlan`].
    Injected {
        /// Job sequence number.
        job: u64,
        /// Stage sequence number within the job.
        stage: u64,
        /// Partition index.
        partition: usize,
        /// Attempt number (0-based).
        attempt: u64,
    },
    /// The task body panicked (user function failure).
    Panic(String),
    /// A shuffle read found map outputs missing (lost executor or dropped
    /// shuffle file). Triggers map-stage resubmission, not a task retry.
    FetchFailed {
        /// The shuffle whose outputs were missing.
        shuffle: crate::rdd::ShuffleId,
    },
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Injected {
                job,
                stage,
                partition,
                attempt,
            } => write!(
                f,
                "injected failure (job {job}, stage {stage}, partition {partition}, attempt {attempt})"
            ),
            TaskError::Panic(msg) => write!(f, "task panicked: {msg}"),
            TaskError::FetchFailed { shuffle } => {
                write!(f, "fetch failure reading shuffle {}", shuffle.0)
            }
        }
    }
}

/// A job-level failure surfaced to the action caller. The job is aborted
/// cleanly: shuffle claims are released and unrelated jobs are unaffected.
#[derive(Debug, Clone)]
pub enum JobError {
    /// One task failed `attempts` times — past `task_max_failures`.
    TaskFailed {
        /// Stage sequence number within the job.
        stage: u64,
        /// Partition of the failing task.
        partition: usize,
        /// Number of failed attempts.
        attempts: u64,
        /// Description of the last failure.
        last: String,
    },
    /// A stage kept hitting fetch failures past `stage_max_attempts`.
    StageExhausted {
        /// Stage sequence number within the job.
        stage: u64,
        /// Number of attempts (initial run + resubmissions).
        attempts: u64,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::TaskFailed {
                stage,
                partition,
                attempts,
                last,
            } => write!(
                f,
                "job aborted: task for partition {partition} of stage {stage} failed {attempts} times (last: {last})"
            ),
            JobError::StageExhausted { stage, attempts } => write!(
                f,
                "job aborted: stage {stage} exhausted {attempts} attempts on fetch failures"
            ),
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan::seeded(7).with_task_failure_rate(0.3);
        let mut failures = 0usize;
        let total = 10_000usize;
        for p in 0..total {
            let a = plan.should_fail_task(0, 0, p, 0);
            let b = plan.should_fail_task(0, 0, p, 0);
            assert_eq!(a, b, "same coordinates must decide identically");
            if a {
                failures += 1;
            }
        }
        let rate = failures as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn different_attempts_decide_independently() {
        let plan = FaultPlan::seeded(3).with_task_failure_rate(0.5);
        // Over many partitions, attempt 0 and attempt 1 must disagree on a
        // healthy fraction (they are independent coin flips).
        let disagree = (0..1000)
            .filter(|&p| plan.should_fail_task(1, 0, p, 0) != plan.should_fail_task(1, 0, p, 1))
            .count();
        assert!(disagree > 300, "only {disagree}/1000 disagreements");
    }

    #[test]
    fn inactive_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert!(!plan.should_fail_task(0, 0, 0, 0));
        assert!(!plan.should_drop_cached(0, 1, 0));
        assert!(!plan.should_drop_shuffle_output(0, 0));
        assert_eq!(plan.kills_at(0, 0).count(), 0);
    }

    #[test]
    fn kills_match_exact_boundaries() {
        let plan = FaultPlan::seeded(1).with_executor_kill(2, 1, 0);
        assert_eq!(plan.kills_at(2, 1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(plan.kills_at(2, 0).count(), 0);
        assert_eq!(plan.kills_at(1, 1).count(), 0);
    }

    #[test]
    fn disk_faults_are_separate_from_cluster_faults() {
        let plan = FaultPlan::seeded(9)
            .with_disk_torn_write_rate(0.5)
            .with_disk_corrupt_rate(0.5)
            .with_disk_partial_fsync_rate(0.5)
            .with_disk_kill_at_sync(3);
        assert!(plan.disk_faults_active());
        assert!(
            !plan.is_active(),
            "disk faults must not flip cluster-level fault gating"
        );
        assert!(plan.should_kill_at_sync(3));
        assert!(!plan.should_kill_at_sync(2));
        // Deterministic decisions per sequence number.
        for seq in 0..100 {
            assert_eq!(
                plan.should_tear_disk_write(seq),
                plan.should_tear_disk_write(seq)
            );
            assert_eq!(
                plan.should_corrupt_disk_record(seq),
                plan.should_corrupt_disk_record(seq)
            );
            assert_eq!(plan.should_drop_fsync(seq), plan.should_drop_fsync(seq));
        }
        let inert = FaultPlan::none();
        assert!(!inert.disk_faults_active());
        assert!(!inert.should_tear_disk_write(0));
        assert!(!inert.should_corrupt_disk_record(0));
        assert!(!inert.should_drop_fsync(0));
        assert!(!inert.should_kill_at_sync(1));
    }

    #[test]
    fn name_tag_is_stable() {
        assert_eq!(name_tag("X"), name_tag("X"));
        assert_ne!(name_tag("X"), name_tag("Y"));
    }

    #[test]
    fn errors_display() {
        let e = JobError::TaskFailed {
            stage: 1,
            partition: 3,
            attempts: 4,
            last: "injected".into(),
        };
        assert!(e.to_string().contains("partition 3"));
        let e = JobError::StageExhausted {
            stage: 0,
            attempts: 4,
        };
        assert!(e.to_string().contains("exhausted"));
    }
}
