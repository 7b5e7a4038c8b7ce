//! The fair, memoizing, multi-tenant campaign scheduler.
//!
//! Campaigns submit batches of [`JobSpec`]s; a fixed pool of simulation
//! workers drains them with three guarantees:
//!
//! * **Global memoization** — a job whose artifact already sits in the
//!   [`ShardedStore`] resolves as a `hit` without simulating, no matter
//!   which campaign produced the artifact (or whether a CLI run did).
//! * **In-flight deduplication** — two campaigns racing on the same
//!   config hash simulate it exactly once: the second parks as a waiter
//!   and resolves as `dedup` when the first publishes.
//! * **Round-robin fairness** — workers take jobs from campaigns in
//!   rotation, so a later, small campaign is not starved behind an
//!   earlier full-grid one.
//!
//! A job resolves through the same lifecycle as `ff-campaign run`: the
//! memo check is [`ShardedStore::contains`], and a miss runs through
//! [`ff_harness::execute_job`] (attempts, publish, crash bundle) with
//! [`ff_harness::attempt_job`] as the executor, so a served artifact is
//! byte-identical to a CLI-produced one by construction. Claiming a job
//! holds the scheduler lock only for the quarantine and in-flight gates;
//! the memo check reads and verifies the artifact on the worker, outside
//! the lock, so a hit never blocks `submit`, `status`, `health` or the
//! other workers behind disk I/O. A job that parks behind a claimed hash
//! resolves with its claimant: as a `hit` when the claimant's memo check
//! hits, as `dedup` when the claimant simulates. Under
//! `--quarantine-after` the hash-keyed ledger in the store root is shared
//! across every campaign and gated live as each job is claimed: a config
//! quarantined by one tenant (or by a CLI run) is skipped, and reported
//! as `quarantined`, when any other tenant resubmits it. Without the flag
//! the scheduler never reads or writes the ledger.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use ff_harness::campaign::{attempt_job, execute_job, ExecOptions};
use ff_harness::job::{scale_name, JobSpec};
use ff_harness::json::Json;
use ff_harness::quarantine::Quarantine;
use ff_harness::remote::CampaignRequest;
use ff_harness::store::ShardedStore;
use ff_harness::{write_manifest, Attempt, CampaignReport, JobError, JobOutcome, JobStatus};
use ff_workloads::Scale;

pub use ff_harness::store::CAMPAIGNS_DIR;

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedulerOptions {
    /// Simulation worker threads.
    pub workers: usize,
    /// Attempts per job (>= 1).
    pub attempts: u32,
    /// Execution knobs shared with the batch runner.
    pub exec: ExecOptions,
    /// Skip configs with this many consecutive recorded failures.
    pub quarantine_after: Option<u32>,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            attempts: 1,
            exec: ExecOptions::default(),
            quarantine_after: None,
        }
    }
}

/// Memoization and execution counters, exposed on `GET /healthz`.
#[derive(Debug, Default)]
pub struct Counters {
    /// Jobs resolved from an already-published artifact.
    pub hits: AtomicU64,
    /// Jobs that had to simulate (no artifact existed).
    pub misses: AtomicU64,
    /// Jobs parked behind an identical config hash that simulated,
    /// counted when the simulation resolves them.
    pub inflight_dedup: AtomicU64,
    /// Simulations that completed and published an artifact.
    pub sims_ok: AtomicU64,
    /// Simulations that exhausted their attempts.
    pub sims_failed: AtomicU64,
}

impl Counters {
    /// The counters as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hits", Json::U64(self.hits.load(Ordering::Relaxed))),
            ("misses", Json::U64(self.misses.load(Ordering::Relaxed))),
            ("inflight_dedup", Json::U64(self.inflight_dedup.load(Ordering::Relaxed))),
            ("sims_ok", Json::U64(self.sims_ok.load(Ordering::Relaxed))),
            ("sims_failed", Json::U64(self.sims_failed.load(Ordering::Relaxed))),
        ])
    }
}

/// Where one job stands. `Waiting` is the in-flight-dedup parking state;
/// everything from `Ok` down is terminal.
#[derive(Clone, Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Waiting,
    Ok,
    Hit,
    Dedup,
    // Boxed: failures are rare, and a server keeps every campaign's
    // entries, so the common states stay small.
    Failed(Box<JobError>),
    Quarantined(Box<JobError>),
}

impl JobState {
    fn terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running | JobState::Waiting)
    }

    /// Protocol status string (see `remote::JobBrief::status`).
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            // A waiter's work is in flight on another worker; report it
            // as running rather than inventing a fourth live state.
            JobState::Running | JobState::Waiting => "running",
            JobState::Ok => "ok",
            JobState::Hit => "hit",
            JobState::Dedup => "dedup",
            JobState::Failed(_) => "failed",
            JobState::Quarantined(_) => "quarantined",
        }
    }

    fn error(&self) -> Option<&JobError> {
        match self {
            JobState::Failed(err) | JobState::Quarantined(err) => Some(err.as_ref()),
            _ => None,
        }
    }
}

struct JobEntry {
    spec: JobSpec,
    /// `spec.config_hash()`, computed once at enqueue.
    hash: u64,
    state: JobState,
}

struct Campaign {
    scale: Scale,
    jobs: Vec<JobEntry>,
    /// The next job to claim. Jobs are enqueued `Queued` and claimed in
    /// order, and nothing else makes a job `Queued`, so every job from
    /// here on is queued and every job before it is not.
    next: usize,
}

impl Campaign {
    fn done(&self) -> bool {
        self.jobs.iter().all(|j| j.state.terminal())
    }
}

struct Inner {
    campaigns: BTreeMap<String, Campaign>,
    /// Round-robin rotation of campaign ids that may still have queued
    /// jobs. An id appears at most once.
    rotation: VecDeque<String>,
    /// Config hashes claimed by a worker → the jobs parked behind them.
    inflight: BTreeMap<u64, Vec<(String, usize)>>,
    next_serial: u64,
    stopping: bool,
}

/// A claimed unit of work: memo-check `spec`, on a miss simulate it and
/// publish under `hash`.
struct Task {
    campaign: String,
    index: usize,
    spec: JobSpec,
    hash: u64,
}

/// The execution hook: maps `(spec, exec)` to a finished
/// [`Attempt`]. Production uses [`ff_harness::attempt_job`]; tests swap
/// in latched executors to freeze jobs mid-flight deterministically.
pub type Executor = dyn Fn(&JobSpec, &ExecOptions) -> Attempt + Send + Sync;

/// The scheduler: shared store, counters, the quarantine ledger (loaded
/// only under `--quarantine-after`), and the worker pool. Construct with
/// [`Scheduler::start`]; always shut down via [`Scheduler::shutdown`] to
/// checkpoint in-flight campaigns.
pub struct Scheduler {
    inner: Mutex<Inner>,
    work: Condvar,
    store: ShardedStore,
    counters: Counters,
    opts: SchedulerOptions,
    quarantine: Option<Mutex<Quarantine>>,
    executor: Box<Executor>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts the scheduler and its worker pool over `store`, resuming
    /// any checkpointed campaigns found under `<store>/campaigns/`.
    pub fn start(store: ShardedStore, opts: SchedulerOptions) -> Arc<Scheduler> {
        Self::start_with_executor(store, opts, Box::new(|spec, exec| attempt_job(spec, exec, None)))
    }

    /// [`Scheduler::start`] with a custom executor (tests).
    pub fn start_with_executor(
        store: ShardedStore,
        opts: SchedulerOptions,
        executor: Box<Executor>,
    ) -> Arc<Scheduler> {
        let quarantine = opts.quarantine_after.map(|_| Mutex::new(Quarantine::load(store.root())));
        let scheduler = Arc::new(Scheduler {
            inner: Mutex::new(Inner {
                campaigns: BTreeMap::new(),
                rotation: VecDeque::new(),
                inflight: BTreeMap::new(),
                next_serial: 1,
                stopping: false,
            }),
            work: Condvar::new(),
            store,
            counters: Counters::default(),
            opts,
            quarantine,
            executor,
            workers: Mutex::new(Vec::new()),
        });
        scheduler.resume_checkpointed();
        let handles: Vec<JoinHandle<()>> = (0..scheduler.opts.workers.max(1))
            .map(|_| {
                let s = Arc::clone(&scheduler);
                std::thread::spawn(move || s.worker_loop())
            })
            .collect();
        *scheduler.lock_workers() = handles;
        scheduler
    }

    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_workers(&self) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.workers.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The quarantine ledger, when `--quarantine-after` is set.
    fn lock_quarantine(&self) -> Option<MutexGuard<'_, Quarantine>> {
        let ledger = self.quarantine.as_ref()?;
        Some(ledger.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// The shared artifact store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The memoization counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    fn campaign_dir(&self, id: &str) -> std::path::PathBuf {
        self.store.root().join(CAMPAIGNS_DIR).join(id)
    }

    /// Re-enqueues every campaign checkpointed under `<store>/campaigns/`.
    /// Finished jobs resolve as memoization hits without re-simulating;
    /// jobs checkpointed as `pending` simulate now.
    fn resume_checkpointed(&self) {
        let dir = self.store.root().join(CAMPAIGNS_DIR);
        let Ok(entries) = std::fs::read_dir(&dir) else { return };
        let mut resumed: Vec<(String, CampaignRequest)> = Vec::new();
        for entry in entries.flatten() {
            let id = entry.file_name().to_string_lossy().into_owned();
            let Ok(text) = std::fs::read_to_string(entry.path().join("request.json")) else {
                continue;
            };
            let Ok(doc) = Json::parse(&text) else { continue };
            let Ok(request) = CampaignRequest::from_json(&doc) else { continue };
            resumed.push((id, request));
        }
        // Deterministic resume order, and the serial counter must clear
        // every resumed id so new submissions never collide.
        resumed.sort_by(|a, b| a.0.cmp(&b.0));
        let mut inner = self.lock_inner();
        for (id, request) in resumed {
            if let Some(serial) = id.strip_prefix('c').and_then(|n| n.parse::<u64>().ok()) {
                inner.next_serial = inner.next_serial.max(serial + 1);
            }
            Self::enqueue(&mut inner, id, request.scale, request.expand());
        }
        drop(inner);
        self.work.notify_all();
    }

    fn enqueue(inner: &mut Inner, id: String, scale: Scale, specs: Vec<JobSpec>) {
        let jobs = specs
            .into_iter()
            .map(|spec| JobEntry { hash: spec.config_hash(), spec, state: JobState::Queued })
            .collect();
        inner.campaigns.insert(id.clone(), Campaign { scale, jobs, next: 0 });
        if !inner.rotation.contains(&id) {
            inner.rotation.push_back(id);
        }
    }

    /// Submits a campaign: expands the request, persists it for resume,
    /// and queues its jobs. Returns `(campaign id, total jobs)`.
    ///
    /// # Errors
    ///
    /// When the request matches no jobs or the scheduler is stopping.
    pub fn submit(&self, request: &CampaignRequest) -> Result<(String, usize), SubmitError> {
        let specs = request.expand();
        let total = specs.len();
        if total == 0 {
            return Err(SubmitError::NoJobs);
        }
        let id = {
            let mut inner = self.lock_inner();
            if inner.stopping {
                return Err(SubmitError::Stopping);
            }
            let id = format!("c{}", inner.next_serial);
            inner.next_serial += 1;
            Self::enqueue(&mut inner, id.clone(), request.scale, specs);
            id
        };
        // Persist the spec so a restarted server resumes this campaign —
        // durably (tmp + fsync + rename), so a crash mid-submit leaves
        // either no checkpoint or a complete one, never a torn file
        // `resume_checkpointed` would silently skip.
        let dir = self.campaign_dir(&id);
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| {
            ff_harness::durable_write(&dir.join("request.json"), &request.to_json().render())
        }) {
            eprintln!("ff-server: warning: could not persist campaign {id}: {e}");
        }
        self.work.notify_all();
        Ok((id, total))
    }

    /// The status document for `GET /campaigns/{id}`, or `None` for an
    /// unknown id.
    pub fn status(&self, id: &str) -> Option<Json> {
        let inner = self.lock_inner();
        let campaign = inner.campaigns.get(id)?;
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for job in &campaign.jobs {
            *counts.entry(job.state.name()).or_insert(0) += 1;
        }
        let jobs: Vec<Json> = campaign
            .jobs
            .iter()
            .map(|job| {
                let mut fields = vec![
                    ("id", Json::Str(job.spec.id())),
                    ("hash", Json::Str(format!("{:016x}", job.hash))),
                    ("status", Json::Str(job.state.name().into())),
                ];
                if let Some(err) = job.state.error() {
                    fields.push(("error", Json::Str(err.to_string())));
                }
                Json::obj(fields)
            })
            .collect();
        Some(Json::obj(vec![
            ("id", Json::Str(id.to_string())),
            ("done", Json::Bool(campaign.done())),
            ("scale", Json::Str(scale_name(campaign.scale).into())),
            (
                "counts",
                Json::Obj(counts.into_iter().map(|(k, v)| (k.to_string(), Json::U64(v))).collect()),
            ),
            ("jobs", Json::Arr(jobs)),
        ]))
    }

    /// Whether every job of every campaign is terminal.
    pub fn idle(&self) -> bool {
        let inner = self.lock_inner();
        inner.campaigns.values().all(Campaign::done)
    }

    /// The `GET /healthz` document.
    pub fn health(&self) -> Json {
        let inner = self.lock_inner();
        let campaigns = inner.campaigns.len() as u64;
        let done = inner.campaigns.values().filter(|c| c.done()).count() as u64;
        drop(inner);
        Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("campaigns", Json::U64(campaigns)),
            ("campaigns_done", Json::U64(done)),
            ("counters", self.counters.to_json()),
        ])
    }

    /// Claims the next runnable job in round-robin campaign order,
    /// resolving quarantined jobs and parking waiters inline until a job
    /// whose hash no worker holds turns up (or nothing is queued).
    fn claim(&self, inner: &mut Inner) -> Option<Task> {
        // Each pass pops one campaign; a campaign with remaining queued
        // work is pushed back, giving rotation fairness. Every iteration
        // either drops a drained campaign from the rotation or moves one
        // Queued job to another state, so the loop terminates.
        loop {
            let id = inner.rotation.pop_front()?;
            let Some(campaign) = inner.campaigns.get_mut(&id) else { continue };
            let index = campaign.next;
            let Some(job) = campaign.jobs.get(index) else {
                continue; // drained: leave out of the rotation
            };
            debug_assert_eq!(job.state, JobState::Queued);
            let (spec, hash) = (job.spec.clone(), job.hash);
            campaign.next += 1;
            let more_queued = campaign.next < campaign.jobs.len();

            // Quarantine gate: a config hash benched by *any* prior
            // campaign is skipped, not executed.
            let skip = self
                .lock_quarantine()
                .zip(self.opts.quarantine_after)
                .and_then(|(ledger, threshold)| ledger.gate(&spec, threshold));
            if let Some(skip) = skip {
                campaign.jobs[index].state = JobState::Quarantined(Box::new(skip));
                if more_queued {
                    inner.rotation.push_back(id);
                }
                continue;
            }

            // In-flight gate: an identical hash already claimed means
            // this job parks and resolves with the claimant.
            if let Some(waiters) = inner.inflight.get_mut(&hash) {
                waiters.push((id.clone(), index));
                campaign.jobs[index].state = JobState::Waiting;
                if more_queued {
                    inner.rotation.push_back(id);
                }
                continue;
            }

            // This worker claims the hash; `execute` memo-checks it.
            inner.inflight.insert(hash, Vec::new());
            campaign.jobs[index].state = JobState::Running;
            if more_queued {
                inner.rotation.push_back(id.clone());
            }
            return Some(Task { campaign: id, index, spec, hash });
        }
    }

    fn worker_loop(&self) {
        loop {
            let task = {
                let mut inner = self.lock_inner();
                loop {
                    if inner.stopping {
                        return;
                    }
                    if let Some(task) = self.claim(&mut inner) {
                        break task;
                    }
                    inner =
                        self.work.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            self.execute(task);
        }
    }

    /// Runs one claimed task outside the scheduler lock: the memo check,
    /// then on a miss the simulation and publish. Resolves the task plus
    /// every parked waiter.
    fn execute(&self, task: Task) {
        // Memoization gate: an existing artifact is a hit, shared with
        // every past campaign and CLI run against this store.
        let (state, waiter_state) = if self.store.contains_hashed(&task.spec, task.hash) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(mut ledger) = self.lock_quarantine() {
                ledger.record(&task.spec, JobStatus::Cached);
            }
            (JobState::Hit, JobState::Hit)
        } else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            self.simulate(&task.spec)
        };
        let mut inner = self.lock_inner();
        let waiters = inner.inflight.remove(&task.hash).unwrap_or_default();
        let parked = if state == JobState::Hit {
            &self.counters.hits
        } else {
            &self.counters.inflight_dedup
        };
        parked.fetch_add(waiters.len() as u64, Ordering::Relaxed);
        let mut resolve = |id: &str, index: usize, state: JobState| {
            if let Some(job) = inner.campaigns.get_mut(id).and_then(|c| c.jobs.get_mut(index)) {
                job.state = state;
            }
        };
        resolve(&task.campaign, task.index, state);
        for (id, index) in waiters {
            resolve(&id, index, waiter_state.clone());
        }
        drop(inner);
        self.work.notify_all();
    }

    /// Simulates and publishes one memo miss, returning the states of the
    /// job and of its parked waiters.
    fn simulate(&self, spec: &JobSpec) -> (JobState, JobState) {
        let exec = &self.opts.exec;
        let outcome = execute_job(&self.store, spec, self.opts.attempts, exec, |_| {
            (self.executor)(spec, exec)
        });
        if let Some(mut ledger) = self.lock_quarantine() {
            ledger.record(spec, outcome.status);
            if let Err(e) = ledger.save(self.store.root()) {
                eprintln!("ff-server: warning: could not save quarantine ledger: {e}");
            }
        }
        match outcome.error {
            None => {
                self.counters.sims_ok.fetch_add(1, Ordering::Relaxed);
                (JobState::Ok, JobState::Dedup)
            }
            Some(err) => {
                self.counters.sims_failed.fetch_add(1, Ordering::Relaxed);
                let message = format!("deduplicated onto a failed run: {}", err.message);
                let waiter = JobState::Failed(Box::new(JobError { message, ..err.clone() }));
                (JobState::Failed(Box::new(err)), waiter)
            }
        }
    }

    /// Builds the checkpoint report for one campaign: terminal jobs keep
    /// their outcome, queued/running/waiting jobs checkpoint as
    /// [`JobStatus::Pending`].
    fn checkpoint_report(campaign: &Campaign) -> CampaignReport {
        let outcomes = campaign
            .jobs
            .iter()
            .map(|job| {
                let status = match &job.state {
                    JobState::Ok => JobStatus::Ok,
                    JobState::Hit | JobState::Dedup => JobStatus::Cached,
                    JobState::Failed(_) => JobStatus::Failed,
                    JobState::Quarantined(_) => JobStatus::Quarantined,
                    JobState::Queued | JobState::Running | JobState::Waiting => JobStatus::Pending,
                };
                JobOutcome::unrun(&job.spec, status, job.state.error().cloned())
            })
            .collect();
        CampaignReport { outcomes, wall_s: 0.0, workers: 0, scale: campaign.scale }
    }

    /// Writes a checkpoint manifest for every campaign under
    /// `<store>/campaigns/<id>/manifest.json`, in the same format
    /// `ff-campaign run` writes.
    pub fn checkpoint_all(&self) {
        let inner = self.lock_inner();
        let reports: Vec<(String, CampaignReport)> = inner
            .campaigns
            .iter()
            .map(|(id, campaign)| (id.clone(), Self::checkpoint_report(campaign)))
            .collect();
        drop(inner);
        for (id, report) in reports {
            let dir = self.campaign_dir(&id);
            if let Err(e) =
                std::fs::create_dir_all(&dir).and_then(|()| write_manifest(&dir, &report))
            {
                eprintln!("ff-server: warning: could not checkpoint campaign {id}: {e}");
            }
        }
    }

    /// Graceful shutdown: stop handing out work, let in-flight jobs
    /// finish, join the workers, then checkpoint every campaign.
    pub fn shutdown(&self) {
        {
            let mut inner = self.lock_inner();
            inner.stopping = true;
        }
        self.work.notify_all();
        let handles: Vec<JoinHandle<()>> = self.lock_workers().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.checkpoint_all();
    }
}

/// Why [`Scheduler::submit`] refused a campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The request matches no job; resubmitting it cannot succeed.
    NoJobs,
    /// The scheduler is shutting down; a restarted server may accept it.
    Stopping,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubmitError::NoJobs => "the request matches no jobs",
            SubmitError::Stopping => "server is shutting down",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_experiments::{HierKind, ModelKind};
    use ff_harness::campaign::JobFilter;
    use ff_harness::chaos::{self, ChaosPolicy, Fault, FsOp};
    use ff_harness::JobError;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// A fresh store directory under the system temp dir, removed when
    /// the test ends, whether it passes or panics.
    struct TempStore(std::path::PathBuf);

    impl std::ops::Deref for TempStore {
        type Target = std::path::Path;

        fn deref(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn temp_dir(tag: &str) -> TempStore {
        let dir = std::env::temp_dir().join(format!(
            "ff-scheduler-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempStore(dir)
    }

    fn request(model: ModelKind, benches: &[&str]) -> CampaignRequest {
        CampaignRequest {
            scale: Scale::Test,
            filter: JobFilter {
                models: vec![model],
                hiers: vec![HierKind::Base],
                benches: benches.iter().map(|b| b.to_string()).collect(),
                // The grid's seed sweep would add s1..s3 duplicates for
                // the swept models; pin seed 0 for exact job counts.
                seeds: vec![0],
            },
            reports: false,
        }
    }

    /// A counting executor that returns a tiny synthetic artifact.
    fn counting_executor(count: Arc<AtomicUsize>) -> Box<Executor> {
        Box::new(move |spec, _exec| {
            count.fetch_add(1, Ordering::SeqCst);
            Attempt::synthetic(Ok(format!("{{\"synthetic\": \"{}\"}}\n", spec.id())))
        })
    }

    fn wait_done(scheduler: &Scheduler, id: &str) -> Json {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = scheduler.status(id).expect("campaign exists");
            if matches!(status.get("done"), Some(Json::Bool(true))) {
                return status;
            }
            assert!(Instant::now() < deadline, "campaign {id} did not finish");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn count_of(status: &Json, state: &str) -> u64 {
        status.get("counts").and_then(|c| c.get(state)).and_then(Json::as_u64).unwrap_or(0)
    }

    #[test]
    fn resubmitting_a_campaign_resolves_every_job_from_the_memo_cache() {
        let dir = temp_dir("memo");
        let sims = Arc::new(AtomicUsize::new(0));
        let scheduler = Scheduler::start_with_executor(
            ShardedStore::open(&*dir).unwrap(),
            SchedulerOptions { workers: 2, ..SchedulerOptions::default() },
            counting_executor(Arc::clone(&sims)),
        );
        let req = request(ModelKind::InOrder, &["gzip", "mcf"]);
        let (first, total) = scheduler.submit(&req).unwrap();
        assert_eq!(total, 2);
        let status = wait_done(&scheduler, &first);
        assert_eq!(count_of(&status, "ok"), 2);
        assert_eq!(sims.load(Ordering::SeqCst), 2);

        let (second, _) = scheduler.submit(&req).unwrap();
        assert_ne!(first, second, "resubmission gets a fresh campaign id");
        let status = wait_done(&scheduler, &second);
        assert_eq!(count_of(&status, "hit"), 2, "status: {}", status.render());
        assert_eq!(sims.load(Ordering::SeqCst), 2, "the memo cache must prevent re-simulation");
        assert_eq!(scheduler.counters().hits.load(Ordering::Relaxed), 2);
        assert_eq!(scheduler.counters().misses.load(Ordering::Relaxed), 2);
        scheduler.shutdown();
    }

    #[test]
    fn concurrent_duplicate_jobs_simulate_once_via_inflight_dedup() {
        let dir = temp_dir("dedup");
        let sims = Arc::new(AtomicUsize::new(0));
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (entered_e, release_e) = (Arc::clone(&entered), Arc::clone(&release));
        let scheduler = Scheduler::start_with_executor(
            ShardedStore::open(&*dir).unwrap(),
            SchedulerOptions { workers: 2, ..SchedulerOptions::default() },
            Box::new({
                let sims = Arc::clone(&sims);
                move |spec, _exec| {
                    sims.fetch_add(1, Ordering::SeqCst);
                    entered_e.store(true, Ordering::SeqCst);
                    while !release_e.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Attempt::synthetic(Ok(format!("{{\"synthetic\": \"{}\"}}\n", spec.id())))
                }
            }),
        );
        let req = request(ModelKind::Runahead, &["vpr"]);
        let (first, _) = scheduler.submit(&req).unwrap();
        // Wait until the first campaign's job is inside the executor, so
        // the duplicate is guaranteed to arrive while it is in flight.
        while !entered.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (second, _) = scheduler.submit(&req).unwrap();
        // The duplicate must park as a waiter, not start a second sim:
        // its hash is claimed, so `running` can only mean parked.
        let deadline = Instant::now() + Duration::from_secs(30);
        while count_of(&scheduler.status(&second).unwrap(), "running") == 0 {
            assert!(Instant::now() < deadline, "duplicate was never deduplicated");
            std::thread::sleep(Duration::from_millis(1));
        }
        release.store(true, Ordering::SeqCst);
        let status_1 = wait_done(&scheduler, &first);
        let status_2 = wait_done(&scheduler, &second);
        assert_eq!(count_of(&status_1, "ok"), 1);
        assert_eq!(count_of(&status_2, "dedup"), 1, "status: {}", status_2.render());
        assert_eq!(sims.load(Ordering::SeqCst), 1, "the in-flight config must simulate once");
        assert_eq!(scheduler.counters().inflight_dedup.load(Ordering::Relaxed), 1);
        assert_eq!(scheduler.counters().misses.load(Ordering::Relaxed), 1);
        scheduler.shutdown();
    }

    /// Parks every artifact read under `scope`: reports each parked read
    /// on `parked` and holds it until the `release` sender is dropped.
    struct ParkReads {
        scope: String,
        parked: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl ChaosPolicy for ParkReads {
        fn decide(&self, op: FsOp, path: &std::path::Path) -> Option<Fault> {
            if op == FsOp::Read && path.to_string_lossy().contains(&self.scope) {
                let _ = self.parked.lock().unwrap().send(());
                let _ = self.release.lock().unwrap().recv();
            }
            None
        }
    }

    #[test]
    fn a_memo_check_blocks_neither_status_nor_health() {
        let dir = temp_dir("memo-unlocked");
        let sims = Arc::new(AtomicUsize::new(0));
        let first = Scheduler::start_with_executor(
            ShardedStore::open(&*dir).unwrap(),
            SchedulerOptions { workers: 1, ..SchedulerOptions::default() },
            counting_executor(Arc::clone(&sims)),
        );
        let req = request(ModelKind::InOrder, &["gzip"]);
        let ids: Vec<String> = (0..2).map(|_| first.submit(&req).unwrap().0).collect();
        for id in &ids {
            wait_done(&first, id);
        }
        first.shutdown();

        // A restarted scheduler resumes both campaigns. One worker's memo
        // check of the published artifact parks inside the read; the
        // other worker parks the second campaign's job behind its hash.
        let store = ShardedStore::open(&*dir).unwrap();
        let (parked_tx, parked) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let guard = chaos::install(Arc::new(ParkReads {
            scope: dir.to_string_lossy().into_owned(),
            parked: Mutex::new(parked_tx),
            release: Mutex::new(release_rx),
        }));
        let resumed = Scheduler::start_with_executor(
            store,
            SchedulerOptions { workers: 2, ..SchedulerOptions::default() },
            counting_executor(Arc::clone(&sims)),
        );
        parked.recv_timeout(Duration::from_secs(30)).expect("the memo check never read");

        // The policy decides under chaos's global lock, so until the
        // release this thread must do no chaos-routed I/O. The latch is
        // released before any assertion, so a blocked scheduler fails
        // the test instead of hanging it.
        let (answered_tx, answered) = mpsc::channel();
        let asker = {
            let (scheduler, id) = (Arc::clone(&resumed), ids[0].clone());
            std::thread::spawn(move || {
                let _ = (scheduler.status(&id), scheduler.health());
                let _ = answered_tx.send(());
            })
        };
        let unblocked = answered.recv_timeout(Duration::from_secs(5)).is_ok();
        let deadline = Instant::now() + Duration::from_secs(5);
        while unblocked && count_of(&resumed.status(&ids[1]).unwrap(), "running") == 0 {
            assert!(Instant::now() < deadline, "the duplicate was never claimed");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(release);
        asker.join().unwrap();
        assert!(unblocked, "status and health waited on the memo check's read");

        // The parked duplicate resolves with the claimant, as a hit.
        for id in &ids {
            let status = wait_done(&resumed, id);
            assert_eq!(count_of(&status, "hit"), 1, "status: {}", status.render());
        }
        assert_eq!(sims.load(Ordering::SeqCst), 1, "the memo check must prevent re-simulation");
        let counters = resumed.counters();
        assert_eq!(counters.hits.load(Ordering::Relaxed), 2);
        assert_eq!(counters.misses.load(Ordering::Relaxed), 0);
        assert_eq!(counters.inflight_dedup.load(Ordering::Relaxed), 0);
        resumed.shutdown();
        drop(guard);
    }

    #[test]
    fn round_robin_interleaves_concurrent_campaigns() {
        let dir = temp_dir("fairness");
        let order = Arc::new(Mutex::new(Vec::<String>::new()));
        let go = Arc::new(AtomicBool::new(false));
        let (order_e, go_e) = (Arc::clone(&order), Arc::clone(&go));
        let scheduler = Scheduler::start_with_executor(
            ShardedStore::open(&*dir).unwrap(),
            SchedulerOptions { workers: 1, ..SchedulerOptions::default() },
            Box::new(move |spec, _exec| {
                while !go_e.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                order_e.lock().unwrap().push(spec.id());
                Attempt::synthetic(Ok(format!("{{\"synthetic\": \"{}\"}}\n", spec.id())))
            }),
        );
        // The lone worker claims c1's first job and blocks on the gate;
        // c2 then joins the rotation before any further claims.
        let (c1, _) =
            scheduler.submit(&request(ModelKind::InOrder, &["gzip", "vpr", "mcf"])).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while scheduler.counters().misses.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "first job never claimed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (c2, _) = scheduler.submit(&request(ModelKind::Multipass, &["gzip", "vpr"])).unwrap();
        go.store(true, Ordering::SeqCst);
        wait_done(&scheduler, &c1);
        wait_done(&scheduler, &c2);
        let ran = order.lock().unwrap().clone();
        let campaigns: Vec<&str> =
            ran.iter().map(|id| if id.contains("/inorder/") { "c1" } else { "c2" }).collect();
        // After the pre-gate claim, the rotation alternates campaigns
        // instead of draining c1 before starting c2.
        assert_eq!(campaigns, vec!["c1", "c1", "c2", "c1", "c2"], "ran: {ran:?}");
        scheduler.shutdown();
    }

    #[test]
    fn shutdown_checkpoints_and_restart_resumes_without_resimulating() {
        let dir = temp_dir("resume");
        let sims = Arc::new(AtomicUsize::new(0));
        let scheduler = Scheduler::start_with_executor(
            ShardedStore::open(&*dir).unwrap(),
            SchedulerOptions { workers: 2, ..SchedulerOptions::default() },
            counting_executor(Arc::clone(&sims)),
        );
        let req = request(ModelKind::Ooo, &["twolf", "art"]);
        let (id, _) = scheduler.submit(&req).unwrap();
        wait_done(&scheduler, &id);
        scheduler.shutdown();
        let manifest = dir.join(CAMPAIGNS_DIR).join(&id).join("manifest.json");
        assert!(manifest.exists(), "shutdown must checkpoint a manifest");
        assert_eq!(sims.load(Ordering::SeqCst), 2);

        // A fresh scheduler over the same store resumes the campaign;
        // every job resolves from the memo cache.
        let resumed = Scheduler::start_with_executor(
            ShardedStore::open(&*dir).unwrap(),
            SchedulerOptions { workers: 2, ..SchedulerOptions::default() },
            counting_executor(Arc::clone(&sims)),
        );
        let status = wait_done(&resumed, &id);
        assert_eq!(count_of(&status, "hit"), 2, "status: {}", status.render());
        assert_eq!(sims.load(Ordering::SeqCst), 2, "resume must not re-simulate");
        // The serial counter cleared the resumed id: no collision.
        let (next, _) = resumed.submit(&req).unwrap();
        assert_ne!(next, id);
        resumed.shutdown();
    }

    #[test]
    fn a_failing_config_quarantines_across_campaigns() {
        let dir = temp_dir("quarantine");
        let scheduler = Scheduler::start_with_executor(
            ShardedStore::open(&*dir).unwrap(),
            SchedulerOptions {
                workers: 1,
                quarantine_after: Some(2),
                ..SchedulerOptions::default()
            },
            Box::new(|_spec, _exec| Attempt::synthetic(Err(JobError::other("synthetic failure")))),
        );
        let req = request(ModelKind::MpNoRegroup, &["gap"]);
        for expected in ["failed", "failed", "quarantined"] {
            let (id, _) = scheduler.submit(&req).unwrap();
            let status = wait_done(&scheduler, &id);
            assert_eq!(count_of(&status, expected), 1, "status: {}", status.render());
        }
        scheduler.shutdown();
    }
}
