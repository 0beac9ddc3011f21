//! The always-on job-serving front-end.
//!
//! [`Server`] owns a worker thread (`ntx-serve`) driving a
//! [`ScaleOutExecutor`]; any number of client
//! threads submit jobs through cloned [`Session`]s (see
//! [`Server::session`]) over an mpsc channel. The farm runs as a
//! persistent service: every submission is validated, planned and
//! placed onto the least-loaded clusters the moment it arrives (graded
//! cluster subsets sized by the measured-duration [`DurationTable`]);
//! the worker interleaves admission with per-shard farm events
//! ([`ClusterFarm::step`]) and delivers each [`Completion`] the event
//! its last shard retires. A late-arriving small job lands on
//! whichever cluster frees up first instead of waiting for unrelated
//! work to retire.
//!
//! Per-job wall-clock deadlines are checked at completion and reported
//! both per job and in the final [`ServingReport`].
//!
//! [`ClusterFarm::step`]: crate::ClusterFarm::step
//! [`DurationTable`]: crate::DurationTable

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::backend::BackendKind;
use crate::executor::{lost_job, Admitted, JobResult, ScaleOutConfig, ScaleOutExecutor};
use crate::job::{Job, JobKind, JobOpts};
use crate::report::ServingReport;
use crate::session::Session;
use crate::SchedError;

/// Most submissions the worker drains from the channel into one
/// admission group before it goes back to retiring shards.
const MAX_GROUP: usize = 64;

/// Configuration of the serving front-end.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// The scale-out system the worker runs.
    pub scale_out: ScaleOutConfig,
    /// Bound on submissions in flight (accepted but not yet
    /// completed). When full, `submit` returns
    /// [`SchedError::Backpressure`] immediately and
    /// [`submit_wait`](crate::session::ReadyJob::submit_wait) blocks
    /// for a slot. `0` (the default) means unbounded — the
    /// pre-overload-control behaviour.
    pub queue_limit: usize,
}

impl ServerConfig {
    /// A server over `clusters` default-configured clusters.
    #[must_use]
    pub fn with_clusters(clusters: usize) -> Self {
        Self {
            scale_out: ScaleOutConfig::with_clusters(clusters),
            ..Self::default()
        }
    }

    /// Serves against a multi-cube HMC mesh with home-cube data
    /// placement (see
    /// [`ScaleOutConfig::with_hmc_mesh`](crate::ScaleOutConfig::with_hmc_mesh)).
    #[must_use]
    pub fn with_hmc_mesh(mut self, mesh: ntx_mem::MeshConfig) -> Self {
        self.scale_out = self.scale_out.with_hmc_mesh(mesh);
        self
    }

    /// Bounds the number of submissions in flight (overload control):
    /// when `limit` are pending, non-blocking submission returns
    /// [`SchedError::Backpressure`] instead of growing the backlog.
    #[must_use]
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = limit;
        self
    }

    /// Arms a deterministic chaos schedule on the served farm (see
    /// [`ScaleOutConfig::with_faults`](crate::ScaleOutConfig::with_faults)).
    #[must_use]
    pub fn with_faults(mut self, faults: crate::FaultPlan) -> Self {
        self.scale_out = self.scale_out.with_faults(faults);
        self
    }

    /// Sets the worker-pool width of the served farm (see
    /// [`ScaleOutConfig::with_worker_threads`](crate::ScaleOutConfig::with_worker_threads)).
    #[must_use]
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.scale_out = self.scale_out.with_worker_threads(threads);
        self
    }
}

/// The shared admission gauge: how many submissions are in flight
/// (from `submit` until their completion is delivered), bounded by
/// [`ServerConfig::queue_limit`]. Clients acquire a slot before
/// sending; the worker releases it at delivery. A closed gauge (worker
/// exited) fails all acquisition so blocked submitters wake up.
#[derive(Debug)]
struct AdmissionGauge {
    limit: usize,
    state: Mutex<GaugeState>,
    cv: Condvar,
    rejected: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeState {
    in_flight: usize,
    closed: bool,
}

impl AdmissionGauge {
    fn new(limit: usize) -> Self {
        Self {
            limit,
            state: Mutex::new(GaugeState::default()),
            cv: Condvar::new(),
            rejected: AtomicU64::new(0),
        }
    }

    /// Claims a slot or fails fast: [`SchedError::Backpressure`] when
    /// the bound is hit, [`SchedError::Shutdown`] when the worker is
    /// gone.
    fn try_acquire(&self) -> Result<(), SchedError> {
        let mut s = self.state.lock().expect("gauge poisoned");
        if s.closed {
            return Err(SchedError::Shutdown);
        }
        if self.limit > 0 && s.in_flight >= self.limit {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SchedError::Backpressure { limit: self.limit });
        }
        s.in_flight += 1;
        Ok(())
    }

    /// Claims a slot, blocking while the queue is full.
    fn acquire_blocking(&self) -> Result<(), SchedError> {
        let mut s = self.state.lock().expect("gauge poisoned");
        while !s.closed && self.limit > 0 && s.in_flight >= self.limit {
            s = self.cv.wait(s).expect("gauge poisoned");
        }
        if s.closed {
            return Err(SchedError::Shutdown);
        }
        s.in_flight += 1;
        Ok(())
    }

    /// Returns a slot (a completion was delivered, or a send failed).
    fn release(&self) {
        let mut s = self.state.lock().expect("gauge poisoned");
        s.in_flight = s.in_flight.saturating_sub(1);
        drop(s);
        self.cv.notify_one();
    }

    /// Marks the worker gone and wakes every blocked submitter.
    fn close(&self) {
        self.state.lock().expect("gauge poisoned").closed = true;
        self.cv.notify_all();
    }
}

/// What a client gets back for one submission.
#[derive(Debug)]
pub struct Completion {
    /// Submission id (matches [`JobHandle::id`]).
    pub id: u64,
    /// The job's result, or why it was rejected.
    pub result: Result<JobResult, SchedError>,
    /// Wall-clock time from submission to completion (includes any
    /// simulation ahead of this job).
    pub latency: Duration,
    /// True when the job carried a deadline and `latency` overran it.
    pub deadline_missed: bool,
}

/// How a completion travels back to the client.
enum Reply {
    Handle(Sender<Completion>),
    Callback(Box<dyn FnOnce(Completion) + Send + 'static>),
}

/// One submission in flight.
struct Submission {
    id: u64,
    label: String,
    kind: JobKind,
    opts: JobOpts,
    deps: Vec<u64>,
    submitted: Instant,
    reply: Reply,
}

/// Channel protocol between sessions and the worker. The explicit
/// shutdown sentinel lets [`Server::shutdown`] stop the worker even
/// while cloned [`Session`]s keep the channel alive.
enum Msg {
    Submit(Box<Submission>),
    Shutdown,
}

/// Client-side handle to one submitted job.
#[derive(Debug)]
pub struct JobHandle {
    /// Submission id (also the `job_id` of the eventual result).
    pub id: u64,
    rx: Receiver<Completion>,
}

impl JobHandle {
    /// Blocks until the job completes.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shutdown`] when the server dropped the job (it was
    /// shut down before the job ran).
    pub fn wait(self) -> Result<Completion, SchedError> {
        self.rx.recv().map_err(|_| SchedError::Shutdown)
    }

    /// Blocks until the job completes or `timeout` elapses; `Ok(None)`
    /// on timeout, so callers can keep the handle and try again (or
    /// give up without losing the submission id).
    ///
    /// # Errors
    ///
    /// [`SchedError::Shutdown`] when the server dropped the job — the
    /// completion will never arrive. This covers the worker thread
    /// going away mid-wait (shutdown racing the job, or a dropped
    /// [`Server`]): the wait returns this clean error instead of
    /// timing out forever.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<Option<Completion>, SchedError> {
        match self.rx.recv_timeout(timeout) {
            Ok(c) => Ok(Some(c)),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(SchedError::Shutdown),
        }
    }

    /// Non-blocking poll; `Ok(None)` while the job is still in flight.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shutdown`] when the server dropped the job — a
    /// poller must stop then, the completion will never arrive.
    pub fn try_wait(&mut self) -> Result<Option<Completion>, SchedError> {
        match self.rx.try_recv() {
            Ok(c) => Ok(Some(c)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(SchedError::Shutdown),
        }
    }
}

/// The channel endpoint behind every [`Session`]: submission ids, the
/// admission gauge, and the sender into the worker.
#[derive(Debug, Clone)]
pub(crate) struct ServerHandle {
    tx: Sender<Msg>,
    seq: Arc<AtomicU64>,
    gauge: Arc<AdmissionGauge>,
}

impl ServerHandle {
    /// Handle-reply submission primitive (the [`Session`] sink).
    pub(crate) fn send_handle(
        &self,
        label: String,
        kind: JobKind,
        opts: JobOpts,
        deps: Vec<u64>,
    ) -> Result<JobHandle, SchedError> {
        let (tx, rx) = channel();
        let id = self.send(label, kind, opts, deps, Reply::Handle(tx))?;
        Ok(JobHandle { id, rx })
    }

    /// Callback-reply submission primitive (the [`Session`] sink).
    pub(crate) fn send_callback(
        &self,
        label: String,
        kind: JobKind,
        opts: JobOpts,
        deps: Vec<u64>,
        callback: impl FnOnce(Completion) + Send + 'static,
    ) -> Result<u64, SchedError> {
        self.send(label, kind, opts, deps, Reply::Callback(Box::new(callback)))
    }

    /// Blocking handle-reply submission: waits for an admission slot
    /// instead of returning [`SchedError::Backpressure`] (the
    /// [`submit_wait`](crate::session::ReadyJob::submit_wait) sink).
    pub(crate) fn send_handle_wait(
        &self,
        label: String,
        kind: JobKind,
        opts: JobOpts,
        deps: Vec<u64>,
    ) -> Result<JobHandle, SchedError> {
        self.gauge.acquire_blocking()?;
        let (tx, rx) = channel();
        let id = self.send_acquired(label, kind, opts, deps, Reply::Handle(tx))?;
        Ok(JobHandle { id, rx })
    }

    fn send(
        &self,
        label: String,
        kind: JobKind,
        opts: JobOpts,
        deps: Vec<u64>,
        reply: Reply,
    ) -> Result<u64, SchedError> {
        self.gauge.try_acquire()?;
        self.send_acquired(label, kind, opts, deps, reply)
    }

    /// Sends a submission whose admission slot is already claimed; the
    /// slot is returned on a failed send (worker gone).
    fn send_acquired(
        &self,
        label: String,
        kind: JobKind,
        opts: JobOpts,
        deps: Vec<u64>,
        reply: Reply,
    ) -> Result<u64, SchedError> {
        let id = self.seq.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(Msg::Submit(Box::new(Submission {
                id,
                label,
                kind,
                opts,
                deps,
                submitted: Instant::now(),
                reply,
            })))
            .map(|()| id)
            .map_err(|_| {
                self.gauge.release();
                SchedError::Shutdown
            })
    }
}

/// The serving front-end: a persistent farm on a worker thread behind
/// an mpsc submission channel.
#[derive(Debug)]
pub struct Server {
    handle: ServerHandle,
    worker: Option<JoinHandle<ServingReport>>,
}

impl Server {
    /// Starts the worker thread.
    ///
    /// # Panics
    ///
    /// Panics on a configuration the farm rejects (no clusters, or a
    /// mesh with more cubes than clusters): the executor is built here,
    /// on the caller's thread, before any job is accepted.
    #[must_use]
    pub fn start(config: ServerConfig) -> Self {
        let exec = ScaleOutExecutor::new(config.scale_out);
        let (tx, rx) = channel();
        let gauge = Arc::new(AdmissionGauge::new(config.queue_limit));
        let worker_gauge = Arc::clone(&gauge);
        let worker = std::thread::Builder::new()
            .name("ntx-serve".into())
            .spawn(move || {
                let report = continuous_loop(&rx, exec, &worker_gauge);
                // Wake any submitter still blocked on a slot: the
                // completion that would free one is never coming.
                worker_gauge.close();
                report
            })
            .expect("spawn the serving worker thread");
        Self {
            handle: ServerHandle {
                tx,
                seq: Arc::new(AtomicU64::new(0)),
                gauge,
            },
            worker: Some(worker),
        }
    }

    /// A fluent, cloneable [`Session`] for submitting jobs — the one
    /// client endpoint; clone it into as many client threads as needed.
    #[must_use]
    pub fn session(&self) -> Session {
        Session {
            handle: self.handle.clone(),
        }
    }

    /// Stops the worker after every submission enqueued before this
    /// call has been served, and returns the aggregate serving
    /// statistics. Cloned sessions outliving the server see
    /// [`SchedError::Shutdown`] on their next submission; handles of
    /// jobs the worker never reached disconnect.
    ///
    /// # Panics
    ///
    /// Panics if the worker thread itself panicked.
    #[must_use]
    pub fn shutdown(mut self) -> ServingReport {
        // Ignore the send error: a worker that already exited (it only
        // does so on this sentinel or a panic) needs no nudge.
        drop(self.handle.tx.send(Msg::Shutdown));
        self.worker
            .take()
            .expect("worker joined once")
            .join()
            .expect("serving worker panicked")
    }
}

/// Delivers one completion, folds it into the running statistics, and
/// returns the submission's admission slot to the gauge.
#[allow(clippy::too_many_arguments)]
fn deliver(
    stats: &mut ServingReport,
    gauge: &AdmissionGauge,
    submitted: Instant,
    deadline: Option<Duration>,
    reply: Reply,
    id: u64,
    result: Result<JobResult, SchedError>,
) {
    gauge.release();
    let latency = submitted.elapsed();
    let deadline_missed = deadline.is_some_and(|d| latency > d);
    stats.jobs += 1;
    match &result {
        Ok(r) => match r.backend {
            BackendKind::Simulate => stats.simulated += 1,
            BackendKind::Estimate => stats.estimated += 1,
            BackendKind::NativeFast | BackendKind::NativeExact => stats.native += 1,
        },
        Err(_) => stats.failed += 1,
    }
    if deadline_missed {
        stats.deadline_misses += 1;
    }
    stats.total_latency += latency;
    stats.max_latency = stats.max_latency.max(latency);
    let completion = Completion {
        id,
        result,
        latency,
        deadline_missed,
    };
    match reply {
        // A client that dropped its handle just doesn't hear back.
        Reply::Handle(tx) => drop(tx.send(completion)),
        // One misbehaving callback must not take down the worker (and
        // with it every other client's in-flight jobs); the panic is
        // contained to this delivery.
        Reply::Callback(cb) => {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cb(completion)));
        }
    }
}

/// One pending submission: everything needed to route the completion.
struct Pending {
    submitted: Instant,
    deadline: Option<Duration>,
    reply: Reply,
}

/// Removes the pending entry of `id`, if the client is still waiting.
fn take(pending: &mut Vec<(u64, Pending)>, id: u64) -> Option<Pending> {
    pending
        .iter()
        .position(|(pid, _)| *pid == id)
        .map(|i| pending.remove(i).1)
}

/// A validated submission parked on dependency edges: it enters
/// admission the event the last id in `missing` finishes.
struct Waiting {
    job: Job,
    p: Pending,
    missing: Vec<u64>,
}

/// The ids whose completion has been delivered. Ids are handed out in
/// submission order and mostly finish in it, so the set is a watermark
/// below which every id is done plus the few done ids above it: it
/// stays as small as the work in flight instead of growing with every
/// job served.
#[derive(Debug, Default)]
struct DoneIds {
    below: u64,
    above: std::collections::HashSet<u64>,
}

impl DoneIds {
    /// Records `id`; `false` when it was already recorded.
    fn insert(&mut self, id: u64) -> bool {
        if id < self.below || !self.above.insert(id) {
            return false;
        }
        while self.above.remove(&self.below) {
            self.below += 1;
        }
        true
    }

    fn contains(&self, id: u64) -> bool {
        id < self.below || self.above.contains(&id)
    }
}

/// The continuous worker's farm-side state, grouped so dependency
/// release can re-enter admission from any point in the loop (a retire
/// event, or a predecessor that completed during its own admission).
struct ContinuousState {
    exec: ScaleOutExecutor,
    stats: ServingReport,
    /// Farm-placed jobs whose completion a client is waiting for.
    pending: Vec<(u64, Pending)>,
    /// Ids whose completion has been delivered (any outcome). The
    /// release gate of the dependency graph: an edge into this set is
    /// satisfied.
    done: DoneIds,
    /// Jobs parked on unfinished predecessors.
    waiting: Vec<Waiting>,
}

impl ContinuousState {
    /// Marks `id` finished and unparks every waiter it was the last
    /// unfinished predecessor of. Idempotent — the done-set makes a
    /// second finish of the same id a no-op, so a predecessor whose
    /// shards were re-placed after a fault still releases its
    /// dependents exactly once (its completion is also delivered
    /// exactly once: [`take`] removes the pending entry on the first
    /// retire that carries the merged result).
    fn finish(&mut self, id: u64) -> Vec<(Job, Pending)> {
        if !self.done.insert(id) {
            return Vec::new();
        }
        let mut ready = Vec::new();
        let mut i = 0;
        while i < self.waiting.len() {
            self.waiting[i].missing.retain(|d| *d != id);
            if self.waiting[i].missing.is_empty() {
                let w = self.waiting.remove(i);
                ready.push((w.job, w.p));
            } else {
                i += 1;
            }
        }
        ready
    }

    /// Admits one dependency-free job. Returns `Some(id)` when the
    /// job's completion was delivered during admission (estimate and
    /// native backends answer inline; farm admission can reject), so
    /// the caller can cascade the release of its dependents; `None`
    /// when the job was placed on the farm and will finish at a retire
    /// event.
    fn admit(&mut self, job: Job, p: Pending, gauge: &AdmissionGauge) -> Option<u64> {
        let id = job.id;
        let admitted = self.exec.admit(&job);
        // Free the operands before the completion wakes the client: its
        // next submission can then reuse their pages instead of
        // faulting in fresh ones.
        drop(job);
        let result = match admitted {
            Ok(Admitted::Placed) => {
                self.pending.push((id, p));
                return None;
            }
            Ok(Admitted::Answered(answer)) => Ok(answer),
            Err(e) => {
                if matches!(e, SchedError::DeadlineUnmeetable { .. }) {
                    self.stats.shed_jobs += 1;
                }
                Err(e)
            }
        };
        deliver(
            &mut self.stats,
            gauge,
            p.submitted,
            p.deadline,
            p.reply,
            id,
            result,
        );
        Some(id)
    }

    /// Delivers the farm's outcome for placed job `id` and admits the
    /// dependents its completion releases.
    fn complete(&mut self, id: u64, result: Result<JobResult, SchedError>, gauge: &AdmissionGauge) {
        if let Some(p) = take(&mut self.pending, id) {
            deliver(
                &mut self.stats,
                gauge,
                p.submitted,
                p.deadline,
                p.reply,
                id,
                result,
            );
            let released = self.finish(id);
            self.drain_ready(released, gauge);
        }
    }

    /// Admits every job on the `ready` worklist, highest priority
    /// first (submission id breaks ties), cascading through dependents
    /// that become ready because a predecessor completed during its
    /// own admission. Released dependents merge into the ordering, so
    /// a high-priority dependent overtakes lower-priority jobs that
    /// were ready before it.
    fn drain_ready(&mut self, mut ready: Vec<(Job, Pending)>, gauge: &AdmissionGauge) {
        while !ready.is_empty() {
            let mut best = 0;
            for i in 1..ready.len() {
                let key = |j: &Job| (std::cmp::Reverse(j.opts.priority), j.id);
                if key(&ready[i].0) < key(&ready[best].0) {
                    best = i;
                }
            }
            let (job, p) = ready.swap_remove(best);
            if let Some(id) = self.admit(job, p, gauge) {
                ready.append(&mut self.finish(id));
            }
        }
    }
}

/// The continuous-admission worker: the farm never stops between jobs.
///
/// Each trip around the loop (1) pulls every submission currently on
/// the channel — blocking only when the farm is idle — and admits the
/// group in priority order, each job placed on the least-loaded
/// clusters at that instant; (2) retires exactly one farm shard event,
/// folds its measured duration into the [`DurationTable`], and
/// delivers the completion if that job just finished — or fails the
/// jobs a cluster kill left without a live cluster. Admission is
/// therefore interleaved with execution at shard granularity: a job
/// that arrives mid-run waits at most one shard before it is placed,
/// and its completion never waits for unrelated jobs.
///
/// Robustness hooks live here: jobs carrying a virtual-cycle deadline
/// are shed at admission when the placement estimate proves it
/// unmeetable ([`SchedError::DeadlineUnmeetable`]), and the farm's
/// fault counters (injected faults, retried shards) are folded into
/// the final report.
///
/// Dependency edges are resolved here, on the merge side: a submission
/// carrying unfinished predecessor ids parks in a waiting list and is
/// handed to admission the event its last predecessor's completion is
/// delivered — by a farm retire, or inline when the predecessor ran on
/// the estimate/native backends (release then cascades within the same
/// admission round). Unknown predecessor ids park the job until they
/// are submitted and finish; at shutdown, jobs still parked fail with
/// [`SchedError::DependencyDropped`]. Because the done-set and the
/// pending list release each id exactly once, a predecessor whose
/// shards were re-placed after a cluster kill still releases its
/// dependents exactly once.
fn continuous_loop(
    rx: &Receiver<Msg>,
    exec: ScaleOutExecutor,
    gauge: &AdmissionGauge,
) -> ServingReport {
    let mut st = ContinuousState {
        stats: ServingReport::new(exec.num_clusters()),
        exec,
        pending: Vec::new(),
        done: DoneIds::default(),
        waiting: Vec::new(),
    };
    let mut group: Vec<Submission> = Vec::new();
    let t0 = Instant::now();
    let mut open = true;
    loop {
        // Gather the submissions that have arrived. Block only when
        // the farm has nothing to do; otherwise take what is there and
        // get back to retiring shards. Parked waiters don't hold the
        // farm open — only new submissions can release them, and those
        // arrive on this channel.
        group.clear();
        if open {
            if !st.exec.sim().has_farm_work() {
                match rx.recv() {
                    Ok(Msg::Submit(s)) => group.push(*s),
                    Ok(Msg::Shutdown) | Err(_) => open = false,
                }
            }
            while open && group.len() < MAX_GROUP {
                match rx.try_recv() {
                    Ok(Msg::Submit(s)) => group.push(*s),
                    Ok(Msg::Shutdown) => open = false,
                    Err(_) => break,
                }
            }
        }
        if !group.is_empty() {
            st.stats.waves += 1;
        }
        // Validate and park-or-ready each submission; the ready set is
        // then admitted in priority order (ids break ties). A job that
        // fails validation completes right here — which still counts
        // as finishing for its dependents.
        let mut ready: Vec<(Job, Pending)> = Vec::new();
        for s in group.drain(..) {
            let job = Job {
                id: s.id,
                label: s.label,
                kind: s.kind,
                opts: s.opts,
                deps: s.deps,
            };
            let p = Pending {
                submitted: s.submitted,
                deadline: s.opts.deadline,
                reply: s.reply,
            };
            if let Err(e) = job.validate() {
                let id = job.id;
                deliver(
                    &mut st.stats,
                    gauge,
                    p.submitted,
                    p.deadline,
                    p.reply,
                    id,
                    Err(e),
                );
                ready.append(&mut st.finish(id));
                continue;
            }
            let missing: Vec<u64> = job
                .deps
                .iter()
                .copied()
                .filter(|&d| !st.done.contains(d))
                .collect();
            if missing.is_empty() {
                ready.push((job, p));
            } else {
                st.waiting.push(Waiting { job, p, missing });
            }
        }
        st.drain_ready(ready, gauge);
        // Retire one shard event, deliver any finished or lost job, and
        // admit the dependents those completions release.
        let retire = st.exec.retire();
        for id in st.exec.take_lost() {
            st.complete(id, Err(lost_job()), gauge);
        }
        match retire {
            Some(retire) => {
                st.stats.busy_cluster_cycles += retire.cycles;
                if let Some(result) = retire.result {
                    st.complete(result.job_id, Ok(result), gauge);
                }
            }
            None if !open => break,
            None => {}
        }
    }
    // The channel is closed and the farm is drained: any job still
    // parked waits on a predecessor that will never finish (its id was
    // never submitted, or it is itself parked). Fail them all.
    for w in std::mem::take(&mut st.waiting) {
        let dep = w.missing.first().copied().unwrap_or(w.job.id);
        deliver(
            &mut st.stats,
            gauge,
            w.p.submitted,
            w.p.deadline,
            w.p.reply,
            w.job.id,
            Err(SchedError::DependencyDropped { dep }),
        );
    }
    let mut stats = st.stats;
    let sim = st.exec.sim();
    stats.makespan_cycles = sim.farm_makespan();
    let totals = sim.perf_totals();
    stats.ext_wait_cycles = totals.ext_wait_cycles;
    stats.ext_remote_bytes = totals.ext_remote_bytes;
    stats.ext_remote_wait_cycles = totals.ext_remote_wait_cycles;
    stats.fault_stall_cycles = totals.fault_stall_cycles;
    let faults = sim.fault_stats();
    stats.faults_injected = faults.faults_injected;
    stats.shards_retried = faults.shards_retried;
    let pool = sim.pool_stats();
    stats.worker_threads = pool.worker_threads;
    stats.pool_shards_merged = pool.shards_merged;
    stats.pool_shards_reclaimed = pool.shards_reclaimed;
    stats.backpressure_rejected = gauge.rejected.load(Ordering::Relaxed);
    stats.wall_seconds = t0.elapsed().as_secs_f64();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_ids_hold_only_the_out_of_order_tail() {
        let mut done = DoneIds::default();
        // Ids finish out of order within a window of 16, as jobs in
        // flight do: every one is recorded once, and only the ids
        // above the first unfinished one are stored.
        for base in (0..10_000u64).step_by(16) {
            for k in (0..16).rev() {
                assert!(done.insert(base + k));
                assert!(!done.insert(base + k), "a second finish is a no-op");
                assert!(done.above.len() <= 16);
            }
        }
        assert_eq!((done.below, done.above.len()), (10_000, 0));
        assert!(done.contains(0) && done.contains(9_999) && !done.contains(10_000));
        // A gap keeps every later id above it, still exact.
        assert!(done.insert(10_002));
        assert!(done.contains(10_002) && !done.contains(10_001));
        assert!(done.insert(10_000) && done.insert(10_001));
        assert_eq!((done.below, done.above.len()), (10_003, 0));
    }

    fn axpy(n: usize, seed: u32) -> JobKind {
        let data = |mut s: u32| -> Vec<f32> {
            (0..n)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 17;
                    s ^= s << 5;
                    ((s % 64) as f32 - 32.0) / 16.0
                })
                .collect()
        };
        JobKind::Axpy {
            a: 2.0,
            x: data(seed),
            y: data(seed.wrapping_add(1)),
        }
    }

    #[test]
    fn serves_multiple_clients_continuously_and_reports() {
        let server = Server::start(ServerConfig::with_clusters(2));
        let mut handles = Vec::new();
        let mut threads = Vec::new();
        for t in 0..3u32 {
            let session = server.session();
            threads.push(std::thread::spawn(move || {
                session
                    .job(format!("client-{t}"))
                    .kind(axpy(300 + t as usize * 100, t + 1))
                    .submit()
                    .expect("server running")
            }));
        }
        for t in threads {
            handles.push(t.join().expect("client thread"));
        }
        for h in handles {
            let c = h.wait().expect("job served");
            let r = c.result.expect("valid job");
            assert!(!r.output.is_empty());
            assert!(!c.deadline_missed);
        }
        let report = server.shutdown();
        assert_eq!(report.jobs, 3);
        assert_eq!(report.simulated, 3);
        assert_eq!(report.failed, 0);
        assert!(report.jobs_per_second() > 0.0);
        assert!(report.makespan_cycles > 0);
        assert!(report.occupancy() > 0.0);
    }

    #[test]
    fn bad_job_fails_alone_and_estimates_flow_through() {
        let server = Server::start(ServerConfig::with_clusters(2));
        let session = server.session();
        let good = session.job("good").kind(axpy(256, 7)).submit().unwrap();
        let bad = session
            .job("bad")
            .axpy(1.0, vec![1.0; 4], vec![1.0; 3])
            .submit()
            .unwrap();
        let est = session
            .job("estimate")
            .kind(axpy(4096, 9))
            .estimate()
            .submit()
            .unwrap();
        let g = good.wait().unwrap();
        assert!(g.result.is_ok());
        let b = bad.wait().unwrap();
        assert!(matches!(b.result, Err(SchedError::Shape(_))));
        let e = est.wait().unwrap().result.expect("estimate served");
        assert!(e.estimate.is_some());
        let report = server.shutdown();
        assert_eq!(report.jobs, 3);
        assert_eq!(report.failed, 1);
        assert_eq!(report.estimated, 1);
    }

    #[test]
    fn callbacks_deadlines_and_wait_timeout() {
        let server = Server::start(ServerConfig::with_clusters(1));
        let session = server.session();
        let (tx, rx) = channel();
        session
            .job("cb")
            .kind(axpy(200, 3))
            .deadline(Duration::from_secs(3600))
            .submit_callback(move |c| {
                let _ = tx.send((c.id, c.deadline_missed, c.result.is_ok()));
            })
            .expect("server running");
        let (_, missed, ok) = rx.recv().expect("callback fired");
        assert!(ok);
        assert!(!missed);
        // An already-expired deadline is reported as missed.
        let mut h = session
            .job("late")
            .kind(axpy(200, 5))
            .deadline(Duration::ZERO)
            .submit()
            .unwrap();
        // wait_timeout keeps the handle on timeout and hands the
        // completion over once it arrives.
        let c = loop {
            match h.wait_timeout(Duration::from_millis(50)) {
                Ok(Some(c)) => break c,
                Ok(None) => continue,
                Err(e) => panic!("server dropped the job: {e}"),
            }
        };
        assert!(c.deadline_missed);
        let report = server.shutdown();
        assert_eq!(report.deadline_misses, 1);
    }

    #[test]
    fn handles_survive_shutdown_ordering() {
        let server = Server::start(ServerConfig::with_clusters(1));
        let session = server.session();
        let h = session.job("pre").kind(axpy(128, 11)).submit().unwrap();
        let report = server.shutdown();
        assert_eq!(report.jobs, 1);
        // The in-flight job was drained before shutdown returned.
        assert!(h.wait().is_ok());
        // New submissions are rejected.
        assert!(matches!(
            session.job("post").kind(axpy(16, 1)).submit(),
            Err(SchedError::Shutdown)
        ));
    }

    #[test]
    fn overflowing_gemm_dims_fail_alone_without_killing_the_worker() {
        // 65536 * 65536 overflows u32: the shape check must reject the
        // job explicitly, and the worker must keep serving.
        let server = Server::start(ServerConfig::with_clusters(1));
        let session = server.session();
        let huge = ntx_kernels::blas::GemmKernel {
            m: 65_536,
            k: 65_536,
            n: 1,
        };
        let bad = session
            .job("overflow")
            .gemm(huge, Vec::new(), vec![0.0; 65_536])
            .submit()
            .unwrap();
        assert!(matches!(
            bad.wait().unwrap().result,
            Err(SchedError::Shape(_))
        ));
        let good = session.job("after").kind(axpy(64, 3)).submit().unwrap();
        assert!(good.wait().unwrap().result.is_ok());
        let report = server.shutdown();
        assert_eq!(report.jobs, 2);
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn gemm_output_past_u32_elements_fails_alone_on_every_backend() {
        // m * n = 2^33 output elements from 768 KiB of operands: the
        // operand lengths check out, so only the output-length check
        // keeps the job from a 32 GiB output buffer.
        let server = Server::start(ServerConfig::with_clusters(1));
        let session = server.session();
        let (m, n) = (1u32 << 17, 1u32 << 16);
        let dims = ntx_kernels::blas::GemmKernel { m, k: 1, n };
        for backend in [BackendKind::NativeExact, BackendKind::Simulate] {
            let bad = session
                .job("huge output")
                .gemm(dims, vec![1.0; m as usize], vec![1.0; n as usize])
                .backend(backend)
                .submit()
                .unwrap();
            let result = bad.wait().unwrap().result;
            assert!(
                matches!(result, Err(SchedError::Shape(_))),
                "{backend:?}: {result:?}"
            );
        }
        let good = session.job("after").kind(axpy(64, 3)).submit().unwrap();
        assert!(good.wait().unwrap().result.is_ok());
        let report = server.shutdown();
        assert_eq!(report.jobs, 3);
        assert_eq!(report.failed, 2);
    }

    #[test]
    fn backpressure_rejects_when_queue_full() {
        // Two sizable jobs fill the two in-flight slots; the third
        // submission is rejected client-side with an explicit error
        // instead of queueing without bound.
        let server = Server::start(ServerConfig::with_clusters(1).with_queue_limit(2));
        let session = server.session();
        let a = session.job("a").kind(axpy(60_000, 3)).submit().unwrap();
        let b = session.job("b").kind(axpy(60_000, 5)).submit().unwrap();
        let rejected = session.job("c").kind(axpy(64, 7)).submit();
        assert!(
            matches!(rejected, Err(SchedError::Backpressure { limit: 2 })),
            "third submission should hit the bound: {rejected:?}"
        );
        assert!(a.wait().unwrap().result.is_ok());
        assert!(b.wait().unwrap().result.is_ok());
        let report = server.shutdown();
        assert_eq!(report.jobs, 2);
        assert_eq!(report.backpressure_rejected, 1);
    }

    #[test]
    fn submit_wait_blocks_until_a_slot_frees() {
        let server = Server::start(ServerConfig::with_clusters(1).with_queue_limit(1));
        let session = server.session();
        let a = session.job("a").kind(axpy(60_000, 9)).submit().unwrap();
        // The slot is taken; the blocking variant waits for `a` to
        // retire instead of erroring.
        let waiter = {
            let session = server.session();
            std::thread::spawn(move || {
                session
                    .job("b")
                    .kind(axpy(128, 11))
                    .submit_wait()
                    .expect("slot frees when a completes")
            })
        };
        assert!(a.wait().unwrap().result.is_ok());
        let b = waiter.join().expect("waiter thread");
        assert!(b.wait().unwrap().result.is_ok());
        let report = server.shutdown();
        assert_eq!(report.jobs, 2);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn sheds_jobs_with_unmeetable_cycle_deadlines() {
        let server = Server::start(ServerConfig::with_clusters(1));
        let session = server.session();
        // One cycle from now is unmeetable for any real job, whatever
        // the backlog; a generous budget is always meetable.
        let doomed = session
            .job("doomed")
            .kind(axpy(30_000, 3))
            .deadline_cycles(1)
            .submit()
            .unwrap();
        let fine = session
            .job("fine")
            .kind(axpy(30_000, 5))
            .deadline_cycles(u64::MAX)
            .submit()
            .unwrap();
        let d = doomed.wait().unwrap();
        match d.result {
            Err(SchedError::DeadlineUnmeetable {
                estimated_cycles,
                deadline_cycles,
            }) => {
                assert!(estimated_cycles > deadline_cycles);
                assert_eq!(deadline_cycles, 1);
            }
            other => panic!("expected a shed job, got {other:?}"),
        }
        assert!(fine.wait().unwrap().result.is_ok());
        let report = server.shutdown();
        assert_eq!(report.jobs, 2);
        assert_eq!(report.shed_jobs, 1);
        assert_eq!(report.failed, 1);
        assert_eq!(report.simulated, 1);
    }

    #[test]
    fn fault_plan_kill_loses_no_jobs() {
        // A cluster dies mid-run; its shards are re-placed and every
        // submission still completes successfully.
        let faults = crate::FaultPlan::NONE.with_seed(7).with_kill(1, 500);
        let server = Server::start(ServerConfig::with_clusters(4).with_faults(faults));
        let session = server.session();
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                session
                    .job(format!("job-{i}"))
                    .kind(axpy(20_000 + 64 * i as usize, i + 1))
                    .submit()
                    .unwrap()
            })
            .collect();
        for h in handles {
            let c = h.wait().expect("job served");
            assert!(!c.result.expect("job survives the kill").output.is_empty());
        }
        let report = server.shutdown();
        assert_eq!(report.jobs, 8);
        assert_eq!(report.failed, 0);
        assert!(report.faults_injected >= 1, "the kill should have fired");
        assert!(report.shards_retried >= 1, "in-flight work was re-placed");
    }

    #[test]
    fn worker_threads_reports_the_width_the_farm_ran_on() {
        // A cluster runs on one thread, so a 2-cluster farm asked for
        // 8 threads runs a 2-thread pool and must say so.
        let server = Server::start(ServerConfig::with_clusters(2).with_worker_threads(8));
        let session = server.session();
        let job = session
            .job("pooled")
            .kind(axpy(20_000, 3))
            .submit()
            .unwrap();
        assert!(job.wait().unwrap().result.is_ok());
        let report = server.shutdown();
        assert_eq!(report.worker_threads, 2);
        assert!(report.pool_shards_merged > 0, "the pool ran the shards");
    }

    #[test]
    fn kill_of_the_last_cluster_fails_its_jobs_and_keeps_serving() {
        // One cluster, killed mid-shard: no survivor can re-run the
        // orphaned shard, so its job fails with a capacity error
        // instead of taking the serving thread down. Later simulated
        // jobs fail at admission, and the native backend still serves.
        let faults = crate::FaultPlan::NONE.with_seed(1).with_kill(0, 100);
        let server = Server::start(ServerConfig::with_clusters(1).with_faults(faults));
        let session = server.session();
        let inflight = session
            .job("inflight")
            .kind(axpy(2000, 3))
            .submit()
            .unwrap();
        let result = inflight.wait().unwrap().result;
        assert!(matches!(result, Err(SchedError::Capacity(_))), "{result:?}");
        let later = session.job("later").kind(axpy(2000, 5)).submit().unwrap();
        let result = later.wait().unwrap().result;
        assert!(matches!(result, Err(SchedError::Capacity(_))), "{result:?}");
        let native = session
            .job("native")
            .kind(axpy(2000, 7))
            .native_exact()
            .submit()
            .unwrap();
        assert!(native.wait().unwrap().result.is_ok());
        let report = server.shutdown();
        assert_eq!(report.jobs, 3);
        assert_eq!(report.failed, 2);
    }

    #[test]
    fn wait_timeout_reports_shutdown_when_worker_is_gone() {
        // Regression: a handle whose completion channel died (worker
        // thread dropped mid-wait) must surface Err(Shutdown), not
        // hang or time out forever.
        let (tx, rx) = channel::<Completion>();
        drop(tx);
        let mut h = JobHandle { id: 0, rx };
        assert!(matches!(
            h.wait_timeout(Duration::from_secs(60)),
            Err(SchedError::Shutdown)
        ));
        assert!(matches!(h.try_wait(), Err(SchedError::Shutdown)));

        // End to end: dropping the server (and every session) without
        // shutdown drains in-flight jobs, so a bounded wait loop
        // terminates with either the completion or a clean error.
        let server = Server::start(ServerConfig::with_clusters(1));
        let mut h = {
            let session = server.session();
            session.job("orphan").kind(axpy(256, 13)).submit().unwrap()
        };
        drop(server.handle);
        drop(server.worker);
        let mut outcome = None;
        for _ in 0..600 {
            match h.wait_timeout(Duration::from_millis(100)) {
                Ok(Some(c)) => {
                    outcome = Some(c.result.is_ok());
                    break;
                }
                Ok(None) => continue,
                Err(SchedError::Shutdown) => {
                    outcome = Some(false);
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(outcome.is_some(), "wait_timeout loop never resolved");
    }

    #[test]
    fn dag_chain_admits_in_dependency_order() {
        // Without edges the tiny tail jobs would overtake the big head
        // job on a 4-cluster farm; with edges every completion is
        // delivered in topological order.
        let server = Server::start(ServerConfig::with_clusters(4));
        let session = server.session();
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let record = |order: &Arc<std::sync::Mutex<Vec<u64>>>| {
            let order = Arc::clone(order);
            move |c: Completion| {
                assert!(c.result.is_ok());
                order.lock().unwrap().push(c.id);
            }
        };
        let a = session
            .job("head")
            .kind(axpy(40_000, 3))
            .submit_callback(record(&order))
            .unwrap();
        let b = session
            .job("mid")
            .kind(axpy(64, 5))
            .after_id(a)
            .submit_callback(record(&order))
            .unwrap();
        let c = session
            .job("tail")
            .kind(axpy(64, 7))
            .after_id(a)
            .after_id(b)
            .submit_callback(record(&order))
            .unwrap();
        let report = server.shutdown();
        assert_eq!(report.jobs, 3);
        assert_eq!(report.failed, 0);
        assert_eq!(*order.lock().unwrap(), vec![a, b, c]);
    }

    #[test]
    fn dag_edge_from_inline_backend_cascades_in_one_round() {
        // A predecessor served inline (estimate / native backends
        // complete during admission) releases its dependents in the
        // same admission round, even when both arrive in one group.
        let server = Server::start(ServerConfig::with_clusters(2));
        let session = server.session();
        let a = session
            .job("plan")
            .kind(axpy(4096, 3))
            .estimate()
            .submit()
            .unwrap();
        let b = session
            .job("run")
            .kind(axpy(256, 5))
            .after(&a)
            .submit()
            .unwrap();
        let c = session
            .job("check")
            .kind(axpy(128, 7))
            .native_exact()
            .after_all([&a, &b])
            .submit()
            .unwrap();
        assert!(a.wait().unwrap().result.is_ok());
        assert!(b.wait().unwrap().result.is_ok());
        assert!(c.wait().unwrap().result.is_ok());
        let report = server.shutdown();
        assert_eq!(report.jobs, 3);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn dangling_dependency_fails_at_shutdown() {
        let server = Server::start(ServerConfig::with_clusters(1));
        let session = server.session();
        let orphan = session
            .job("orphan")
            .kind(axpy(64, 3))
            .after_id(9_999)
            .submit()
            .unwrap();
        // A self-edge is rejected at validation, before it can park
        // forever.
        let selfish = session
            .job("selfish")
            .kind(axpy(64, 5))
            .after_id(1)
            .submit()
            .unwrap();
        assert_eq!(selfish.id, 1);
        assert!(matches!(
            selfish.wait().unwrap().result,
            Err(SchedError::Shape(_))
        ));
        let report = server.shutdown();
        match orphan.wait().unwrap().result {
            Err(SchedError::DependencyDropped { dep }) => assert_eq!(dep, 9_999),
            other => panic!("expected a dropped dependency, got {other:?}"),
        }
        assert_eq!(report.jobs, 2);
        assert_eq!(report.failed, 2);
    }

    #[test]
    fn dag_survives_cluster_kill_and_releases_once() {
        // A chain across a cluster kill: the re-placed predecessor
        // still completes exactly once, so each dependent runs exactly
        // once and the whole chain retires successfully.
        let faults = crate::FaultPlan::NONE.with_seed(11).with_kill(1, 500);
        let server = Server::start(ServerConfig::with_clusters(4).with_faults(faults));
        let session = server.session();
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut prev: Option<u64> = None;
        for i in 0..4u32 {
            let order = Arc::clone(&order);
            let job = session
                .job(format!("step-{i}"))
                .kind(axpy(20_000 + 64 * i as usize, i + 1));
            let job = match prev {
                Some(p) => job.after_id(p),
                None => job,
            };
            let id = job
                .submit_callback(move |c| {
                    assert!(c.result.is_ok(), "chain step failed: {:?}", c.result);
                    order.lock().unwrap().push(c.id);
                })
                .unwrap();
            prev = Some(id);
        }
        let report = server.shutdown();
        assert_eq!(report.jobs, 4);
        assert_eq!(report.failed, 0);
        assert!(report.faults_injected >= 1, "the kill should have fired");
        let order = order.lock().unwrap();
        assert_eq!(*order, vec![0, 1, 2, 3], "chain must retire in order");
    }

    #[test]
    fn continuous_mode_streams_completions_mid_run() {
        // Continuous admission delivers each completion the shard
        // event its job retires: with several substantial jobs in the
        // farm, the first delivery happens well before the last —
        // unlike `run_queue`, which returns every result once the whole
        // queue has drained. The deterministic virtual-time overtake
        // is asserted in the proptest suite
        // (`late_small_job_overtakes_inflight_wave`). Exact delivery
        // interleaving depends on how submissions group, so this
        // asserts the streaming property rather than a specific order.
        let server = Server::start(ServerConfig::with_clusters(4));
        let session = server.session();
        let latencies = Arc::new(std::sync::Mutex::new(Vec::new()));
        for (label, n, seed) in [
            ("warmup", 30_000, 7u32),
            ("big", 59_998, 11),
            ("medium", 2000, 13),
            ("small", 64, 19),
        ] {
            let latencies = Arc::clone(&latencies);
            session
                .job(label)
                .kind(axpy(n, seed))
                .submit_callback(move |c| {
                    assert!(c.result.is_ok());
                    latencies.lock().unwrap().push(c.latency);
                })
                .expect("server running");
        }
        let report = server.shutdown();
        assert_eq!(report.jobs, 4);
        let latencies = latencies.lock().unwrap();
        let first = *latencies.iter().min().expect("deliveries");
        let last = *latencies.iter().max().expect("deliveries");
        assert!(
            first.as_secs_f64() < 0.9 * last.as_secs_f64(),
            "completions should stream out as jobs retire, not bunch at the end: \
             first {first:?} vs last {last:?}"
        );
    }

    /// A farm the configuration cannot build fails `start` on the
    /// caller's thread with the farm's own message, instead of
    /// accepting jobs and panicking at shutdown.
    #[test]
    #[should_panic(expected = "every cube needs at least one attached cluster")]
    fn misconfigured_mesh_is_rejected_at_start() {
        // The default mesh has 4 cubes: 2 clusters cannot cover them.
        let config = ServerConfig::with_clusters(2).with_hmc_mesh(crate::MeshConfig::default());
        let server = Server::start(config);
        let _ = server.session().job("axpy").kind(axpy(64, 3)).submit();
        let _ = server.shutdown();
    }
}
