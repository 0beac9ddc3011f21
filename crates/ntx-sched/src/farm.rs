//! The cluster farm: event-driven shard execution across N
//! independent clusters.
//!
//! Each cluster owns a FIFO of *shards* (one per job that placed work
//! on it) and runs them back to back: the moment its pipeline for job
//! *i* drains — an observable [`Cluster::run_burst`] event — the
//! cluster stages job *i+1* and queues its input DMA, so in system
//! (makespan) time the store-drain of job *i* on one cluster overlaps
//! the input DMA of job *i+1* on every cluster that finished earlier,
//! and small jobs placed on disjoint cluster subsets run concurrently
//! (cluster-level space sharing).
//!
//! One routine runs a shard. Each cluster is a private `ClusterSlot`
//! (its state, local clock, dead flag and queued plans), and the
//! slot's `run` does all of a shard's work: the kill check, the plan
//! backup, `run_shard`, the straddle abort, the readback gather and
//! the stall attribution. The slots live in one of two engines:
//!
//! * **inline** (`worker_threads = 1`): the merge thread runs a
//!   cluster's next shard when the event selection reaches it;
//! * **pooled**: worker threads own the slots and run each shard the
//!   moment it is queued, speculatively.
//!
//! Each cluster runs its shards in admission order on both engines,
//! and every cross-cluster decision — event selection, kill
//! detection, re-placement, the stall and fault counters — is made on
//! the merge thread, so the engines are bit-identical.
//!
//! Two drives feed the slots:
//!
//! * **continuous** ([`admit`](ClusterFarm::admit) /
//!   [`step`](ClusterFarm::step) / [`drain`](ClusterFarm::drain)):
//!   jobs join the *running* farm and cluster `c` starts its next
//!   shard the cycle its previous one retires — every queue runner
//!   (the server, [`run_queue`](crate::ScaleOutExecutor::run_queue),
//!   [`run_job`](crate::ScaleOutExecutor::run_job)) drives this one;
//! * **barriered** ([`run_batch`](ClusterFarm::run_batch)): a
//!   pre-placed batch where every job waits for the slowest cluster
//!   of its predecessor, so the batch makespan is
//!   `Σ_j max_c shard(c, j)` — the fault-free differential oracle,
//!   mirroring the simulator's `fast_path: false` pattern.
//!
//! Each shard executes in an isolated idle-to-idle measurement window
//! on its cluster (staging is host work; clusters advance their local
//! clocks only while working), so per-job outputs **and** per-job
//! [`PerfSnapshot`] deltas are bit-identical between the two drives —
//! only the overlap accounting differs. This is also why the farm does
//! not chain one job's tiles into the next job's pipeline within a
//! cluster: the TCDM ping-pong region and the external-memory operand
//! regions are reused across jobs, and cross-job contention inside one
//! window would make the per-job counters diverge from the barriered
//! reference.

use ntx_mem::{HmcMesh, HmcPort, MemoryModel};
use ntx_sim::{Cluster, ClusterConfig, FaultPlan, PerfSnapshot};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::mpsc;

use crate::executor::{BatchResult, JobResult};
use crate::job::JobClass;
use crate::pipeline::TilePipeline;
use crate::report::ScaleOutReport;
use crate::tiler::{ClusterPlan, ReadbackSource};

/// The identity of a job inside the farm: everything execution needs
/// once the tiler has captured the job's data into its plans.
#[derive(Debug, Clone)]
pub struct JobMeta {
    /// Queue-assigned id.
    pub id: u64,
    /// Submission label.
    pub label: String,
    /// Output length in `f32` elements.
    pub output_len: usize,
    /// Duration-table class of the job's kind.
    pub class: JobClass,
    /// Requested home cube for the job's operand region (mesh memory
    /// only). `None` falls back to round-robin over the cubes by job
    /// id; out-of-range requests wrap.
    pub home_cube: Option<u32>,
}

impl JobMeta {
    /// The farm identity of `job`, whose check returned `checked`.
    #[must_use]
    pub fn of(job: &crate::Job, checked: crate::Checked) -> Self {
        Self {
            id: job.id,
            label: job.label.clone(),
            output_len: checked.output_len(),
            class: job.kind.class(),
            home_cube: job.opts.home_cube,
        }
    }
}

/// One job, placed: which cluster runs which shard plan.
#[derive(Debug)]
pub struct PlacedJob {
    /// Job identity.
    pub meta: JobMeta,
    /// `(cluster index, plan)` pairs, one per non-empty shard.
    pub shards: Vec<(usize, ClusterPlan)>,
}

/// How a shard's AXI port is wired for its run: the grant schedule of
/// the job's home cube as seen from the executing cluster, plus the
/// hop cost when that cube is remote. Pure data computed from the
/// static mesh geometry, so every engine and every pool worker wires
/// shards identically.
#[derive(Debug, Clone, Copy)]
struct ShardWiring {
    port: HmcPort,
    remote: bool,
    latency: u64,
}

/// Fault-recovery counters of one farm run (continuous drive; the
/// barriered oracle never injects faults).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events that fired: cluster kills plus transient stalls.
    pub faults_injected: u64,
    /// Shards evacuated from a failed cluster and re-admitted on a
    /// surviving one (queued shards plus the aborted in-flight shard).
    pub shards_retried: u64,
}

/// Worker-pool utilization counters of one continuous farm run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads stepping the continuous farm: the resolved
    /// request, capped at the cluster count because each cluster runs
    /// on one thread. 1 means the inline engine, unless more threads
    /// were requested for a 1-cluster farm: one pool thread then runs
    /// its shards and `shards_merged` counts them.
    pub worker_threads: usize,
    /// Shards executed speculatively on pool workers and folded in at
    /// the deterministic `(clock, cluster)` retire front (0 inline).
    pub shards_merged: u64,
    /// Speculated shards invalidated by a cluster kill: the aborted
    /// in-flight shard plus every queued plan reclaimed from the dead
    /// worker for re-placement on survivors (0 inline).
    pub shards_reclaimed: u64,
}

/// Resolves a requested worker-thread count for the continuous farm:
/// an explicit `requested > 0` wins; `0` means auto — the
/// `NTX_WORKER_THREADS` environment variable when set to a positive
/// integer, else `1` (the inline engine).
#[must_use]
pub fn resolve_worker_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::env::var("NTX_WORKER_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// A slot's answer for one shard of its cluster, delivered in
/// admission order.
enum ShardOutcome {
    /// The shard ran to completion before any armed kill cycle.
    Retired {
        perf: PerfSnapshot,
        cycles: u64,
        /// `(output offset, data)` readback segments: the job's output
        /// vector lives with the merge thread, which copies them in.
        reads: Vec<(usize, Vec<f32>)>,
    },
    /// The shard straddled the cluster's kill cycle: its effects are
    /// discarded and `plan` is the untouched backup for re-placement.
    Aborted { plan: ClusterPlan },
    /// Answer to [`WorkerCmd::Reclaim`]: the stashed (never executed)
    /// plans of a dead cluster, in admission order.
    Reclaimed { plans: Vec<ClusterPlan> },
}

/// A shard plan queued on one cluster, with its port wiring.
type QueuedPlan = (ClusterPlan, Option<ShardWiring>);

/// One cluster's private execution state. The merge thread owns every
/// slot on the inline engine; a pool worker owns it on the pooled one.
/// Either way [`run`](Self::run) is the only code that executes a
/// shard.
#[derive(Debug)]
struct ClusterSlot {
    /// The cluster's index in the farm, the fault plan's key.
    index: u32,
    cluster: Cluster,
    /// Local mirror of the merge thread's virtual clock for this
    /// cluster — both are the same pure sum of retired shard cycles
    /// plus injected stalls, so kill/stall decisions agree bit-exactly.
    clock: u64,
    /// Set once the clock reaches an armed kill cycle (or a shard
    /// straddles it): queued shards then stay stashed, never run.
    dead: bool,
    /// Shards queued here and not yet run, in admission order. A pool
    /// worker runs each shard as it arrives, so there only a dead
    /// cluster's stash builds up.
    stash: VecDeque<QueuedPlan>,
}

impl ClusterSlot {
    fn new(index: usize, cluster: Cluster) -> Self {
        Self {
            index: u32::try_from(index).expect("cluster index fits u32"),
            cluster,
            clock: 0,
            dead: false,
            stash: VecDeque::new(),
        }
    }

    /// Runs the oldest queued shard to completion and returns its
    /// outcome. `None` when nothing is queued, or when the cluster has
    /// crossed its kill cycle: the shard then stays stashed for
    /// [`reclaim`](Self::reclaim).
    fn run(&mut self, faults: &FaultPlan) -> Option<ShardOutcome> {
        let kill_at = faults.kill_cycle(self.index);
        if self.dead || kill_at.is_some_and(|at| self.clock >= at) {
            self.dead = true;
            return None;
        }
        let (mut plan, wiring) = self.stash.pop_front()?;
        // With a kill armed the shard might straddle the kill cycle;
        // keep a copy so the aborted work can be re-placed
        // bit-identically (`run_shard` consumes the tiles).
        let backup = kill_at.map(|_| plan.clone());
        let start = self.clock;
        let (perf, cycles) = run_shard(&mut self.cluster, &mut plan, wiring);
        if let Some(at) = kill_at.filter(|&at| start + cycles > at) {
            // Mid-shard kill: discard the run — no readback, clock
            // frozen at the kill cycle — and hand the backup plan back
            // for re-placement.
            self.clock = at;
            self.dead = true;
            let plan = backup.expect("kill armed implies a plan backup");
            return Some(ShardOutcome::Aborted { plan });
        }
        // The inputs are staged: free them before the output buffers
        // are allocated.
        let readbacks = std::mem::take(&mut plan.readbacks);
        drop(plan);
        let reads = readbacks
            .iter()
            .map(|rb| {
                let mut buf = vec![0f32; rb.len as usize];
                match rb.source {
                    ReadbackSource::Ext(addr) => {
                        self.cluster.ext_mem().read_f32_into(addr, &mut buf)
                    }
                    ReadbackSource::Tcdm(addr) => self.cluster.read_tcdm_into(addr, &mut buf),
                }
                (rb.dst, buf)
            })
            .collect();
        self.clock = start + cycles;
        // Transient stalls: windows whose boundary the shard crossed
        // freeze the cluster afterwards. Dead time is attributed to the
        // fault counter, not to the shard, so per-job outputs and
        // counters stay bit-identical to the fault-free run.
        let stall = faults.stall_between(self.index, start, self.clock);
        if stall > 0 {
            self.cluster.attribute_fault_stall(stall);
            self.clock += stall;
        }
        Some(ShardOutcome::Retired {
            perf,
            cycles,
            reads,
        })
    }

    /// Marks the cluster dead and hands back every plan still queued on
    /// it, in admission order.
    fn reclaim(&mut self) -> Vec<ClusterPlan> {
        self.dead = true;
        self.stash.drain(..).map(|(plan, _)| plan).collect()
    }
}

/// A command to a pool worker about one of its clusters. The merge
/// thread is the only sender, so each cluster's `Run`s arrive in
/// admission order.
enum WorkerCmd {
    /// Queue a shard and run it speculatively. (Boxed so the command
    /// stays channel-slot sized.)
    Run(Box<QueuedPlan>),
    /// Return every plan stashed on the dead cluster (the merge thread
    /// detected its kill and is about to re-place the orphans).
    Reclaim,
}

/// The body of one pool worker thread: owns a disjoint subset of the
/// farm's cluster slots, each with its result channel, and runs their
/// shards as they arrive. Exits when the command channel closes (the
/// pool is dropped).
fn worker_loop(
    mut owned: BTreeMap<usize, (ClusterSlot, mpsc::Sender<ShardOutcome>)>,
    faults: FaultPlan,
    rx: mpsc::Receiver<(usize, WorkerCmd)>,
) {
    while let Ok((cluster, cmd)) = rx.recv() {
        let (slot, tx) = owned
            .get_mut(&cluster)
            .expect("cluster owned by this worker");
        let outcome = match cmd {
            WorkerCmd::Run(queued) => {
                slot.stash.push_back(*queued);
                slot.run(&faults)
            }
            WorkerCmd::Reclaim => Some(ShardOutcome::Reclaimed {
                plans: slot.reclaim(),
            }),
        };
        if let Some(outcome) = outcome {
            let _ = tx.send(outcome);
        }
    }
}

/// The persistent worker pool of a pooled continuous farm: `threads`
/// OS threads, each owning the cluster slots `c` with
/// `c % threads == t`. Commands flow one channel per thread
/// (preserving per-cluster FIFO order); results come back one channel
/// per cluster so the merge thread can wait on exactly the cluster the
/// deterministic retire order demands next.
#[derive(Debug)]
struct WorkerPool {
    cmd_tx: Vec<mpsc::Sender<(usize, WorkerCmd)>>,
    result_rx: Vec<mpsc::Receiver<ShardOutcome>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Moves the farm's cluster slots onto `threads` worker threads.
    fn spawn(slots: Vec<ClusterSlot>, faults: FaultPlan, threads: usize) -> Self {
        let threads = threads.min(slots.len()).max(1);
        let mut result_rx = Vec::with_capacity(slots.len());
        let mut owned: Vec<BTreeMap<usize, _>> = (0..threads).map(|_| BTreeMap::new()).collect();
        for (c, slot) in slots.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            result_rx.push(rx);
            owned[c % threads].insert(c, (slot, tx));
        }
        let mut cmd_tx = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for slots in owned {
            let (tx, rx) = mpsc::channel();
            cmd_tx.push(tx);
            let worker = std::thread::Builder::new()
                .name(format!("ntx-pool-{}", handles.len()))
                .spawn(move || worker_loop(slots, faults, rx))
                .expect("spawn a farm pool worker thread");
            handles.push(worker);
        }
        Self {
            cmd_tx,
            result_rx,
            handles,
        }
    }

    /// Sends `cmd` to the worker that owns `cluster`.
    fn send(&self, cluster: usize, cmd: WorkerCmd) {
        self.cmd_tx[cluster % self.cmd_tx.len()]
            .send((cluster, cmd))
            .expect("pool worker thread alive");
    }

    /// Blocks for the next shard outcome of `cluster` (its worker runs
    /// ahead speculatively; results arrive in admission order).
    fn recv(&self, cluster: usize) -> ShardOutcome {
        self.result_rx[cluster]
            .recv()
            .expect("pool worker thread alive")
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the command channels ends the worker loops.
        self.cmd_tx.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Where the farm's cluster slots live and run. The farm reaches them
/// through three calls only: [`queue`](Self::queue),
/// [`next`](Self::next) and [`reclaim`](Self::reclaim).
#[derive(Debug)]
enum Engine {
    /// The merge thread owns the slots and runs each shard when the
    /// event selection reaches its cluster.
    Inline(Vec<ClusterSlot>),
    /// Worker threads own the slots and run each shard the moment it
    /// is queued; `reference` answers configuration queries.
    Pooled {
        pool: WorkerPool,
        reference: Box<Cluster>,
    },
}

impl Engine {
    /// Queues a shard on `cluster`, behind every shard queued there
    /// before.
    fn queue(&mut self, cluster: usize, plan: ClusterPlan, wiring: Option<ShardWiring>) {
        match self {
            Self::Inline(slots) => slots[cluster].stash.push_back((plan, wiring)),
            Self::Pooled { pool, .. } => {
                pool.send(cluster, WorkerCmd::Run(Box::new((plan, wiring))));
            }
        }
    }

    /// The outcome of the oldest unanswered shard of `cluster`, a live
    /// cluster with work queued: run now on the merge thread, or the
    /// worker's speculative result, which counts in `stats`.
    fn next(&mut self, cluster: usize, faults: &FaultPlan, stats: &mut PoolStats) -> ShardOutcome {
        match self {
            Self::Inline(slots) => slots[cluster]
                .run(faults)
                .expect("the merge thread steps only live clusters with queued shards"),
            Self::Pooled { pool, .. } => {
                let outcome = pool.recv(cluster);
                match outcome {
                    ShardOutcome::Retired { .. } => stats.shards_merged += 1,
                    // The aborted in-flight shard was a dead speculation.
                    _ => stats.shards_reclaimed += 1,
                }
                outcome
            }
        }
    }

    /// Every plan queued on the dead `cluster` and never run, in
    /// admission order; reclaimed pool speculations count in `stats`.
    /// A pool's command channel is FIFO, so every `Run` sent before the
    /// reclaim has been stashed by the time the worker answers.
    fn reclaim(&mut self, cluster: usize, stats: &mut PoolStats) -> Vec<ClusterPlan> {
        match self {
            Self::Inline(slots) => slots[cluster].reclaim(),
            Self::Pooled { pool, .. } => {
                pool.send(cluster, WorkerCmd::Reclaim);
                let ShardOutcome::Reclaimed { plans } = pool.recv(cluster) else {
                    unreachable!(
                        "every pre-kill shard outcome is consumed before the merge thread \
                         detects the kill, so the reclaim answer is next on the channel"
                    );
                };
                stats.shards_reclaimed += plans.len() as u64;
                plans
            }
        }
    }
}

/// One retired shard of the continuously-admitted farm: everything the
/// serving layer needs to update its measured-duration table and
/// deliver completions.
#[derive(Debug)]
pub struct ShardRetire {
    /// Id of the job the shard belongs to.
    pub job_id: u64,
    /// Duration-table class of that job.
    pub class: JobClass,
    /// Cluster the shard ran on.
    pub cluster: usize,
    /// Measured shard duration, cluster cycles.
    pub cycles: u64,
    /// The *raw* roofline estimate for this shard — the denominator of
    /// the measured-duration feedback (`cycles / est_cycles` is the
    /// observed roofline correction). Deliberately not the corrected
    /// placement hint: feeding the corrected value back into the EWMA
    /// would make the learned ratio converge to the square root of the
    /// true correction instead of the correction itself.
    pub est_cycles: u64,
    /// The cluster's virtual clock after this shard retired.
    pub clock: u64,
    /// The finished job, when this was its last outstanding shard.
    pub result: Option<JobResult>,
}

/// One job in flight through the farm.
#[derive(Debug)]
struct ActiveJob {
    meta: JobMeta,
    output: Vec<f32>,
    report: ScaleOutReport,
    remaining: usize,
    start_clock: u64,
    finish_clock: u64,
}

impl ActiveJob {
    fn new(meta: JobMeta, shards: usize, clusters: usize, freq_hz: f64) -> Self {
        Self {
            output: vec![0f32; meta.output_len],
            report: ScaleOutReport::new(clusters, freq_hz),
            remaining: shards,
            start_clock: u64::MAX,
            finish_clock: 0,
            meta,
        }
    }

    /// Folds one retired shard of `cluster` into the job: its readback
    /// segments into the output, its counters and cycles into the
    /// report.
    fn fold(
        &mut self,
        cluster: usize,
        perf: &PerfSnapshot,
        cycles: u64,
        reads: Vec<(usize, Vec<f32>)>,
    ) {
        for (dst, data) in reads {
            self.output[dst..dst + data.len()].copy_from_slice(&data);
        }
        self.report.per_cluster[cluster].accumulate(perf);
        self.report.makespan_cycles = self.report.makespan_cycles.max(cycles);
        self.remaining -= 1;
    }

    fn into_result(self) -> JobResult {
        JobResult {
            job_id: self.meta.id,
            label: self.meta.label,
            output: self.output,
            report: self.report,
            start_cycle: self.start_clock,
            finish_cycle: self.finish_clock,
            estimate: None,
            backend: crate::BackendKind::Simulate,
        }
    }
}

/// The merge thread's record of one queued shard: metadata only. The
/// plan waits with the engine and comes back only through an abort or
/// a reclaim, when a kill forces re-placement.
#[derive(Debug)]
struct QueuedShard {
    /// Index of the shard's job in `ClusterFarm::active`.
    job: usize,
    /// Corrected estimated cycles (the placement load unit).
    hint: u64,
    /// Raw roofline estimate (the measured-duration feedback input).
    est: u64,
}

/// The farm: N independent clusters plus their shard FIFOs. The
/// continuous drive ([`admit`](ClusterFarm::admit) /
/// [`step`](ClusterFarm::step) / [`drain`](ClusterFarm::drain)) feeds
/// jobs into the *running* farm and retires shards one observable
/// event at a time; [`run_batch`](ClusterFarm::run_batch) executes a
/// pre-placed batch barriered, as the differential oracle.
#[derive(Debug)]
pub struct ClusterFarm {
    /// The cluster slots and what runs them: the inline engine until
    /// the first continuous admission of a multi-threaded farm moves
    /// the slots onto the worker pool.
    engine: Engine,
    /// The per-cluster base configuration (before any per-shard mesh
    /// port wiring) — builds the reference cluster at pool activation.
    config: ClusterConfig,
    freq_hz: f64,
    /// Requested worker threads for continuous stepping (resolved; 1 =
    /// inline engine). The pool spins up lazily on first admit.
    worker_threads: usize,
    /// Pool-utilization counters of this run.
    pool_stats: PoolStats,
    /// Event-selection heap over `(clock, cluster)` keys: the earliest
    /// clocked cluster with pending work retires next. Entries are
    /// validated lazily on pop, so stale keys are cheap.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per-cluster flag: a key for this cluster is in `ready`.
    enqueued: Vec<bool>,
    /// Per-cluster FIFOs of shards admitted but not yet retired
    /// (continuous drive only), in the engine's order.
    pending: Vec<VecDeque<QueuedShard>>,
    /// In-flight jobs, slab-indexed by `QueuedShard::job`.
    active: Vec<Option<ActiveJob>>,
    free_slots: Vec<usize>,
    /// Per-cluster virtual clock: cycles of shard work retired so far.
    clock: Vec<u64>,
    /// Per-cluster estimated cycles still queued (placement load).
    queued_hint: Vec<u64>,
    /// The mesh geometry when the farm runs on [`MemoryModel::HmcMesh`]:
    /// it computes ports, homes, and hop costs.
    mesh: Option<HmcMesh>,
    /// Farm-lifetime accumulation of every retired shard's counter
    /// delta (both drives) — the serving layer's source for
    /// memory-stall attribution.
    totals: PerfSnapshot,
    /// The chaos schedule (continuous drive only; defaults to no
    /// faults). Consulted, never mutated — every injected event is a
    /// pure function of (seed, cycle, cluster).
    faults: FaultPlan,
    /// Clusters detected as failed: excluded from stepping and
    /// placement, their clocks frozen at the kill cycle.
    dead: Vec<bool>,
    /// Jobs failed because no cluster survived to run their orphaned
    /// shards, not yet collected by [`take_lost`](Self::take_lost).
    lost: Vec<u64>,
    /// Recovery counters of this run.
    fault_stats: FaultStats,
}

/// Stages a shard's inputs and runs it to completion in an isolated
/// idle-to-idle window; returns the counter delta and cycle count.
///
/// With mesh wiring the cluster's AXI port is first pointed at the
/// shard's home cube; a remote shard additionally pays the one-way hop
/// latency inside the measured window and has its traffic and stall
/// time attributed to the remote counters.
fn run_shard(
    cluster: &mut Cluster,
    plan: &mut ClusterPlan,
    wiring: Option<ShardWiring>,
) -> (PerfSnapshot, u64) {
    if let Some(w) = wiring {
        cluster.set_ext_port(Some(w.port));
    }
    for (addr, values) in &plan.ext_writes {
        cluster.ext_mem().write_f32_slice(*addr, values);
    }
    for (addr, values) in &plan.tcdm_writes {
        cluster.write_tcdm_f32(*addr, values);
    }
    // Measure from here: staging is host work, not simulated time.
    let before = cluster.perf();
    let cycle0 = cluster.cycle();
    let remote = wiring.filter(|w| w.remote);
    if let Some(w) = remote {
        cluster.advance_cycles(w.latency);
    }
    if let Some(raw) = &plan.raw {
        cluster.offload(0, &raw.config);
        cluster.run_to_completion();
    }
    if !plan.tiles.is_empty() {
        // The tiles move into the pipeline — plans are executed once,
        // so there is nothing to clone.
        let tiles = std::mem::take(&mut plan.tiles);
        TilePipeline::new(cluster, tiles).run_to_completion(cluster);
    }
    if let Some(w) = remote {
        let mid = cluster.perf().since(&before);
        cluster.attribute_remote(
            mid.ext_bytes_read + mid.ext_bytes_written,
            w.latency + mid.ext_wait_cycles,
        );
    }
    (cluster.perf().since(&before), cluster.cycle() - cycle0)
}

impl ClusterFarm {
    /// Builds the farm under an explicit external-memory model. With
    /// [`MemoryModel::HmcMesh`] the mesh hands each shard's cluster a
    /// port of its home cube's vault/LoB bandwidth schedule (or a
    /// clipped serial-link port when the shard runs remote), so
    /// concurrent DMA streams contend for external-memory slots instead
    /// of each owning an ideal pipe. Every cluster keeps its own
    /// external memory: the mesh schedules bandwidth only. The farm's
    /// clusters stay independent simulations (grants are a pure
    /// function of the cycle), so both drive modes and the worker pool
    /// keep working unchanged.
    ///
    /// # Panics
    ///
    /// Panics when `clusters` is zero, or when a mesh has more cubes
    /// than clusters.
    #[must_use]
    pub fn with_memory(clusters: usize, config: ClusterConfig, memory: MemoryModel) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        let slots: Vec<ClusterSlot> = (0..clusters)
            .map(|i| ClusterSlot::new(i, Cluster::new(config)))
            .collect();
        // Mesh ports depend on the job's home cube, so they are wired
        // per shard: every `run_shard` installs the right one first.
        let mesh = match memory {
            MemoryModel::Ideal => None,
            MemoryModel::HmcMesh(mc) => Some(HmcMesh::new(
                mc,
                u32::try_from(clusters).expect("cluster count fits u32"),
                config.ntx_freq_hz,
                config.dma_words_per_cycle,
            )),
        };
        Self {
            engine: Engine::Inline(slots),
            config,
            freq_hz: config.ntx_freq_hz,
            worker_threads: 1,
            pool_stats: PoolStats::default(),
            ready: BinaryHeap::new(),
            enqueued: vec![false; clusters],
            pending: (0..clusters).map(|_| VecDeque::new()).collect(),
            active: Vec::new(),
            free_slots: Vec::new(),
            clock: vec![0; clusters],
            queued_hint: vec![0; clusters],
            mesh,
            totals: PerfSnapshot::default(),
            faults: FaultPlan::NONE,
            dead: vec![false; clusters],
            lost: Vec::new(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Arms a chaos schedule for this farm's continuous drive. The
    /// barriered [`run_batch`](ClusterFarm::run_batch) ignores it — it
    /// is the fault-free differential oracle.
    ///
    /// # Panics
    ///
    /// Panics once the worker pool is active: the pool bakes the plan
    /// into its workers at activation.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            matches!(self.engine, Engine::Inline(_)),
            "fault plans must be armed before the worker pool activates"
        );
        self.faults = plan;
    }

    /// Sets the worker-thread count for continuous stepping (resolved
    /// via [`resolve_worker_threads`]; values above 1 make the first
    /// continuous admission activate the pool). The barriered
    /// [`run_batch`](ClusterFarm::run_batch) always runs inline.
    ///
    /// # Panics
    ///
    /// Panics once the worker pool is active.
    pub fn set_worker_threads(&mut self, threads: usize) {
        assert!(
            matches!(self.engine, Engine::Inline(_)),
            "the worker-thread count must be set before the pool activates"
        );
        self.worker_threads = threads.max(1);
    }

    /// Pool-utilization counters of this run (merge and reclaim counts
    /// are zero on the inline engine).
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            worker_threads: self.worker_threads.min(self.num_clusters()),
            ..self.pool_stats
        }
    }

    /// Spins up the worker pool on the first continuous admission of a
    /// multi-threaded farm: the cluster slots move onto the worker
    /// threads and a fresh reference cluster takes over configuration
    /// queries. Farms with `worker_threads == 1` stay inline.
    fn activate_pool(&mut self) {
        if self.worker_threads <= 1 {
            return;
        }
        if let Engine::Inline(slots) = &mut self.engine {
            let slots = std::mem::take(slots);
            self.engine = Engine::Pooled {
                pool: WorkerPool::spawn(slots, self.faults, self.worker_threads),
                reference: Box::new(Cluster::new(self.config)),
            };
        }
    }

    /// Queues cluster `index` as an event-selection candidate at its
    /// current clock (no-op when already queued, dead, or idle).
    fn push_candidate(&mut self, index: usize) {
        if !self.enqueued[index] && !self.dead[index] && !self.pending[index].is_empty() {
            self.ready.push(Reverse((self.clock[index], index)));
            self.enqueued[index] = true;
        }
    }

    /// Pops the next event cluster: the earliest `(clock, cluster)`
    /// key whose cluster is alive and has pending work — identical to
    /// a full `min_by_key` scan, in O(log N). Stale keys (the clock
    /// moved while queued) are re-pushed.
    fn next_event_cluster(&mut self) -> Option<usize> {
        while let Some(Reverse((clk, c))) = self.ready.pop() {
            self.enqueued[c] = false;
            if self.dead[c] || self.pending[c].is_empty() {
                continue;
            }
            if clk != self.clock[c] {
                self.push_candidate(c);
                continue;
            }
            return Some(c);
        }
        None
    }

    /// Recovery counters of this run (kills fired, shards re-placed).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// True when cluster `index` can still accept and run work: not
    /// yet detected dead, and not past an armed kill cycle.
    #[must_use]
    pub fn is_alive(&self, index: usize) -> bool {
        !self.dead[index] && !self.crossed_kill(index)
    }

    /// Number of live clusters.
    #[must_use]
    pub fn num_alive(&self) -> usize {
        (0..self.num_clusters())
            .filter(|&c| self.is_alive(c))
            .count()
    }

    /// The farm's virtual "now": the earliest live-cluster clock — the
    /// time at which the next admitted shard could start at all. Used
    /// by the serving layer's deadline shedding. Falls back over all
    /// clusters when none are alive.
    #[must_use]
    pub fn virtual_now(&self) -> u64 {
        let alive = (0..self.num_clusters())
            .filter(|&c| self.is_alive(c))
            .map(|c| self.clock[c])
            .min();
        alive.unwrap_or_else(|| self.clock.iter().copied().min().unwrap_or(0))
    }

    /// True when `index` has an armed kill whose cycle its clock has
    /// reached (kill pending detection).
    fn crossed_kill(&self, index: usize) -> bool {
        self.faults
            .kill_cycle(index as u32)
            .is_some_and(|at| self.clock[index] >= at)
    }

    /// Queues one shard of an active job on `cluster`: the plan goes
    /// to the engine, the metadata to the merge queue.
    fn enqueue(&mut self, cluster: usize, task: QueuedShard, plan: ClusterPlan) {
        let meta = &self.active[task.job]
            .as_ref()
            .expect("queued shard has an active job")
            .meta;
        let wiring = self.wiring_for(cluster, meta);
        self.engine.queue(cluster, plan, wiring);
        self.queued_hint[cluster] += task.hint;
        self.pending[cluster].push_back(task);
        self.push_candidate(cluster);
    }

    /// Marks `index` dead and re-admits everything still queued on it
    /// onto the least-loaded surviving clusters (FIFO order, ties to
    /// the lowest index — deterministic). `aborted` carries the
    /// in-flight shard of a mid-shard kill, evacuated first. When no
    /// cluster survives, the orphans' jobs fail instead: they leave the
    /// farm and their ids wait in [`take_lost`](Self::take_lost).
    fn fail_cluster(&mut self, index: usize, aborted: Option<(QueuedShard, ClusterPlan)>) {
        self.dead[index] = true;
        if let Some(at) = self.faults.kill_cycle(index as u32) {
            // Freeze the dead cluster's virtual clock at the kill
            // cycle, mid-shard too: work past it never observably
            // happened.
            self.clock[index] = at;
        }
        self.fault_stats.faults_injected += 1;
        let queued = std::mem::take(&mut self.pending[index]);
        let plans = self.engine.reclaim(index, &mut self.pool_stats);
        assert_eq!(
            plans.len(),
            queued.len(),
            "reclaimed plans must match the queued shards one-to-one"
        );
        self.queued_hint[index] = 0;
        for (task, plan) in aborted.into_iter().chain(queued.into_iter().zip(plans)) {
            let Some(target) = (0..self.num_clusters())
                .filter(|&c| self.is_alive(c))
                .min_by_key(|&c| (self.load(c), c))
            else {
                // The job's first orphan fails it; its other orphans
                // find the slot already empty.
                if let Some(job) = self.active[task.job].take() {
                    self.free_slots.push(task.job);
                    self.lost.push(job.meta.id);
                }
                continue;
            };
            self.enqueue(target, task, plan);
            self.fault_stats.shards_retried += 1;
        }
    }

    /// Ids of the jobs failed since the last call because a kill left
    /// no cluster to run their shards, in failure order.
    pub fn take_lost(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.lost)
    }

    /// The resolved home cube of a job under this farm's mesh (`None`
    /// without a mesh memory model).
    #[must_use]
    pub fn home_cube(&self, job_id: u64, requested: Option<u32>) -> Option<u32> {
        self.mesh.as_ref().map(|m| m.home_of(job_id, requested))
    }

    /// Placement penalty of running a shard of job `job_id` on
    /// `cluster`: 0 when the cluster is attached to the job's home
    /// cube (or the farm has no mesh), 1 when its traffic would cross
    /// a serial link. The admission path sorts candidate clusters by
    /// this before load.
    #[must_use]
    pub fn remote_penalty(&self, cluster: usize, job_id: u64, requested: Option<u32>) -> u64 {
        match &self.mesh {
            Some(m) => {
                let home = m.home_of(job_id, requested);
                u64::from(!m.is_local(cluster as u32, home))
            }
            None => 0,
        }
    }

    /// Farm-lifetime accumulation of every retired shard's counters.
    #[must_use]
    pub fn perf_totals(&self) -> PerfSnapshot {
        self.totals
    }

    /// The wiring a shard of `meta` needs on `cluster` (`None` without
    /// a mesh: the construction-time port stays in place).
    fn wiring_for(&self, cluster: usize, meta: &JobMeta) -> Option<ShardWiring> {
        let mesh = self.mesh.as_ref()?;
        let c = cluster as u32;
        let home = mesh.home_of(meta.id, meta.home_cube);
        let remote = !mesh.is_local(c, home);
        let mut port = mesh.port(c, home);
        if remote {
            // An armed link fault degrades *serial-link* traffic only:
            // local (same-cube) ports keep their nominal schedule.
            if let Some(lf) = self.faults.link_fault {
                port = port.degraded(lf.clip_q16, lf.from, lf.until);
            }
        }
        Some(ShardWiring {
            port,
            remote,
            latency: if remote {
                u64::from(mesh.link_latency_cycles())
            } else {
                0
            },
        })
    }

    /// Number of clusters.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.clock.len()
    }

    /// A cluster of this farm's configuration for tiler and capacity
    /// queries: cluster 0 itself on the inline engine, a fresh
    /// identically-configured cluster once the pool owns the real
    /// states. Only its configuration is meaningful.
    #[must_use]
    pub fn reference_cluster(&self) -> &Cluster {
        match &self.engine {
            Engine::Inline(slots) => &slots[0].cluster,
            Engine::Pooled { reference, .. } => reference,
        }
    }

    /// Executes a pre-placed batch barriered — every job starts when
    /// its predecessor's slowest shard has retired, so the batch
    /// makespan is the sum of the per-job makespans — and assembles
    /// per-job results in `placed` order. The differential oracle of
    /// the continuous drive: each shard runs through the same slot
    /// routine, on the inline engine, with no fault injected. Build a
    /// fresh farm for it.
    ///
    /// # Panics
    ///
    /// Panics once the worker pool is active.
    #[must_use]
    pub fn run_batch(&mut self, placed: Vec<PlacedJob>) -> BatchResult {
        let n = self.num_clusters();
        let Engine::Inline(slots) = &mut self.engine else {
            panic!("batch execution is not supported once the worker pool is active");
        };
        let mut slots = std::mem::take(slots);
        let mut batch = ScaleOutReport::new(n, self.freq_hz);
        let mut results = Vec::with_capacity(placed.len());
        for p in placed {
            // Per-job window: per-cluster deltas, shard-local makespan.
            let mut job = ActiveJob::new(p.meta, p.shards.len(), n, self.freq_hz);
            for (c, plan) in p.shards {
                let wiring = self.wiring_for(c, &job.meta);
                slots[c].stash.push_back((plan, wiring));
                let Some(ShardOutcome::Retired {
                    perf,
                    cycles,
                    reads,
                }) = slots[c].run(&FaultPlan::NONE)
                else {
                    unreachable!("a fault-free shard always retires");
                };
                self.totals.accumulate(&perf);
                batch.per_cluster[c].accumulate(&perf);
                job.fold(c, &perf, cycles, reads);
            }
            // Virtual farm time: jobs run back to back.
            job.start_clock = batch.makespan_cycles;
            batch.makespan_cycles += job.report.makespan_cycles;
            job.finish_clock = batch.makespan_cycles;
            results.push(job.into_result());
        }
        // The barriered windows are not continuous time: the slot
        // clocks keep mirroring the continuous clocks.
        for (slot, &clock) in slots.iter_mut().zip(&self.clock) {
            slot.clock = clock;
        }
        self.engine = Engine::Inline(slots);
        BatchResult {
            results,
            report: batch,
        }
    }

    /// Admits one placed job into the running farm (continuous mode):
    /// its shards join the tail of their clusters' FIFOs and will run
    /// as those clusters free up — no wave boundary, no barrier.
    /// `shard_cycles_hint` is the *corrected* estimated duration of
    /// one shard (the placement load unit); `shard_cycles_est` is the
    /// raw roofline estimate (reported back at retire as the
    /// measured-duration feedback denominator).
    ///
    /// # Panics
    ///
    /// Panics when the job has no shards (admission guarantees at
    /// least one non-empty plan for every valid job).
    pub fn admit(&mut self, placed: PlacedJob, shard_cycles_hint: u64, shard_cycles_est: u64) {
        assert!(!placed.shards.is_empty(), "job admitted with no shards");
        self.activate_pool();
        let n = self.num_clusters();
        let job = ActiveJob::new(placed.meta, placed.shards.len(), n, self.freq_hz);
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.active[s] = Some(job);
                s
            }
            None => {
                self.active.push(Some(job));
                self.active.len() - 1
            }
        };
        for (c, plan) in placed.shards {
            debug_assert!(
                self.is_alive(c),
                "placement targeted dead cluster {c} — the admission path must \
                 filter by `is_alive`"
            );
            let task = QueuedShard {
                job: slot,
                hint: shard_cycles_hint,
                est: shard_cycles_est,
            };
            self.enqueue(c, task, plan);
        }
    }

    /// Retires the next shard event of the continuous farm: the
    /// cluster whose virtual clock is earliest (ties to the lowest
    /// index) runs the shard at the head of its FIFO to completion in
    /// an isolated idle-to-idle window. Returns `None` when no shards
    /// are queued. Per-cluster shard order is admission order, so
    /// per-job outputs and [`PerfSnapshot`]s are bit-identical to a
    /// barriered [`run_batch`](ClusterFarm::run_batch) of the same
    /// placement — only the admission timing differs. A kill that
    /// leaves no cluster alive fails the jobs still on the farm (see
    /// [`take_lost`](Self::take_lost)) and the step returns `None`.
    pub fn step(&mut self) -> Option<ShardRetire> {
        // A loop, not tail recursion: a kill with a deep pending queue
        // re-places every orphan and tries again, and the stack must
        // not grow with the queue depth.
        loop {
            // Detect a kill whose cycle was crossed since the last
            // event: the dead cluster's queue is evacuated before
            // anything else is scheduled, so no shard is ever lost.
            // At most one kill is armed, so only that cluster needs
            // checking.
            if let Some(k) = self.faults.kill {
                let kc = k.cluster as usize;
                if kc < self.num_clusters() && !self.dead[kc] && self.crossed_kill(kc) {
                    self.fail_cluster(kc, None);
                }
            }
            let c = self.next_event_cluster()?;
            let task = self.pending[c].pop_front().expect("non-empty FIFO");
            self.queued_hint[c] -= task.hint;
            let start = self.clock[c];
            let (perf, cycles, reads) =
                match self.engine.next(c, &self.faults, &mut self.pool_stats) {
                    ShardOutcome::Retired {
                        perf,
                        cycles,
                        reads,
                    } => (perf, cycles, reads),
                    ShardOutcome::Aborted { plan } => {
                        // The cluster died mid-shard: the run is discarded
                        // — no readback, no counter accumulation, clock
                        // frozen at the kill cycle — and the shard (plus
                        // the rest of the queue) is re-admitted on the
                        // survivors.
                        self.fail_cluster(c, Some((task, plan)));
                        continue;
                    }
                    ShardOutcome::Reclaimed { .. } => {
                        unreachable!("reclaim answers are consumed inside Engine::reclaim")
                    }
                };
            debug_assert!(
                self.faults
                    .kill_cycle(c as u32)
                    .is_none_or(|at| start + cycles <= at),
                "a shard retired across its cluster's kill cycle"
            );
            self.totals.accumulate(&perf);
            // The slot attributed any transient stall to its cluster;
            // the merge thread advances the clock past it and counts
            // it.
            self.clock[c] = start + cycles;
            let stall = self.faults.stall_between(c as u32, start, self.clock[c]);
            if stall > 0 {
                self.clock[c] += stall;
                self.totals.fault_stall_cycles += stall;
                self.fault_stats.faults_injected += 1;
            }
            let job = self.active[task.job]
                .as_mut()
                .expect("queued shard has an active job");
            job.fold(c, &perf, cycles, reads);
            job.start_clock = job.start_clock.min(start);
            job.finish_clock = job.finish_clock.max(self.clock[c]);
            let (job_id, class) = (job.meta.id, job.meta.class);
            let result = if job.remaining == 0 {
                let done = self.active[task.job].take().expect("job still active");
                self.free_slots.push(task.job);
                Some(done.into_result())
            } else {
                None
            };
            self.push_candidate(c);
            return Some(ShardRetire {
                job_id,
                class,
                cluster: c,
                cycles,
                est_cycles: task.est,
                clock: self.clock[c],
                result,
            });
        }
    }

    /// Runs the continuous farm dry: steps until every queued shard has
    /// retired and returns the events in retire order.
    pub fn drain(&mut self) -> Vec<ShardRetire> {
        let mut events = Vec::new();
        while let Some(e) = self.step() {
            events.push(e);
        }
        events
    }

    /// True when the continuous farm still has queued shards.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.pending.iter().any(|q| !q.is_empty())
    }

    /// Placement load of cluster `index`: its virtual clock plus the
    /// estimated cycles of everything queued on it.
    #[must_use]
    pub fn load(&self, index: usize) -> u64 {
        self.clock[index] + self.queued_hint[index]
    }

    /// Virtual makespan of the continuous farm: the latest cluster
    /// clock.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.clock.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Job, JobKind, Tiler};

    /// `(threads, shards_merged, shards_reclaimed)` of the kill tests:
    /// no pool counts inline; on a pool both retires merge and one
    /// speculated shard is reclaimed.
    const ENGINES: [(usize, u64, u64); 2] = [(1, 0, 0), (2, 2, 1)];

    /// A 2-cluster farm on `threads` engine threads under `faults`.
    fn farm(threads: usize, faults: FaultPlan) -> ClusterFarm {
        let mut farm = ClusterFarm::with_memory(2, ClusterConfig::default(), MemoryModel::Ideal);
        farm.set_fault_plan(faults);
        farm.set_worker_threads(threads);
        farm
    }

    /// Pre-places job `id`, one AXPY shard of fixed size, on `cluster`.
    fn admit_on(farm: &mut ClusterFarm, id: u64, cluster: usize) {
        let x = (0..2048).map(|i| (i % 61) as f32).collect();
        let y = vec![0.25; 2048];
        let job = Job::new(id, "axpy", JobKind::Axpy { a: 1.5, x, y });
        let checked = job.validate().expect("a valid AXPY");
        let plans = Tiler::new(1).plan_checked(&job, checked, farm.reference_cluster());
        let shards = vec![(cluster, plans.expect("one AXPY shard").remove(0))];
        let meta = JobMeta::of(&job, checked);
        farm.admit(PlacedJob { meta, shards }, 0, 0);
    }

    /// `(faults_injected, shards_retried, shards_merged, shards_reclaimed)`.
    fn counters(farm: &ClusterFarm) -> (u64, u64, u64, u64) {
        let (f, p) = (farm.fault_stats(), farm.pool_stats());
        (
            f.faults_injected,
            f.shards_retried,
            p.shards_merged,
            p.shards_reclaimed,
        )
    }

    /// `(job, cluster, clock)` of each retire.
    fn landed(retires: &[ShardRetire]) -> Vec<(u64, usize, u64)> {
        retires
            .iter()
            .map(|r| (r.job_id, r.cluster, r.clock))
            .collect()
    }

    /// Stalls that fire at every window boundary a shard crosses.
    fn always_stall() -> FaultPlan {
        FaultPlan::NONE.with_seed(3).with_stalls(256, 0x1_0000, 40)
    }

    #[test]
    fn mid_shard_kill_replaces_the_shard_and_freezes_the_dead_clock() {
        for (threads, merged, reclaimed) in ENGINES {
            let mut clean = farm(threads, FaultPlan::NONE);
            admit_on(&mut clean, 0, 0);
            admit_on(&mut clean, 1, 1);
            let clean = clean.drain();
            let d = clean[0].cycles;
            assert_eq!(clean[1].cycles, d, "equal jobs take equal time");
            let k = d / 2;
            let mut killed = farm(threads, FaultPlan::NONE.with_kill(0, k));
            admit_on(&mut killed, 0, 0);
            admit_on(&mut killed, 1, 1);
            let retires = killed.drain();
            assert_eq!(
                landed(&retires),
                [(1, 1, d), (0, 1, 2 * d)],
                "{threads} threads"
            );
            assert_eq!(counters(&killed), (1, 1, merged, reclaimed));
            assert_eq!(killed.pool_stats().worker_threads, threads);
            assert_eq!(killed.load(0), k, "the dead clock stays at the kill");
            let output = |r: &ShardRetire| r.result.as_ref().expect("one shard").output.clone();
            assert_eq!(output(&retires[1]), output(&clean[0]));
        }
    }

    #[test]
    fn a_stall_past_the_kill_cycle_fails_the_cluster_before_its_next_shard() {
        for (threads, merged, reclaimed) in ENGINES {
            let mut clean = farm(threads, FaultPlan::NONE);
            admit_on(&mut clean, 0, 0);
            let d = clean.step().expect("queued").cycles;
            // Shard 0 retires at `d`, before the kill; its stall carries
            // the clock past it, so shard 1 must not run on cluster 0:
            // the slot's clock has to include the stall.
            let plan = always_stall().with_kill(0, d + 1);
            let mut killed = farm(threads, plan);
            admit_on(&mut killed, 0, 0);
            admit_on(&mut killed, 1, 0);
            let stalled = |c| d + plan.stall_between(c, 0, d);
            let expected = [(0, 0, stalled(0)), (1, 1, stalled(1))];
            assert_eq!(landed(&killed.drain()), expected, "{threads} threads");
            // Both shards stalled and the kill fired.
            assert_eq!(counters(&killed), (3, 1, merged, reclaimed));
            assert_eq!(killed.load(0), d + 1);
        }
    }

    #[test]
    fn stalls_that_always_fire_extend_the_clock_not_the_shard() {
        let stalls = always_stall();
        for threads in [1, 2] {
            let mut clean = farm(threads, FaultPlan::NONE);
            let mut stalled = farm(threads, stalls);
            let (mut clock, mut stalled_total) = (0, 0);
            // Two shards back to back on cluster 0: the second starts
            // after the first one's stall, so its windows differ.
            for id in 0..2 {
                admit_on(&mut clean, id, 0);
                admit_on(&mut stalled, id, 0);
                let c = clean.step().expect("queued");
                let s = stalled.step().expect("queued");
                let stall = stalls.stall_between(0, clock, clock + c.cycles);
                assert!(stall > 0, "every crossed window stalls");
                clock += c.cycles + stall;
                stalled_total += stall;
                assert_eq!((s.cycles, s.clock), (c.cycles, clock), "shard {id}");
                assert_eq!(stalled.perf_totals().fault_stall_cycles, stalled_total);
                let perf = |r: ShardRetire| r.result.expect("one shard").report.per_cluster;
                assert_eq!(perf(s), perf(c));
            }
            assert_eq!(stalled.fault_stats().faults_injected, 2);
        }
    }
}
