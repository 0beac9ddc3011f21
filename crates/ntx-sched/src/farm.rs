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
//! Two drives of the same per-shard simulations:
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
//!   `Σ_j max_c shard(c, j)` — the differential oracle, mirroring the
//!   simulator's `fast_path: false` pattern.
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

use ntx_mem::{HmcMesh, HmcPort, HmcSubsystem, MemoryModel};
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
    /// The farm identity of `job`.
    #[must_use]
    pub fn of(job: &crate::Job) -> Self {
        Self {
            id: job.id,
            label: job.label.clone(),
            output_len: job.output_len(),
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
/// static mesh geometry, so both drive modes (and every pool worker)
/// wire shards identically.
#[derive(Debug, Clone, Copy)]
struct ShardWiring {
    port: HmcPort,
    remote: bool,
    latency: u64,
}

/// One entry of a cluster's shard FIFO.
#[derive(Debug)]
struct ShardTask {
    job_idx: usize,
    plan: ClusterPlan,
    wiring: Option<ShardWiring>,
}

/// Per-shard measurement: which job, its counter delta, its duration.
type ShardRecord = (usize, PerfSnapshot, u64);

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
    /// Resolved worker-thread count stepping the continuous farm
    /// (1 = the serial merge loop runs shards inline).
    pub worker_threads: usize,
    /// Shards executed speculatively on pool workers and folded in at
    /// the deterministic `(clock, cluster)` retire front.
    pub shards_merged: u64,
    /// Speculated shards invalidated by a cluster kill: the aborted
    /// in-flight shard plus every queued plan reclaimed from the dead
    /// worker for re-placement on survivors.
    pub shards_reclaimed: u64,
}

/// Resolves a requested worker-thread count for the continuous farm:
/// an explicit `requested > 0` wins; `0` means auto — the
/// `NTX_WORKER_THREADS` environment variable when set to a positive
/// integer, else `1` (the serial merge loop).
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

/// A command to a pool worker. Per-cluster `Run`s arrive in admission
/// order (the merge thread is the only sender), so each cluster's
/// speculative execution order matches the serial farm's FIFO exactly.
enum WorkerCmd {
    /// Execute the next queued shard of `cluster` speculatively.
    /// (The plan is boxed so the enum stays channel-slot sized.)
    Run {
        cluster: usize,
        plan: Box<ClusterPlan>,
        wiring: Option<ShardWiring>,
    },
    /// Return every plan stashed on a dead `cluster` (the merge thread
    /// detected its kill and is about to re-place the orphans).
    Reclaim { cluster: usize },
}

/// A pool worker's answer for one shard of one cluster, delivered on
/// that cluster's result channel in execution (= admission) order.
enum ShardOutcome {
    /// The shard ran to completion before any armed kill cycle.
    Retired {
        perf: PerfSnapshot,
        cycles: u64,
        /// `(output offset, data)` readback segments, gathered on the
        /// worker because the job's output vector lives merge-side.
        reads: Vec<(usize, Vec<f32>)>,
    },
    /// The shard straddled the cluster's kill cycle: its effects are
    /// discarded and `plan` is the untouched backup for re-placement.
    Aborted { plan: ClusterPlan },
    /// Answer to [`WorkerCmd::Reclaim`]: the stashed (never executed)
    /// plans of a dead cluster, in admission order.
    Reclaimed { plans: Vec<ClusterPlan> },
}

/// One cluster's state as owned by a pool worker thread.
struct WorkerSlot {
    cluster: Cluster,
    /// Local mirror of the merge thread's virtual clock for this
    /// cluster — both are the same pure sum of retired shard cycles
    /// plus injected stalls, so kill/stall decisions agree bit-exactly.
    clock: u64,
    /// Set once the clock reaches an armed kill cycle (or a shard
    /// straddles it): later `Run`s are stashed, never executed.
    dead: bool,
    stash: Vec<ClusterPlan>,
    tx: mpsc::Sender<ShardOutcome>,
}

/// The body of one pool worker thread: owns a disjoint subset of the
/// farm's clusters and runs their shard FIFOs speculatively. Exits
/// when the command channel closes (the pool is dropped).
fn worker_loop(
    mut owned: BTreeMap<usize, WorkerSlot>,
    faults: FaultPlan,
    rx: mpsc::Receiver<WorkerCmd>,
) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            WorkerCmd::Run {
                cluster,
                mut plan,
                wiring,
            } => {
                let slot = owned
                    .get_mut(&cluster)
                    .expect("cluster owned by this worker");
                let kill_at = faults.kill_cycle(cluster as u32);
                if slot.dead || kill_at.is_some_and(|at| slot.clock >= at) {
                    // The cluster crossed its kill cycle: the merge
                    // thread will reclaim this plan for a survivor.
                    slot.dead = true;
                    slot.stash.push(*plan);
                    continue;
                }
                let backup = kill_at.map(|_| plan.clone());
                let start = slot.clock;
                let (perf, cycles) = run_shard(&mut slot.cluster, &mut plan, wiring);
                if let Some(at) = kill_at {
                    if start + cycles > at {
                        // Mid-shard kill: discard the run, freeze the
                        // clock, hand the backup plan to the merge
                        // thread for re-placement.
                        slot.clock = at;
                        slot.dead = true;
                        let plan = *backup.expect("kill armed implies a plan backup");
                        let _ = slot.tx.send(ShardOutcome::Aborted { plan });
                        continue;
                    }
                }
                let reads = plan
                    .readbacks
                    .iter()
                    .map(|rb| {
                        let mut buf = vec![0f32; rb.len as usize];
                        match rb.source {
                            ReadbackSource::Ext(addr) => {
                                slot.cluster.ext_mem().read_f32_into(addr, &mut buf);
                            }
                            ReadbackSource::Tcdm(addr) => {
                                slot.cluster.read_tcdm_into(addr, &mut buf);
                            }
                        }
                        (rb.dst, buf)
                    })
                    .collect();
                slot.clock = start + cycles;
                let stall = faults.stall_between(cluster as u32, start, slot.clock);
                if stall > 0 {
                    slot.cluster.attribute_fault_stall(stall);
                    slot.clock += stall;
                }
                let _ = slot.tx.send(ShardOutcome::Retired {
                    perf,
                    cycles,
                    reads,
                });
            }
            WorkerCmd::Reclaim { cluster } => {
                let slot = owned
                    .get_mut(&cluster)
                    .expect("cluster owned by this worker");
                slot.dead = true;
                let plans = std::mem::take(&mut slot.stash);
                let _ = slot.tx.send(ShardOutcome::Reclaimed { plans });
            }
        }
    }
}

/// The persistent worker pool of a pooled continuous farm: `threads`
/// OS threads, each owning the clusters `c` with `c % threads == t`.
/// Commands flow one channel per thread (preserving per-cluster FIFO
/// order); results come back one channel per cluster so the merge
/// thread can wait on exactly the cluster the deterministic retire
/// order demands next.
struct WorkerPool {
    cmd_tx: Vec<mpsc::Sender<WorkerCmd>>,
    result_rx: Vec<mpsc::Receiver<ShardOutcome>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("clusters", &self.result_rx.len())
            .finish()
    }
}

impl WorkerPool {
    /// Moves the farm's clusters onto `threads` worker threads.
    fn spawn(clusters: Vec<Cluster>, clocks: &[u64], faults: FaultPlan, threads: usize) -> Self {
        let threads = threads.min(clusters.len()).max(1);
        let mut result_rx = Vec::with_capacity(clusters.len());
        let mut owned: Vec<BTreeMap<usize, WorkerSlot>> =
            (0..threads).map(|_| BTreeMap::new()).collect();
        for (c, cluster) in clusters.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            result_rx.push(rx);
            owned[c % threads].insert(
                c,
                WorkerSlot {
                    cluster,
                    clock: clocks[c],
                    dead: false,
                    stash: Vec::new(),
                    tx,
                },
            );
        }
        let mut cmd_tx = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for slots in owned {
            let (tx, rx) = mpsc::channel::<WorkerCmd>();
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
            threads,
        }
    }

    /// Forwards one queued shard to its cluster's worker.
    fn send_run(&self, cluster: usize, plan: ClusterPlan, wiring: Option<ShardWiring>) {
        self.cmd_tx[cluster % self.threads]
            .send(WorkerCmd::Run {
                cluster,
                plan: Box::new(plan),
                wiring,
            })
            .expect("pool worker thread alive");
    }

    /// Blocks for the next shard outcome of `cluster` (its worker runs
    /// ahead speculatively; results arrive in admission order).
    fn recv(&self, cluster: usize) -> ShardOutcome {
        self.result_rx[cluster]
            .recv()
            .expect("pool worker thread alive")
    }

    /// Synchronously recovers the stashed plans of a dead cluster. The
    /// command channel is FIFO, so every `Run` sent before this has
    /// been stashed by the time the worker answers — the plans line up
    /// one-to-one with the merge thread's queued shard metadata.
    fn reclaim(&self, cluster: usize) -> Vec<ClusterPlan> {
        self.cmd_tx[cluster % self.threads]
            .send(WorkerCmd::Reclaim { cluster })
            .expect("pool worker thread alive");
        match self.recv(cluster) {
            ShardOutcome::Reclaimed { plans } => plans,
            _ => unreachable!(
                "every pre-kill shard outcome is consumed before the merge thread \
                 detects the kill, so the reclaim answer is next on the channel"
            ),
        }
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

/// One job in flight through the continuous farm.
#[derive(Debug)]
struct ActiveJob {
    meta: JobMeta,
    output: Vec<f32>,
    report: ScaleOutReport,
    remaining: usize,
    start_clock: u64,
    finish_clock: u64,
}

/// One queued shard of the continuous farm. In serial mode the plan
/// waits here; in pooled mode it was forwarded to the cluster's worker
/// at admission (`plan: None`) and only returns — via abort or reclaim
/// — when a kill forces re-placement.
#[derive(Debug)]
struct QueuedShard {
    slot: usize,
    plan: Option<ClusterPlan>,
    /// Corrected estimated cycles (the placement load unit).
    hint: u64,
    /// Raw roofline estimate (the measured-duration feedback input).
    est: u64,
    wiring: Option<ShardWiring>,
}

/// The farm: N independent clusters plus their shard FIFOs. The
/// continuous drive ([`admit`](ClusterFarm::admit) /
/// [`step`](ClusterFarm::step) / [`drain`](ClusterFarm::drain)) feeds
/// jobs into the *running* farm and retires shards one observable
/// event at a time; [`run_batch`](ClusterFarm::run_batch) executes a
/// pre-placed batch barriered, as the differential oracle.
#[derive(Debug)]
pub struct ClusterFarm {
    /// The cluster states. Emptied when the worker pool activates —
    /// from then on each cluster lives on its worker thread and
    /// [`reference`](Self::reference) serves configuration queries.
    clusters: Vec<Cluster>,
    /// The per-cluster base configuration (before any memory-model
    /// port injection) — rebuilds the reference cluster at pool
    /// activation.
    config: ClusterConfig,
    freq_hz: f64,
    /// Requested worker threads for continuous stepping (resolved; 1 =
    /// serial merge loop). The pool spins up lazily on first admit.
    worker_threads: usize,
    /// The live worker pool once continuous admission activates it.
    pool: Option<WorkerPool>,
    /// Fresh cluster of the same configuration, for tiler/introspection
    /// queries while the real clusters live on the workers.
    reference: Option<Cluster>,
    /// Pool-utilization counters of this run.
    pool_stats: PoolStats,
    /// Event-selection heap over `(clock, cluster)` keys: the earliest
    /// clocked cluster with pending work retires next. Entries are
    /// validated lazily on pop, so stale keys are cheap.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per-cluster flag: a key for this cluster is in `ready`.
    enqueued: Vec<bool>,
    /// Per-cluster FIFOs of shards admitted but not yet run
    /// (continuous drive only; `run_batch` keeps its own local queues).
    pending: Vec<VecDeque<QueuedShard>>,
    /// In-flight jobs, slab-indexed by `QueuedShard::slot`.
    active: Vec<Option<ActiveJob>>,
    free_slots: Vec<usize>,
    /// Per-cluster virtual clock: cycles of shard work retired so far.
    clock: Vec<u64>,
    /// Per-cluster estimated cycles still queued (placement load).
    queued_hint: Vec<u64>,
    /// The mesh geometry when the farm runs on [`MemoryModel::HmcMesh`]
    /// (its backing stores are moved into the clusters; what remains
    /// computes ports, homes, and hop costs).
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

/// Gathers a shard's result slices into the job's output vector.
fn read_shard(cluster: &mut Cluster, plan: &ClusterPlan, out: &mut [f32]) {
    for rb in &plan.readbacks {
        let dst = &mut out[rb.dst..rb.dst + rb.len as usize];
        match rb.source {
            ReadbackSource::Ext(addr) => cluster.ext_mem().read_f32_into(addr, dst),
            ReadbackSource::Tcdm(addr) => cluster.read_tcdm_into(addr, dst),
        }
    }
}

impl ClusterFarm {
    /// Builds `clusters` independent clusters with ideal private
    /// external memories.
    ///
    /// # Panics
    ///
    /// Panics when `clusters` is zero.
    #[must_use]
    pub fn new(clusters: usize, config: ClusterConfig) -> Self {
        Self::with_memory(clusters, config, MemoryModel::Ideal)
    }

    /// Builds the farm under an explicit external-memory model. With
    /// [`MemoryModel::SharedHmc`] one [`HmcSubsystem`] hands every
    /// cluster its backing store and a port of the shared vault/LoB
    /// bandwidth schedule, so concurrent DMA streams contend for
    /// external-memory slots instead of each owning an ideal pipe —
    /// the farm's clusters stay independent simulations (grants are a
    /// pure function of the cycle), so both drive modes and the
    /// worker pool keep working unchanged.
    ///
    /// # Panics
    ///
    /// Panics when `clusters` is zero.
    #[must_use]
    pub fn with_memory(clusters: usize, config: ClusterConfig, memory: MemoryModel) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        let mut mesh = None;
        let built: Vec<Cluster> = match memory {
            MemoryModel::Ideal => (0..clusters).map(|_| Cluster::new(config)).collect(),
            MemoryModel::SharedHmc(hmc) => {
                let mut sub = HmcSubsystem::new(
                    hmc,
                    u32::try_from(clusters).expect("cluster count fits u32"),
                    config.ntx_freq_hz,
                    config.dma_words_per_cycle,
                );
                sub.take_memories()
                    .into_iter()
                    .enumerate()
                    .map(|(i, mem)| {
                        let mut c = Cluster::new(ClusterConfig {
                            ext_port: Some(sub.port(i as u32)),
                            ..config
                        });
                        c.install_ext(mem);
                        c
                    })
                    .collect()
            }
            MemoryModel::HmcMesh(mc) => {
                let mut m = HmcMesh::new(
                    mc,
                    u32::try_from(clusters).expect("cluster count fits u32"),
                    config.ntx_freq_hz,
                    config.dma_words_per_cycle,
                );
                // Ports are wired per shard (they depend on the job's
                // home cube), so clusters start with no schedule; every
                // `run_shard` installs the right one before staging.
                let built = m
                    .take_memories()
                    .into_iter()
                    .map(|mem| {
                        let mut c = Cluster::new(ClusterConfig {
                            ext_port: None,
                            ..config
                        });
                        c.install_ext(mem);
                        c
                    })
                    .collect();
                mesh = Some(m);
                built
            }
        };
        Self {
            clusters: built,
            config,
            freq_hz: config.ntx_freq_hz,
            worker_threads: 1,
            pool: None,
            reference: None,
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
            self.pool.is_none(),
            "fault plans must be armed before the worker pool activates"
        );
        self.faults = plan;
    }

    /// Sets the worker-thread count for continuous stepping (resolved
    /// via [`resolve_worker_threads`]; values above 1 make the first
    /// continuous admission activate the pool). The barriered
    /// [`run_batch`](ClusterFarm::run_batch) always runs serially.
    ///
    /// # Panics
    ///
    /// Panics once the worker pool is active.
    pub fn set_worker_threads(&mut self, threads: usize) {
        assert!(
            self.pool.is_none(),
            "the worker-thread count must be set before the pool activates"
        );
        self.worker_threads = threads.max(1);
    }

    /// The resolved worker-thread count of the continuous farm (1 =
    /// serial merge loop).
    #[must_use]
    pub fn worker_threads(&self) -> usize {
        self.worker_threads
    }

    /// Pool-utilization counters of this run (all zero in serial mode;
    /// `worker_threads` always reports the resolved count).
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            worker_threads: self.worker_threads,
            ..self.pool_stats
        }
    }

    /// Spins up the worker pool on the first continuous admission of a
    /// multi-threaded farm: the cluster states move onto the worker
    /// threads and a fresh reference cluster takes over configuration
    /// queries. Serial farms (`worker_threads == 1`) never activate.
    fn activate_pool(&mut self) {
        if self.pool.is_some() || self.worker_threads <= 1 {
            return;
        }
        self.reference = Some(Cluster::new(self.config));
        let clusters = std::mem::take(&mut self.clusters);
        self.pool = Some(WorkerPool::spawn(
            clusters,
            &self.clock,
            self.faults,
            self.worker_threads,
        ));
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

    /// The armed chaos schedule (the empty plan by default).
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        self.faults
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

    /// Marks `index` dead and re-admits everything still queued on it
    /// onto the least-loaded surviving clusters (FIFO order, ties to
    /// the lowest index — deterministic). `extra` carries the aborted
    /// in-flight shard of a mid-shard kill, evacuated first. When no
    /// cluster survives, the orphans' jobs fail instead: they leave the
    /// farm and their ids wait in [`take_lost`](Self::take_lost).
    fn fail_cluster(&mut self, index: usize, extra: Option<QueuedShard>) {
        self.dead[index] = true;
        if let Some(at) = self.faults.kill_cycle(index as u32) {
            // Freeze the dead cluster's virtual clock at the kill
            // cycle: work past it never observably happened.
            self.clock[index] = self.clock[index].min(at);
        }
        self.fault_stats.faults_injected += 1;
        let mut orphans: Vec<QueuedShard> = extra.into_iter().collect();
        if self.pool.is_some() {
            // The aborted in-flight shard was a dead speculation too.
            self.pool_stats.shards_reclaimed += orphans.len() as u64;
        }
        let queued: Vec<QueuedShard> = std::mem::take(&mut self.pending[index]).into();
        match &self.pool {
            // The queued plans were forwarded to the dead cluster's
            // worker at admission; reclaim them (FIFO, so they line up
            // with the queued metadata) before re-placement.
            Some(pool) if !queued.is_empty() => {
                let plans = pool.reclaim(index);
                assert_eq!(
                    plans.len(),
                    queued.len(),
                    "reclaimed plans must match the queued shards one-to-one"
                );
                self.pool_stats.shards_reclaimed += plans.len() as u64;
                orphans.extend(queued.into_iter().zip(plans).map(|(mut task, plan)| {
                    task.plan = Some(plan);
                    task
                }));
            }
            _ => orphans.extend(queued),
        }
        self.queued_hint[index] = 0;
        for mut task in orphans {
            let Some(target) = (0..self.num_clusters())
                .filter(|&c| self.is_alive(c))
                .min_by_key(|&c| (self.load(c), c))
            else {
                // The job's first orphan fails it; its other orphans
                // find the slot already empty.
                if let Some(job) = self.active[task.slot].take() {
                    self.free_slots.push(task.slot);
                    self.lost.push(job.meta.id);
                }
                continue;
            };
            let meta = self.active[task.slot]
                .as_ref()
                .expect("orphaned shard has an active job")
                .meta
                .clone();
            task.wiring = self.wiring_for(target, &meta);
            self.queued_hint[target] += task.hint;
            if let Some(pool) = &self.pool {
                let plan = task.plan.take().expect("reclaimed orphan carries its plan");
                pool.send_run(target, plan, task.wiring);
            }
            self.pending[target].push_back(task);
            self.push_candidate(target);
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

    /// Read-only access to cluster `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or once the worker pool is
    /// active (cluster states then live on the worker threads — use
    /// [`reference_cluster`](Self::reference_cluster) for
    /// configuration introspection).
    #[must_use]
    pub fn cluster(&self, index: usize) -> &Cluster {
        assert!(
            self.pool.is_none(),
            "cluster states live on the worker pool; use reference_cluster() \
             for configuration introspection"
        );
        &self.clusters[index]
    }

    /// A cluster of this farm's configuration for tiler and capacity
    /// queries — cluster 0 in serial mode, a fresh identically-
    /// configured cluster once the pool owns the real states. Never
    /// carries job data.
    #[must_use]
    pub fn reference_cluster(&self) -> &Cluster {
        match &self.reference {
            Some(r) => r,
            None => &self.clusters[0],
        }
    }

    /// Executes a pre-placed batch barriered — every job starts when
    /// its predecessor's slowest shard has retired, so the batch
    /// makespan is the sum of the per-job makespans — and assembles
    /// per-job results in `placed` order. The differential oracle of
    /// the continuous drive: clusters run their FIFOs serially and no
    /// fault is injected.
    ///
    /// # Panics
    ///
    /// Panics once the worker pool is active.
    #[must_use]
    pub fn run_batch(&mut self, placed: Vec<PlacedJob>) -> BatchResult {
        assert!(
            self.pool.is_none(),
            "batch execution is not supported once the worker pool is active"
        );
        let n = self.num_clusters();
        let mut metas = Vec::with_capacity(placed.len());
        let mut outputs: Vec<Vec<f32>> = Vec::with_capacity(placed.len());
        let mut queues: Vec<Vec<ShardTask>> = (0..n).map(|_| Vec::new()).collect();
        for (job_idx, p) in placed.into_iter().enumerate() {
            outputs.push(vec![0f32; p.meta.output_len]);
            for (c, plan) in p.shards {
                let wiring = self.wiring_for(c, &p.meta);
                queues[c].push(ShardTask {
                    job_idx,
                    plan,
                    wiring,
                });
            }
            metas.push(p.meta);
        }

        let records = self.drive(&mut queues, &mut outputs);

        // Per-job windows: per-cluster deltas, shard-local makespan.
        let mut reports: Vec<ScaleOutReport> = (0..metas.len())
            .map(|_| ScaleOutReport::new(n, self.freq_hz))
            .collect();
        let mut batch = ScaleOutReport::new(n, self.freq_hz);
        for (c, recs) in records.iter().enumerate() {
            for (j, perf, cycles) in recs {
                self.totals.accumulate(perf);
                reports[*j].per_cluster[c] = *perf;
                reports[*j].makespan_cycles = reports[*j].makespan_cycles.max(*cycles);
                batch.per_cluster[c].accumulate(perf);
            }
        }

        // Virtual farm time: jobs run back to back.
        let results = metas
            .into_iter()
            .zip(outputs)
            .zip(reports)
            .map(|((meta, output), report)| {
                let start_cycle = batch.makespan_cycles;
                batch.makespan_cycles += report.makespan_cycles;
                JobResult {
                    job_id: meta.id,
                    label: meta.label,
                    output,
                    report,
                    start_cycle,
                    finish_cycle: batch.makespan_cycles,
                    estimate: None,
                    backend: crate::BackendKind::Simulate,
                }
            })
            .collect();
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
        let job = ActiveJob {
            output: vec![0f32; placed.meta.output_len],
            report: ScaleOutReport::new(n, self.freq_hz),
            remaining: placed.shards.len(),
            start_clock: u64::MAX,
            finish_clock: 0,
            meta: placed.meta,
        };
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
            self.queued_hint[c] += shard_cycles_hint;
            let meta = &self.active[slot].as_ref().expect("job just stored").meta;
            let wiring = self.wiring_for(c, meta);
            // Pooled farms forward the plan to the cluster's worker
            // right away — it starts speculating the moment its
            // thread is free; the merge queue keeps the metadata.
            let plan = match &self.pool {
                Some(pool) => {
                    pool.send_run(c, plan, wiring);
                    None
                }
                None => Some(plan),
            };
            self.pending[c].push_back(QueuedShard {
                slot,
                plan,
                hint: shard_cycles_hint,
                est: shard_cycles_est,
                wiring,
            });
            self.push_candidate(c);
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
            let mut task = self.pending[c].pop_front().expect("non-empty FIFO");
            self.queued_hint[c] -= task.hint;
            let kill_at = self.faults.kill_cycle(c as u32);
            let start = self.clock[c];
            // Run the shard — inline on the serial engine, or collect
            // the worker's speculative result. Per-cluster order is
            // admission order on both engines and every cross-cluster
            // decision happens here on the merge thread, so outcomes
            // are bit-identical.
            enum Ran {
                Done(PerfSnapshot, u64, Option<Vec<(usize, Vec<f32>)>>),
                Killed(ClusterPlan),
            }
            let ran = match &self.pool {
                Some(pool) => match pool.recv(c) {
                    ShardOutcome::Retired {
                        perf,
                        cycles,
                        reads,
                    } => {
                        debug_assert!(
                            kill_at.is_none_or(|at| start + cycles <= at),
                            "worker retired a shard across its kill cycle"
                        );
                        self.pool_stats.shards_merged += 1;
                        Ran::Done(perf, cycles, Some(reads))
                    }
                    ShardOutcome::Aborted { plan } => Ran::Killed(plan),
                    ShardOutcome::Reclaimed { .. } => {
                        unreachable!("reclaim answers are consumed inside fail_cluster")
                    }
                },
                None => {
                    // With a kill armed the shard might straddle the
                    // kill cycle; keep a copy so the aborted work can
                    // be re-placed bit-identically (`run_shard`
                    // consumes the tiles).
                    let backup = kill_at.and_then(|_| task.plan.clone());
                    let plan = task.plan.as_mut().expect("serial farm queues plans");
                    let (perf, cycles) = run_shard(&mut self.clusters[c], plan, task.wiring);
                    if kill_at.is_some_and(|at| start + cycles > at) {
                        Ran::Killed(backup.expect("kill armed implies a plan backup"))
                    } else {
                        Ran::Done(perf, cycles, None)
                    }
                }
            };
            let (perf, cycles, reads) = match ran {
                Ran::Killed(plan) => {
                    // The cluster died mid-shard: discard the run — no
                    // readback, no counter accumulation, clock frozen
                    // at the kill cycle — and re-admit the shard (plus
                    // the rest of the queue) on the survivors. The
                    // dead cluster's memory state no longer matters.
                    self.clock[c] = kill_at.expect("mid-shard abort implies an armed kill");
                    task.plan = Some(plan);
                    self.fail_cluster(c, Some(task));
                    continue;
                }
                Ran::Done(perf, cycles, reads) => (perf, cycles, reads),
            };
            self.totals.accumulate(&perf);
            self.clock[c] = start + cycles;
            // Transient stalls: windows whose boundary the shard
            // crossed freeze the cluster afterwards. Dead time is
            // attributed to the fault counter, not to the shard
            // (per-job outputs and counters stay bit-identical to the
            // fault-free run). Pool workers apply the cluster-counter
            // attribution themselves to keep their states in lockstep.
            let stall = self.faults.stall_between(c as u32, start, self.clock[c]);
            if stall > 0 {
                if self.pool.is_none() {
                    self.clusters[c].attribute_fault_stall(stall);
                }
                self.clock[c] += stall;
                self.totals.fault_stall_cycles += stall;
                self.fault_stats.faults_injected += 1;
            }
            let job = self.active[task.slot]
                .as_mut()
                .expect("queued shard has an active job");
            match reads {
                Some(reads) => {
                    for (dst, data) in reads {
                        job.output[dst..dst + data.len()].copy_from_slice(&data);
                    }
                }
                None => {
                    let plan = task.plan.as_ref().expect("serial farm queues plans");
                    read_shard(&mut self.clusters[c], plan, &mut job.output);
                }
            }
            job.report.per_cluster[c].accumulate(&perf);
            job.report.makespan_cycles = job.report.makespan_cycles.max(cycles);
            job.start_clock = job.start_clock.min(start);
            job.finish_clock = job.finish_clock.max(self.clock[c]);
            job.remaining -= 1;
            let (job_id, class) = (job.meta.id, job.meta.class);
            let result = if job.remaining == 0 {
                let done = self.active[task.slot].take().expect("job still active");
                self.free_slots.push(task.slot);
                Some(JobResult {
                    job_id: done.meta.id,
                    label: done.meta.label,
                    output: done.output,
                    report: done.report,
                    start_cycle: done.start_clock,
                    finish_cycle: done.finish_clock,
                    estimate: None,
                    backend: crate::BackendKind::Simulate,
                })
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

    /// Serial drive of a batch (the oracle path): clusters are fully
    /// independent simulations, so each runs its whole shard FIFO in
    /// turn; readbacks scatter straight into the job outputs with no
    /// intermediate allocation.
    fn drive(
        &mut self,
        queues: &mut [Vec<ShardTask>],
        outputs: &mut [Vec<f32>],
    ) -> Vec<Vec<ShardRecord>> {
        let mut records: Vec<Vec<ShardRecord>> = Vec::with_capacity(queues.len());
        for (cluster, queue) in self.clusters.iter_mut().zip(queues.iter_mut()) {
            let mut recs = Vec::with_capacity(queue.len());
            for shard in queue.iter_mut() {
                let (perf, cycles) = run_shard(cluster, &mut shard.plan, shard.wiring);
                read_shard(cluster, &shard.plan, &mut outputs[shard.job_idx]);
                recs.push((shard.job_idx, perf, cycles));
            }
            records.push(recs);
        }
        records
    }
}
