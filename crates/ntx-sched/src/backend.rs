//! Execution backends: one job queue, several ways to answer it.
//!
//! Each job's [`JobOpts::backend`](crate::JobOpts) picks who answers
//! it; the [`ScaleOutExecutor`](crate::ScaleOutExecutor) owns one of
//! each and admits every job through the same two steps — a fallible
//! plan (validate, size, tile) that commits nothing, then a commit:
//!
//! * [`SimulatorBackend`] — the bit-accurate path: jobs are tiled by
//!   the [`Tiler`] into graded cluster subsets, placed on the
//!   least-loaded clusters of the running [`ClusterFarm`], and
//!   executed through the cycle simulator's burst API.
//! * [`AnalyticalBackend`] — the instant path: jobs are answered from
//!   `ntx-model`'s roofline estimates without spending a single
//!   simulator cycle, sized by the same shard-count rule the farm
//!   places with.
//! * [`NativeHost`] — the wire-speed path: jobs execute on the host
//!   CPU through [`ntx_cpu::NativeBackend`], either with the fast
//!   multi-accumulator reduction ([`BackendKind::NativeFast`]) or
//!   bit-identical to the simulator with one rounding of each exact
//!   sum ([`BackendKind::NativeExact`]). Admission estimates
//!   come from the same roofline, calibrated by a private
//!   [`DurationTable`] EWMA of measured wall-clock durations.

use ntx_mem::MemoryModel;
use ntx_model::roofline::Roofline;

use crate::executor::{JobResult, ScaleOutConfig};
use crate::farm::{ClusterFarm, JobMeta, PlacedJob, ShardRetire};
use crate::job::{Job, JobClass, JobKind};
use crate::report::ScaleOutReport;
use crate::tiler::{ClusterPlan, Tiler};
use crate::SchedError;

/// Which backend executes a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Bit-accurate execution in the cycle simulator (the default) —
    /// the accuracy oracle: exact outputs *and* exact cycle counts,
    /// orders of magnitude slower than the hardware it models.
    #[default]
    Simulate,
    /// Instant analytical estimate from the roofline model; no
    /// simulator cycles are spent and no output data is produced.
    Estimate,
    /// Native host-CPU execution with multi-accumulator partial-sum
    /// reduction: real outputs at wire speed, ordinary float rounding
    /// error (measurable via `ntx_fpu::rmse`), wall-clock timing in
    /// place of simulated cycles.
    NativeFast,
    /// Native host-CPU execution in `ntx_cpu`'s exact mode (one
    /// rounding of each exact sum, as the wide Kulisch accumulator
    /// does): real outputs **bit-identical to the simulator**, still
    /// far faster than cycle-accurate simulation.
    NativeExact,
}

/// An analytical answer: what the roofline model predicts for a job
/// sharded `shards` ways.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobEstimate {
    /// Total floating-point operations of the job.
    pub flops: u64,
    /// Compulsory external-memory traffic, bytes.
    pub ext_bytes: u64,
    /// Shard count the estimate assumes.
    pub shards: usize,
    /// Estimated makespan in NTX cycles (per shard, shards run
    /// concurrently).
    pub cycles: u64,
    /// Estimated makespan in seconds at the cluster clock.
    pub seconds: f64,
    /// True when the practical compute ceiling binds (vs. bandwidth).
    pub compute_bound: bool,
}

/// Roofline estimate for `job` sharded `shards` ways.
fn estimate_for(job: &Job, shards: usize, roofline: &Roofline, freq_hz: f64) -> JobEstimate {
    let cost = job.cost();
    let s = shards.max(1) as u64;
    let flops_per = cost.flops.div_ceil(s);
    let bytes_per = cost.min_ext_bytes.div_ceil(s);
    JobEstimate {
        flops: cost.flops,
        ext_bytes: cost.min_ext_bytes,
        shards: shards.max(1),
        cycles: roofline.estimated_cycles(flops_per, bytes_per, freq_hz),
        seconds: roofline.estimated_seconds(flops_per, bytes_per),
        compute_bound: flops_per as f64 / roofline.practical_peak()
            >= bytes_per as f64 / roofline.practical_bandwidth(),
    }
}

/// Roofline instance matching a scale-out configuration: peaks from
/// the cluster hardware parameters, conflict derating from the
/// paper's §III-C measurement, and — under [`MemoryModel::HmcMesh`]
/// — the memory roof capped at this cluster's fair share of its
/// cube's vault/LoB bandwidth, so admission estimates and the
/// analytical backend see the same saturation ceiling the cycle-level
/// arbiter enforces.
fn roofline_for(config: &ScaleOutConfig) -> Roofline {
    let r = Roofline {
        peak_flops: config.cluster.peak_flops(),
        peak_bandwidth: config.cluster.peak_bandwidth(),
        ..Roofline::default()
    };
    match config.memory {
        MemoryModel::Ideal => r,
        MemoryModel::HmcMesh(mesh) => r.with_mesh_bandwidth(
            mesh.cube.shared_bandwidth(),
            config.clusters,
            mesh.cubes as usize,
        ),
    }
}

/// Estimated cycles of work one shard should carry before the sizing
/// rule adds another cluster to a job.
const TARGET_SHARD_CYCLES: u64 = 4096;

/// The one shard-count rule, shared by farm placement and the
/// analytical backend so an estimate always assumes the sharding the
/// simulator places: enough shards that each carries roughly
/// [`TARGET_SHARD_CYCLES`] of the job's roofline estimate, bent by the
/// class correction `table` has learned, graded over `1..=clusters`.
fn graded_shards(
    job: &Job,
    table: &DurationTable,
    roofline: &Roofline,
    freq_hz: f64,
    clusters: usize,
) -> usize {
    let est1 = estimate_for(job, 1, roofline, freq_hz);
    table
        .corrected_cycles(job.kind.class(), est1.cycles)
        .div_ceil(TARGET_SHARD_CYCLES)
        .clamp(1, clusters as u64) as usize
}

/// Per-[`JobClass`] EWMA of measured versus estimated shard cycles —
/// the measured-duration feedback that sizes and places graded cluster
/// subsets. The roofline estimate
/// under-predicts real shard durations by tens of percent (it ignores
/// banking conflicts, DMA ramp-up and tile-boundary overheads), and by
/// different amounts per job family; each retired shard contributes
/// its observed `measured / estimated` ratio, so after a handful of
/// jobs per class the corrected estimates are accurate enough to pack
/// mid-size cluster subsets without lumping onto a critical cluster.
/// Seeded at 1.0 — i.e. pure roofline — so a cold table sizes jobs
/// exactly as the analytical backend does.
#[derive(Debug, Clone)]
pub struct DurationTable {
    ratio: [f64; JobClass::COUNT],
    samples: [u64; JobClass::COUNT],
}

/// EWMA smoothing factor: new observations move the correction a
/// quarter of the way, so one outlier shard cannot wreck placement but
/// a real drift is absorbed within a few jobs.
const EWMA_ALPHA: f64 = 0.25;

impl Default for DurationTable {
    fn default() -> Self {
        Self::new()
    }
}

impl DurationTable {
    /// A cold table: every class at correction 1.0 (trust the
    /// roofline).
    #[must_use]
    pub fn new() -> Self {
        Self {
            ratio: [1.0; JobClass::COUNT],
            samples: [0; JobClass::COUNT],
        }
    }

    /// The current `measured / estimated` correction for `class`.
    #[must_use]
    pub fn correction(&self, class: JobClass) -> f64 {
        self.ratio[class.index()]
    }

    /// Observations folded in for `class`.
    #[must_use]
    pub fn samples(&self, class: JobClass) -> u64 {
        self.samples[class.index()]
    }

    /// `estimated` cycles corrected by the learned class ratio, never
    /// below one cycle.
    #[must_use]
    pub fn corrected_cycles(&self, class: JobClass, estimated: u64) -> u64 {
        let c = (estimated as f64 * self.correction(class)).round() as u64;
        c.max(1)
    }

    /// Folds one retired shard into the EWMA. The first observation of
    /// a class replaces the seed outright — a real measurement beats a
    /// guess — and later ones blend in with weight `EWMA_ALPHA`.
    pub fn observe(&mut self, class: JobClass, estimated: u64, measured: u64) {
        if estimated == 0 {
            return;
        }
        let r = measured as f64 / estimated as f64;
        let i = class.index();
        if self.samples[i] == 0 {
            self.ratio[i] = r;
        } else {
            self.ratio[i] = (1.0 - EWMA_ALPHA) * self.ratio[i] + EWMA_ALPHA * r;
        }
        self.samples[i] += 1;
    }
}

/// Where a job landed on the farm: enough to replay the exact same
/// placement into the barriered [`ClusterFarm::run_batch`] (the
/// differential oracle) — the tiler shard count reproduces the plans,
/// the cluster list reproduces the assignment.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Shard count the tiler planned with (≥ the number of non-empty
    /// shards).
    pub planned_shards: usize,
    /// Clusters the non-empty shards were assigned to, ascending;
    /// plan `i` runs on `clusters[i]`.
    pub clusters: Vec<usize>,
    /// Corrected estimated cycles per shard (the placement load unit).
    pub shard_cycles: u64,
}

impl Placement {
    /// Rebuilds the [`PlacedJob`] this placement describes, for a
    /// barriered replay of the farm run: re-tiles `job` at the
    /// recorded shard count against `reference` (any cluster of the
    /// same configuration) and zips the non-empty plans onto the
    /// recorded cluster list — the single definition of the
    /// same-placement oracle shared by the proptest suite and the
    /// `report-serving` gate.
    ///
    /// # Errors
    ///
    /// Propagates tiler errors (impossible for a job that was already
    /// admitted once against the same configuration).
    ///
    /// # Panics
    ///
    /// Panics when re-tiling yields a different non-empty shard count
    /// than was recorded — the replay would no longer be the same
    /// placement.
    pub fn replay(&self, job: &Job, reference: &ntx_sim::Cluster) -> Result<PlacedJob, SchedError> {
        let plans = Tiler::new(self.planned_shards).plan(job, reference)?;
        let nonempty: Vec<ClusterPlan> = plans.into_iter().filter(|p| !p.is_empty()).collect();
        assert_eq!(
            nonempty.len(),
            self.clusters.len(),
            "replay must reproduce the recorded shard count"
        );
        Ok(PlacedJob {
            meta: JobMeta::of(job),
            shards: self.clusters.iter().copied().zip(nonempty).collect(),
        })
    }
}

/// The fallible half of a farm admission: the job validated, sized and
/// tiled, with its placement estimates. Everything but the choice of
/// clusters, which depends on the loads the previous commit left —
/// so a caller can plan a whole batch before placing any of it.
#[derive(Debug)]
pub(crate) struct TiledJob {
    nonempty: Vec<ClusterPlan>,
    hint: u64,
    per_shard: u64,
    planned_shards: usize,
}

/// The bit-accurate backend: tiler + placement + cluster farm.
#[derive(Debug)]
pub struct SimulatorBackend {
    config: ScaleOutConfig,
    farm: ClusterFarm,
    roofline: Roofline,
}

impl SimulatorBackend {
    /// Builds the farm for `config`.
    #[must_use]
    pub fn new(config: ScaleOutConfig) -> Self {
        let mut farm = ClusterFarm::with_memory(config.clusters, config.cluster, config.memory);
        farm.set_fault_plan(config.faults);
        farm.set_worker_threads(crate::farm::resolve_worker_threads(config.worker_threads));
        Self {
            config,
            farm,
            roofline: roofline_for(&config),
        }
    }

    /// Tiles `job` at `shards` shards, retrying wider on TCDM capacity
    /// failures until the farm width is exhausted; returns the plans
    /// and the shard count that fit.
    fn tile_with_retry(
        &self,
        job: &Job,
        mut shards: usize,
    ) -> Result<(Vec<ClusterPlan>, usize), SchedError> {
        let n = self.config.clusters;
        loop {
            match Tiler::new(shards).plan(job, self.farm.reference_cluster()) {
                Ok(plans) => return Ok((plans, shards)),
                // A shard that cannot fit the TCDM may fit when split
                // finer; retry wider until the farm width is exhausted.
                Err(SchedError::Capacity(_)) if shards < n => shards += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Admits `job` into the *running* farm: sizes a **graded** shard
    /// count from the measured-duration table — corrected cycles per
    /// 4096-cycle shard, any value in `1..=live clusters` — and assigns
    /// the shards to the least-loaded clusters right now. The job
    /// starts the moment those clusters free up; no wave boundary is
    /// involved. Returns the placement so callers can log it or replay
    /// it into the barriered oracle.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shape`] for inconsistent jobs,
    /// [`SchedError::Capacity`] when no feasible sharding exists.
    pub fn admit_continuous(
        &mut self,
        job: &Job,
        table: &DurationTable,
    ) -> Result<Placement, SchedError> {
        self.admit_continuous_within(job, table, None)
    }

    /// [`admit_continuous`](Self::admit_continuous) with deadline
    /// shedding: the job is **rejected without touching the farm**
    /// when its estimated completion — the load of the busiest chosen
    /// cluster plus the shard estimate, measured from the farm's
    /// [`virtual_now`](ClusterFarm::virtual_now) — already proves a
    /// virtual-cycle deadline unmeetable. `None` admits
    /// unconditionally.
    ///
    /// # Errors
    ///
    /// [`SchedError::DeadlineUnmeetable`] for shed jobs, plus every
    /// [`admit_continuous`](Self::admit_continuous) error.
    pub fn admit_continuous_within(
        &mut self,
        job: &Job,
        table: &DurationTable,
        deadline_cycles: Option<u64>,
    ) -> Result<Placement, SchedError> {
        let tiled = self.plan(job, table)?;
        self.place(job, tiled, deadline_cycles)
    }

    /// How many clusters can take new work: dead clusters take none,
    /// so jobs are sized against the survivors.
    ///
    /// # Errors
    ///
    /// [`SchedError::Capacity`] when a kill left no cluster alive.
    fn live_count(&self) -> Result<usize, SchedError> {
        match self.farm.num_alive() {
            0 => Err(SchedError::Capacity(
                "no live clusters remain in the farm".into(),
            )),
            n => Ok(n),
        }
    }

    /// The fallible half of admission: validates `job`, sizes its
    /// graded shard count over the live clusters and tiles it.
    /// Read-only on the farm.
    pub(crate) fn plan(&self, job: &Job, table: &DurationTable) -> Result<TiledJob, SchedError> {
        job.validate()?;
        let alive = self.live_count()?;
        let freq = self.config.cluster.ntx_freq_hz;
        let want = graded_shards(job, table, &self.roofline, freq, alive);
        let (plans, planned_shards) = self.tile_with_retry(job, want)?;
        let per_shard = estimate_for(job, planned_shards, &self.roofline, freq).cycles;
        Ok(TiledJob {
            nonempty: plans.into_iter().filter(|p| !p.is_empty()).collect(),
            hint: table.corrected_cycles(job.kind.class(), per_shard),
            per_shard,
            planned_shards,
        })
    }

    /// The commit half of admission: chooses the clusters for a
    /// [`plan`](Self::plan)ned job, sheds it when `deadline_cycles` is
    /// provably unmeetable (leaving the farm untouched), and queues its
    /// shards on the farm.
    pub(crate) fn place(
        &mut self,
        job: &Job,
        tiled: TiledJob,
        deadline_cycles: Option<u64>,
    ) -> Result<Placement, SchedError> {
        let chosen = self.choose(job, tiled.nonempty.len());
        if let Some(deadline) = deadline_cycles {
            let now = self.farm.virtual_now();
            // Per chosen cluster the job's shards append to the queue:
            // its k-th shard there retires at load + k * hint.
            let mut finish = now;
            let mut backlog: Vec<(usize, u64)> = Vec::new();
            for &c in &chosen {
                let entry = match backlog.iter_mut().find(|(b, _)| *b == c) {
                    Some(e) => {
                        e.1 += tiled.hint;
                        e.1
                    }
                    None => {
                        let f = self.farm.load(c) + tiled.hint;
                        backlog.push((c, f));
                        f
                    }
                };
                finish = finish.max(entry);
            }
            let estimated_cycles = finish - now;
            if estimated_cycles > deadline {
                return Err(SchedError::DeadlineUnmeetable {
                    estimated_cycles,
                    deadline_cycles: deadline,
                });
            }
        }
        self.farm.admit(
            PlacedJob {
                meta: JobMeta::of(job),
                shards: chosen.iter().copied().zip(tiled.nonempty).collect(),
            },
            tiled.hint,
            tiled.per_shard,
        );
        Ok(Placement {
            planned_shards: tiled.planned_shards,
            clusters: chosen,
            shard_cycles: tiled.hint,
        })
    }

    /// The clusters `shards` shards of `job` go to, ascending:
    /// least-loaded live clusters first, ascending-index ties keeping
    /// placement deterministic. On a mesh with affinity enabled the
    /// primary key is data locality: clusters attached to the job's
    /// home cube win over less-loaded remote ones, so shards cross a
    /// serial link only when the home cube has no ports left to give.
    /// When a capacity retry produced more shards than live clusters
    /// (possible only after a kill), the assignment wraps — several
    /// shards of one job then queue on the same surviving cluster.
    fn choose(&self, job: &Job, shards: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.config.clusters)
            .filter(|&c| self.farm.is_alive(c))
            .collect();
        if self.config.affinity {
            order.sort_by_key(|&c| {
                (
                    self.farm.remote_penalty(c, job.id, job.opts.home_cube),
                    self.farm.load(c),
                    c,
                )
            });
        } else {
            order.sort_by_key(|&c| (self.farm.load(c), c));
        }
        let mut chosen: Vec<usize> = (0..shards).map(|i| order[i % order.len()]).collect();
        chosen.sort_unstable();
        chosen
    }

    /// Queues `job` across every live cluster, plan `i` on the `i`-th
    /// — the full-width strong-scaling placement of
    /// [`ScaleOutExecutor::run_job`](crate::ScaleOutExecutor::run_job).
    /// Its shards carry no estimate, so their retires teach the
    /// duration table nothing.
    pub(crate) fn place_full_width(&mut self, job: &Job) -> Result<(), SchedError> {
        let plans = Tiler::new(self.live_count()?).plan(job, self.farm.reference_cluster())?;
        let shards = (0..self.config.clusters)
            .filter(|&c| self.farm.is_alive(c))
            .zip(plans)
            .filter(|(_, p)| !p.is_empty())
            .collect();
        self.farm.admit(
            PlacedJob {
                meta: JobMeta::of(job),
                shards,
            },
            0,
            0,
        );
        Ok(())
    }

    /// Retires the next shard of the continuously-admitted farm (see
    /// [`ClusterFarm::step`]); `None` when the farm is idle.
    pub fn step_farm(&mut self) -> Option<ShardRetire> {
        self.farm.step()
    }

    /// Ids of the jobs the farm failed since the last call because no
    /// cluster survived to run their shards (see
    /// [`ClusterFarm::take_lost`]).
    pub(crate) fn take_lost(&mut self) -> Vec<u64> {
        self.farm.take_lost()
    }

    /// True when continuously-admitted shards are still queued.
    #[must_use]
    pub fn has_farm_work(&self) -> bool {
        self.farm.has_pending()
    }

    /// Virtual makespan of the continuous farm (latest cluster clock).
    #[must_use]
    pub fn farm_makespan(&self) -> u64 {
        self.farm.makespan()
    }

    /// Farm-lifetime counter totals over every retired shard (see
    /// [`ClusterFarm::perf_totals`]) — the serving layer reads the
    /// external-memory wait and remote-traffic figures from here.
    #[must_use]
    pub fn perf_totals(&self) -> ntx_sim::PerfSnapshot {
        self.farm.perf_totals()
    }

    /// The farm's virtual "now" (earliest live-cluster clock; see
    /// [`ClusterFarm::virtual_now`]) — the reference point of
    /// virtual-cycle deadlines.
    #[must_use]
    pub fn virtual_now(&self) -> u64 {
        self.farm.virtual_now()
    }

    /// Worker-pool counters of the farm (see [`ClusterFarm::pool_stats`]).
    #[must_use]
    pub fn pool_stats(&self) -> crate::farm::PoolStats {
        self.farm.pool_stats()
    }

    /// Fault-recovery counters of the farm (see
    /// [`ClusterFarm::fault_stats`]).
    #[must_use]
    pub fn fault_stats(&self) -> crate::farm::FaultStats {
        self.farm.fault_stats()
    }

    /// Number of live clusters (see [`ClusterFarm::num_alive`]).
    #[must_use]
    pub fn num_alive(&self) -> usize {
        self.farm.num_alive()
    }
}

/// The instant backend: answers from the roofline model.
#[derive(Debug)]
pub struct AnalyticalBackend {
    clusters: usize,
    freq_hz: f64,
    roofline: Roofline,
}

impl AnalyticalBackend {
    /// A model of the same system `config` describes.
    #[must_use]
    pub fn new(config: &ScaleOutConfig) -> Self {
        Self {
            clusters: config.clusters,
            freq_hz: config.cluster.ntx_freq_hz,
            roofline: roofline_for(config),
        }
    }

    /// Answers `job` from the roofline model, sharded as the farm
    /// would place it on idle clusters with a cold duration table
    /// (correction 1.0). Spends no simulator cycle: the result carries
    /// the estimate and no output data.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shape`] for inconsistent jobs.
    pub fn run(&self, job: &Job) -> Result<JobResult, SchedError> {
        job.validate()?;
        let cold = DurationTable::new();
        let shards = graded_shards(job, &cold, &self.roofline, self.freq_hz, self.clusters);
        let est = estimate_for(job, shards, &self.roofline, self.freq_hz);
        let mut report = ScaleOutReport::new(self.clusters, self.freq_hz);
        report.makespan_cycles = est.cycles;
        Ok(JobResult {
            job_id: job.id,
            label: job.label.clone(),
            output: Vec::new(),
            report,
            start_cycle: 0,
            finish_cycle: est.cycles,
            estimate: Some(est),
            backend: BackendKind::Estimate,
        })
    }
}

/// The wire-speed backend: executes jobs directly on the host CPU
/// through [`ntx_cpu::NativeBackend`], sharded over the same worker
/// threads the farm's pool uses
/// ([`ScaleOutConfig::with_worker_threads`] / `NTX_WORKER_THREADS`).
///
/// Admission estimates start from the same roofline as the other
/// backends and are calibrated by a **private** [`DurationTable`]:
/// each executed job folds its measured wall-clock duration
/// (converted to NTX cycles at the cluster clock) into the per-class
/// EWMA, so after a handful of jobs the admission controller predicts
/// native latencies instead of accelerator latencies. The table is
/// deliberately not shared with the simulator's placement feedback —
/// host wall-clock and simulated shard cycles measure different
/// machines.
///
/// Exact mode ([`BackendKind::NativeExact`]) produces outputs
/// bit-identical to [`SimulatorBackend`] on every job kind; raw
/// command-stream jobs have no native lowering and are rejected.
#[derive(Debug)]
pub struct NativeHost {
    engine: ntx_cpu::NativeBackend,
    kind: BackendKind,
    clusters: usize,
    freq_hz: f64,
    roofline: Roofline,
    table: DurationTable,
}

impl NativeHost {
    /// A fast-mode host backend for the system `config` describes.
    #[must_use]
    pub fn fast(config: &ScaleOutConfig) -> Self {
        Self::new(config, ntx_cpu::NativeMode::Fast, BackendKind::NativeFast)
    }

    /// An exact-mode (bit-identical) host backend for `config`.
    #[must_use]
    pub fn exact(config: &ScaleOutConfig) -> Self {
        Self::new(config, ntx_cpu::NativeMode::Exact, BackendKind::NativeExact)
    }

    fn new(config: &ScaleOutConfig, mode: ntx_cpu::NativeMode, kind: BackendKind) -> Self {
        let threads = crate::farm::resolve_worker_threads(config.worker_threads);
        Self {
            engine: ntx_cpu::NativeBackend::new(mode).with_threads(threads),
            kind,
            clusters: config.clusters,
            freq_hz: config.cluster.ntx_freq_hz,
            roofline: roofline_for(config),
            table: DurationTable::new(),
        }
    }

    /// The wall-clock calibration table (introspection).
    #[must_use]
    pub fn table(&self) -> &DurationTable {
        &self.table
    }

    /// Admission check of the native backends: `job` must be valid
    /// and have a native lowering.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shape`] for inconsistent jobs and for raw NTX
    /// command streams.
    pub(crate) fn check(job: &Job) -> Result<(), SchedError> {
        job.validate()?;
        if matches!(job.kind, JobKind::Raw(_)) {
            return Err(SchedError::Shape(
                "raw NTX command streams have no native lowering; \
                 submit them with BackendKind::Simulate"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Executes `job` on the host CPU. The measured wall-clock
    /// duration becomes the result's makespan (in NTX cycles at the
    /// cluster clock) and is folded into the calibration EWMA against
    /// the **raw** roofline estimate — same discipline as the farm's
    /// placement feedback. The result carries the estimate admission
    /// predicted: the unsharded roofline (the backend runs each job as
    /// one unit; threading is internal) bent by the learned wall-clock
    /// ratio of the job's class.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shape`] for inconsistent jobs and for raw NTX
    /// command streams, which have no native lowering.
    pub fn run(&mut self, job: &Job) -> Result<JobResult, SchedError> {
        Self::check(job)?;
        let class = job.kind.class();
        let raw = estimate_for(job, 1, &self.roofline, self.freq_hz);
        let cycles = self.table.corrected_cycles(class, raw.cycles);
        let est = JobEstimate {
            cycles,
            seconds: cycles as f64 / self.freq_hz,
            ..raw
        };
        let t0 = std::time::Instant::now();
        let output = self.execute(job);
        let wall = t0.elapsed().as_secs_f64();
        let measured = ((wall * self.freq_hz).round() as u64).max(1);
        self.table.observe(class, raw.cycles, measured);
        let mut report = ScaleOutReport::new(self.clusters, self.freq_hz);
        report.makespan_cycles = measured;
        Ok(JobResult {
            job_id: job.id,
            label: job.label.clone(),
            output,
            report,
            start_cycle: 0,
            finish_cycle: measured,
            estimate: Some(est),
            backend: self.kind,
        })
    }

    fn execute(&self, job: &Job) -> Vec<f32> {
        match &job.kind {
            JobKind::Axpy { a, x, y } => self.engine.axpy(*a, x, y),
            JobKind::Gemm { dims, a, b } => self.engine.gemm(dims, a, b),
            JobKind::Conv2d {
                kernel,
                image,
                weights,
            } => self.engine.conv2d(kernel, image, weights),
            JobKind::Stencil2d {
                height,
                width,
                grid,
            } => self
                .engine
                .stencil2d(*height as usize, *width as usize, grid),
            JobKind::Raw(_) => unreachable!("check rejects raw jobs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn axpy_job(n: usize) -> Job {
        Job::new(
            0,
            "axpy",
            JobKind::Axpy {
                a: 2.0,
                x: vec![1.0; n],
                y: vec![2.0; n],
            },
        )
    }

    #[test]
    fn estimates_are_roofline_consistent() {
        let config = ScaleOutConfig::with_clusters(4);
        let model = AnalyticalBackend::new(&config);
        let job = axpy_job(4096);
        let answer = model.run(&job).expect("valid job");
        let est = answer
            .estimate
            .expect("analytical answers carry the estimate");
        // AXPY is memory bound: 12 B and 2 flops per element.
        assert!(!est.compute_bound);
        assert_eq!(est.flops, 2 * 4096);
        assert_eq!(est.ext_bytes, 12 * 4096);
        assert!(est.cycles > 0);
        assert_eq!(answer.report.makespan_cycles, est.cycles);
        assert!(answer.output.is_empty());
    }

    #[test]
    fn small_jobs_get_few_shards_large_jobs_get_many() {
        let config = ScaleOutConfig::with_clusters(8);
        let model = AnalyticalBackend::new(&config);
        let shards = |n| model.run(&axpy_job(n)).unwrap().estimate.unwrap().shards;
        assert_eq!(shards(64), 1);
        assert_eq!(shards(1 << 20), 8);
        // Graded, not snapped: a mid-size job spans a mid-size subset.
        let mid = shards(6000);
        assert!(mid > 1 && mid < 8, "6000-element AXPY on {mid} shards");
    }

    #[test]
    fn continuous_feedback_observes_raw_estimates_not_corrected_hints() {
        // The EWMA's denominator must be the raw roofline estimate:
        // feeding the corrected placement hint back in would converge
        // the learned ratio to sqrt(true ratio) instead of the ratio.
        let mut table = DurationTable::new();
        for _ in 0..50 {
            table.observe(JobClass::Gemm, 1000, 1400);
        }
        assert!(
            (table.correction(JobClass::Gemm) - 1.4).abs() < 1e-9,
            "stable observations must converge to the true ratio, got {}",
            table.correction(JobClass::Gemm)
        );

        // And the farm reports exactly the raw estimate at retire,
        // while the placement hint carries the correction.
        let mut sim = SimulatorBackend::new(ScaleOutConfig::with_clusters(2));
        let mut table = DurationTable::new();
        table.observe(JobClass::Axpy, 1000, 2000); // correction 2.0
        let placement = sim.admit_continuous(&axpy_job(512), &table).expect("admit");
        let retire = sim.step_farm().expect("one shard queued");
        assert_eq!(
            placement.shard_cycles,
            table.corrected_cycles(JobClass::Axpy, retire.est_cycles),
            "hint must be the corrected form of the reported raw estimate"
        );
        assert!(retire.est_cycles < placement.shard_cycles);
        while sim.step_farm().is_some() {}
    }

    #[test]
    fn simulator_admits_oversized_gemm_as_streaming_tiles() {
        // A GEMM whose single-cluster shard overflows the TCDM is no
        // longer widened or rejected: on a one-cluster farm the shard
        // streams through M/N output tiles.
        let sim = SimulatorBackend::new(ScaleOutConfig::with_clusters(1));
        let dims = ntx_kernels::blas::GemmKernel {
            m: 96,
            k: 96,
            n: 96,
        };
        let job = Job::new(
            0,
            "gemm",
            JobKind::Gemm {
                dims,
                a: vec![0.5; 96 * 96],
                b: vec![0.25; 96 * 96],
            },
        );
        let tiled = sim
            .plan(&job, &DurationTable::new())
            .expect("streams when oversized");
        assert_eq!(tiled.planned_shards, 1, "no widening needed");
        assert_eq!(tiled.nonempty.len(), 1);
        assert!(
            tiled.nonempty[0].tiles.len() > 1,
            "the shard streams as multiple output tiles"
        );
    }
}
