//! Execution backends: one job queue, several ways to answer it.
//!
//! A [`Backend`] owns the three steps of the serving path — **plan
//! admission** (validate a job and shard it, before any resources are
//! committed), **launch** (run an admitted batch), and **readback**
//! (assemble per-job results) — behind one trait, so the same
//! [`JobQueue`](crate::JobQueue) serves both "simulate exactly" and
//! "estimate now" requests, selected per job via
//! [`JobOpts::backend`](crate::JobOpts):
//!
//! * [`SimulatorBackend`] — the bit-accurate path: jobs are tiled by
//!   the [`Tiler`], placed onto cluster subsets, and executed by the
//!   [`ClusterFarm`] through the cycle simulator's burst API.
//! * [`AnalyticalBackend`] — the instant path: jobs are answered from
//!   `ntx-model`'s roofline estimates without spending a single
//!   simulator cycle, useful for admission control and capacity
//!   planning in front of the farm.
//! * [`NativeHost`] — the wire-speed path: jobs execute on the host
//!   CPU through [`ntx_cpu::NativeBackend`], either with the fast
//!   multi-accumulator reduction ([`BackendKind::NativeFast`]) or
//!   bit-identical to the simulator with one rounding of each exact
//!   sum ([`BackendKind::NativeExact`]). Admission estimates
//!   come from the same roofline, calibrated by a private
//!   [`DurationTable`] EWMA of measured wall-clock durations.

use ntx_mem::MemoryModel;
use ntx_model::roofline::Roofline;

use crate::executor::{BatchResult, JobResult, ScaleOutConfig};
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

/// A job's work after admission, in backend-specific form.
#[derive(Debug)]
pub enum AdmittedWork {
    /// Sharded tile plans for the simulator farm, plus the analytical
    /// per-shard cycle estimate the placement heuristic packs with.
    Tiled {
        /// One plan per shard (possibly empty for trailing clusters).
        plans: Vec<ClusterPlan>,
        /// Estimated cycles per shard, for least-loaded placement.
        shard_cycles_hint: u64,
    },
    /// An analytical estimate; nothing to execute.
    Estimated(JobEstimate),
    /// Admitted for native host-CPU execution, carrying the
    /// EWMA-corrected roofline estimate used for admission control;
    /// the job itself executes inside
    /// [`run_batch`](Backend::run_batch).
    Native(JobEstimate),
}

/// A job that passed admission, paired with its planned work.
#[derive(Debug)]
pub struct AdmittedJob {
    /// The job (owned; its data has already been captured into the
    /// plans where the backend needs it).
    pub job: Job,
    /// The backend-specific plan.
    pub work: AdmittedWork,
}

/// One execution backend: plan admission, launch, readback.
pub trait Backend {
    /// Validates `job` and plans its execution without committing any
    /// resources — a failed admission leaves the backend untouched.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shape`] for inconsistent jobs,
    /// [`SchedError::Capacity`] when no feasible sharding exists.
    fn admit(&mut self, job: &Job) -> Result<AdmittedWork, SchedError>;

    /// Launches a batch of admitted jobs and reads their results back,
    /// in batch order.
    fn run_batch(&mut self, batch: Vec<AdmittedJob>) -> BatchResult;
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
/// paper's §III-C measurement, and — under [`MemoryModel::SharedHmc`]
/// — the memory roof capped at this cluster's fair share of the
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
        MemoryModel::SharedHmc(hmc) => {
            r.with_shared_bandwidth(hmc.shared_bandwidth(), config.clusters)
        }
        MemoryModel::HmcMesh(mesh) => r.with_mesh_bandwidth(
            mesh.cube.shared_bandwidth(),
            config.clusters,
            mesh.cubes as usize,
        ),
    }
}

/// The one space-sharing sizing rule, shared by both backends so the
/// analytical estimates always assume the sharding the simulator
/// actually places: enough shards that each carries roughly
/// `target_shard_cycles` of estimated work, capped at the farm width.
/// With `space_share` disabled every job spans all clusters.
fn heuristic_shards(
    job: &Job,
    config: &ScaleOutConfig,
    roofline: &Roofline,
    freq_hz: f64,
) -> usize {
    if !config.space_share {
        return config.clusters;
    }
    let est1 = estimate_for(job, 1, roofline, freq_hz);
    let shards = est1
        .cycles
        .div_ceil(config.target_shard_cycles.max(1))
        .clamp(1, config.clusters as u64) as usize;
    // Snap to one cluster or the whole farm. Mid-size subsets (3 of 8
    // clusters) look attractive per job but pack badly across a batch
    // — the analytical estimate is only accurate to tens of percent,
    // so coarse multi-cluster shards lump onto a critical cluster and
    // the batch loses to plain full-width sharding. Tiny jobs on one
    // cluster fill the slack of full-width jobs instead.
    if shards > 1 {
        config.clusters
    } else {
        1
    }
}

/// Per-[`JobClass`] EWMA of measured versus estimated shard cycles —
/// the measured-duration feedback that graduates placement from
/// snap-to-{1, farm} to graded cluster subsets. The roofline estimate
/// under-predicts real shard durations by tens of percent (it ignores
/// banking conflicts, DMA ramp-up and tile-boundary overheads), and by
/// different amounts per job family; each retired shard contributes
/// its observed `measured / estimated` ratio, so after a handful of
/// jobs per class the corrected estimates are accurate enough to pack
/// mid-size cluster subsets without lumping onto a critical cluster.
/// Seeded at 1.0 — i.e. pure roofline — so a cold table behaves
/// exactly like the estimate-only heuristic.
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
    /// guess — and later ones blend in with [`EWMA_ALPHA`].
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

/// Where a continuous admission landed: enough to replay the exact
/// same placement into a barriered [`ClusterFarm::run_batch`] (the
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
    /// barriered replay of the continuous run: re-tiles `job` at the
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
            meta: JobMeta {
                id: job.id,
                label: job.label.clone(),
                output_len: job.output_len(),
                class: job.kind.class(),
                home_cube: job.opts.home_cube,
            },
            shards: self.clusters.iter().copied().zip(nonempty).collect(),
        })
    }
}

/// A planned-but-uncommitted continuous admission: the tiled shard
/// plans, their target clusters, and the placement estimates. Internal
/// split of plan/commit that lets deadline shedding reject a job
/// before it touches the farm.
#[derive(Debug)]
struct ContinuousPlan {
    nonempty: Vec<ClusterPlan>,
    chosen: Vec<usize>,
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

    /// Read-only access to cluster `index` (test/report introspection).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn cluster(&self, index: usize) -> &ntx_sim::Cluster {
        self.farm.cluster(index)
    }

    /// Plans `job` across **all** clusters, ignoring the space-sharing
    /// heuristic — the single-job strong-scaling path
    /// ([`ScaleOutExecutor::run_job`](crate::ScaleOutExecutor::run_job)).
    ///
    /// # Errors
    ///
    /// Propagates tiler errors.
    pub fn admit_full_width(&self, job: &Job) -> Result<Vec<ClusterPlan>, SchedError> {
        Tiler::new(self.config.clusters).plan(job, self.farm.reference_cluster())
    }

    /// Runs one admitted job, sharded plan `i` on cluster `i` (the
    /// full-width identity placement).
    #[must_use]
    pub fn run_single(&mut self, meta: JobMeta, plans: Vec<ClusterPlan>) -> JobResult {
        let shards = plans
            .into_iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .collect();
        let mut batch = self
            .farm
            .run_batch(vec![PlacedJob { meta, shards }], self.config.pipelined);
        batch.results.pop().expect("one result per placed job")
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

    /// Chooses the shard count for `job`: enough shards that each
    /// carries roughly `target_shard_cycles` of estimated work (so
    /// small jobs leave clusters free for space sharing), grown until
    /// the shards fit the TCDM, capped at the cluster count. With
    /// `space_share` disabled every job spans all clusters.
    fn admit_tiled(&self, job: &Job) -> Result<AdmittedWork, SchedError> {
        let freq = self.config.cluster.ntx_freq_hz;
        let want = heuristic_shards(job, &self.config, &self.roofline, freq);
        let (plans, shards) = self.tile_with_retry(job, want)?;
        let est = estimate_for(job, shards, &self.roofline, freq);
        Ok(AdmittedWork::Tiled {
            plans,
            shard_cycles_hint: est.cycles,
        })
    }

    /// Admits `job` into the *running* farm (continuous mode): plans a
    /// **graded** shard count from the measured-duration table —
    /// `corrected cycles / target_shard_cycles`, any value in
    /// `1..=clusters`, not snap-to-{1, farm} — and assigns the shards
    /// to the least-loaded clusters right now. The job starts the
    /// moment those clusters free up; no wave boundary is involved.
    /// Returns the placement so callers can log it or replay it into
    /// the barriered oracle.
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
        let plan = self.plan_continuous(job, table)?;
        Ok(self.commit_continuous(job, plan))
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
        let plan = self.plan_continuous(job, table)?;
        if let Some(deadline) = deadline_cycles {
            let now = self.farm.virtual_now();
            // Per chosen cluster the job's shards append to the queue:
            // its k-th shard there retires at load + k * hint.
            let mut finish = now;
            let mut backlog: Vec<(usize, u64)> = Vec::new();
            for &c in &plan.chosen {
                let entry = match backlog.iter_mut().find(|(b, _)| *b == c) {
                    Some(e) => {
                        e.1 += plan.hint;
                        e.1
                    }
                    None => {
                        let f = self.farm.load(c) + plan.hint;
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
        Ok(self.commit_continuous(job, plan))
    }

    /// Plans `job` for continuous admission without committing it:
    /// chooses the graded shard count, tiles, and picks the target
    /// clusters. Read-only on the farm, so a rejected plan (deadline
    /// shedding) leaves no trace.
    fn plan_continuous(
        &self,
        job: &Job,
        table: &DurationTable,
    ) -> Result<ContinuousPlan, SchedError> {
        job.validate()?;
        let freq = self.config.cluster.ntx_freq_hz;
        let class = job.kind.class();
        // Dead clusters take no new work: plan against the survivors.
        let alive: Vec<usize> = (0..self.config.clusters)
            .filter(|&c| self.farm.is_alive(c))
            .collect();
        if alive.is_empty() {
            return Err(SchedError::Capacity(
                "no live clusters remain in the farm".into(),
            ));
        }
        let want = if self.config.space_share {
            let est1 = estimate_for(job, 1, &self.roofline, freq);
            let corrected = table.corrected_cycles(class, est1.cycles);
            corrected
                .div_ceil(self.config.target_shard_cycles.max(1))
                .clamp(1, alive.len() as u64) as usize
        } else {
            alive.len()
        };
        let (plans, planned_shards) = self.tile_with_retry(job, want)?;
        let per_shard = estimate_for(job, planned_shards, &self.roofline, freq).cycles;
        let hint = table.corrected_cycles(class, per_shard);
        let nonempty: Vec<ClusterPlan> = plans.into_iter().filter(|p| !p.is_empty()).collect();
        // Least-loaded clusters take the shards; ascending-index ties
        // keep placement deterministic. On a mesh with affinity enabled
        // the primary key is data locality: clusters attached to the
        // job's home cube win over less-loaded remote ones, so shards
        // cross a serial link only when the home cube has no ports
        // left to give. When a capacity retry produced more shards
        // than live clusters (possible only after a kill), the
        // assignment wraps — several shards of one job then queue on
        // the same surviving cluster.
        let mut order = alive;
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
        let mut chosen: Vec<usize> = (0..nonempty.len())
            .map(|i| order[i % order.len()])
            .collect();
        chosen.sort_unstable();
        Ok(ContinuousPlan {
            nonempty,
            chosen,
            hint,
            per_shard,
            planned_shards,
        })
    }

    /// Commits a [`plan_continuous`](Self::plan_continuous) result
    /// into the running farm.
    fn commit_continuous(&mut self, job: &Job, plan: ContinuousPlan) -> Placement {
        let meta = JobMeta {
            id: job.id,
            label: job.label.clone(),
            output_len: job.output_len(),
            class: job.kind.class(),
            home_cube: job.opts.home_cube,
        };
        self.farm.admit(
            PlacedJob {
                meta,
                shards: plan.chosen.iter().copied().zip(plan.nonempty).collect(),
            },
            plan.hint,
            plan.per_shard,
        );
        Placement {
            planned_shards: plan.planned_shards,
            clusters: plan.chosen,
            shard_cycles: plan.hint,
        }
    }

    /// Retires the next shard of the continuously-admitted farm (see
    /// [`ClusterFarm::step`]); `None` when the farm is idle.
    pub fn step_farm(&mut self) -> Option<ShardRetire> {
        self.farm.step()
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

impl Backend for SimulatorBackend {
    fn admit(&mut self, job: &Job) -> Result<AdmittedWork, SchedError> {
        self.admit_tiled(job)
    }

    /// Places each job's shards on the least-loaded clusters by the
    /// admission estimate, assigning in LPT order (heaviest shards
    /// first, ties by submission) so the greedy packing stays balanced
    /// — execution and results keep submission order. Placement is a
    /// pure, deterministic function of the batch, so the pipelined run
    /// and the barriered oracle place identically and stay
    /// bit-comparable per job.
    fn run_batch(&mut self, batch: Vec<AdmittedJob>) -> BatchResult {
        let n = self.config.clusters;
        struct Item {
            meta: JobMeta,
            shards: Vec<ClusterPlan>,
            hint: u64,
        }
        let items: Vec<Item> = batch
            .into_iter()
            .filter_map(|AdmittedJob { job, work }| {
                let AdmittedWork::Tiled {
                    plans,
                    shard_cycles_hint,
                } = work
                else {
                    debug_assert!(false, "estimate admitted to the simulator backend");
                    return None;
                };
                Some(Item {
                    meta: JobMeta {
                        id: job.id,
                        label: job.label.clone(),
                        output_len: job.output_len(),
                        class: job.kind.class(),
                        home_cube: job.opts.home_cube,
                    },
                    shards: plans.into_iter().filter(|p| !p.is_empty()).collect(),
                    hint: shard_cycles_hint,
                })
            })
            .collect();
        let mut by_weight: Vec<usize> = (0..items.len()).collect();
        by_weight.sort_by_key(|&i| (std::cmp::Reverse(items[i].hint), i));
        let mut load = vec![0u64; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut chosen_for: Vec<Vec<usize>> = vec![Vec::new(); items.len()];
        for &i in &by_weight {
            order.clear();
            order.extend(0..n);
            if self.config.affinity {
                let (id, home) = (items[i].meta.id, items[i].meta.home_cube);
                order.sort_by_key(|&c| (self.farm.remote_penalty(c, id, home), load[c], c));
            } else {
                order.sort_by_key(|&c| (load[c], c));
            }
            let mut chosen: Vec<usize> = order[..items[i].shards.len()].to_vec();
            chosen.sort_unstable();
            for &c in &chosen {
                load[c] += items[i].hint;
            }
            chosen_for[i] = chosen;
        }
        let placed = items
            .into_iter()
            .zip(chosen_for)
            .map(|(item, chosen)| PlacedJob {
                meta: item.meta,
                shards: chosen.into_iter().zip(item.shards).collect(),
            })
            .collect();
        self.farm.run_batch(placed, self.config.pipelined)
    }
}

/// The instant backend: answers from the roofline model.
#[derive(Debug)]
pub struct AnalyticalBackend {
    config: ScaleOutConfig,
    clusters: usize,
    freq_hz: f64,
    roofline: Roofline,
}

impl AnalyticalBackend {
    /// A model of the same system `config` describes.
    #[must_use]
    pub fn new(config: &ScaleOutConfig) -> Self {
        Self {
            config: *config,
            clusters: config.clusters,
            freq_hz: config.cluster.ntx_freq_hz,
            roofline: roofline_for(config),
        }
    }

    fn shards_for(&self, job: &Job) -> usize {
        heuristic_shards(job, &self.config, &self.roofline, self.freq_hz)
    }
}

impl Backend for AnalyticalBackend {
    fn admit(&mut self, job: &Job) -> Result<AdmittedWork, SchedError> {
        job.validate()?;
        let shards = self.shards_for(job);
        Ok(AdmittedWork::Estimated(estimate_for(
            job,
            shards,
            &self.roofline,
            self.freq_hz,
        )))
    }

    fn run_batch(&mut self, batch: Vec<AdmittedJob>) -> BatchResult {
        let results: Vec<JobResult> = batch
            .into_iter()
            .map(|AdmittedJob { job, work }| {
                let est = match work {
                    AdmittedWork::Estimated(e) => e,
                    AdmittedWork::Tiled { .. } | AdmittedWork::Native(_) => {
                        debug_assert!(false, "foreign plan admitted to the analytical backend");
                        estimate_for(&job, 1, &self.roofline, self.freq_hz)
                    }
                };
                let mut report = ScaleOutReport::new(self.clusters, self.freq_hz);
                report.makespan_cycles = est.cycles;
                JobResult {
                    job_id: job.id,
                    label: job.label,
                    output: Vec::new(),
                    report,
                    start_cycle: 0,
                    finish_cycle: est.cycles,
                    estimate: Some(est),
                    backend: BackendKind::Estimate,
                }
            })
            .collect();
        // Estimates spend no simulated time: the batch window is empty.
        BatchResult {
            results,
            report: ScaleOutReport::new(self.clusters, self.freq_hz),
        }
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
/// command-stream jobs have no native lowering and are rejected at
/// admission.
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
            JobKind::Raw(_) => {
                debug_assert!(false, "raw job admitted to the native backend");
                Vec::new()
            }
        }
    }
}

impl Backend for NativeHost {
    fn admit(&mut self, job: &Job) -> Result<AdmittedWork, SchedError> {
        job.validate()?;
        if matches!(job.kind, JobKind::Raw(_)) {
            return Err(SchedError::Shape(
                "raw NTX command streams have no native lowering; \
                 submit them with BackendKind::Simulate"
                    .into(),
            ));
        }
        // The native backend runs each job as one unit (threading is
        // internal), so the estimate is the unsharded roofline bent by
        // the learned wall-clock ratio of this job class.
        let raw = estimate_for(job, 1, &self.roofline, self.freq_hz);
        let cycles = self.table.corrected_cycles(job.kind.class(), raw.cycles);
        Ok(AdmittedWork::Native(JobEstimate {
            cycles,
            seconds: cycles as f64 / self.freq_hz,
            ..raw
        }))
    }

    /// Executes each admitted job on the host CPU in batch order. The
    /// measured wall-clock duration becomes the result's makespan (in
    /// NTX cycles at the cluster clock) and is folded into the
    /// calibration EWMA against the **raw** roofline estimate — same
    /// discipline as the farm's placement feedback.
    fn run_batch(&mut self, batch: Vec<AdmittedJob>) -> BatchResult {
        let results: Vec<JobResult> = batch
            .into_iter()
            .map(|AdmittedJob { job, work }| {
                let est = match work {
                    AdmittedWork::Native(e) => e,
                    AdmittedWork::Tiled { .. } | AdmittedWork::Estimated(_) => {
                        debug_assert!(false, "foreign plan admitted to the native backend");
                        estimate_for(&job, 1, &self.roofline, self.freq_hz)
                    }
                };
                let t0 = std::time::Instant::now();
                let output = self.execute(&job);
                let wall = t0.elapsed().as_secs_f64();
                let measured = ((wall * self.freq_hz).round() as u64).max(1);
                let raw = estimate_for(&job, 1, &self.roofline, self.freq_hz);
                self.table.observe(job.kind.class(), raw.cycles, measured);
                let mut report = ScaleOutReport::new(self.clusters, self.freq_hz);
                report.makespan_cycles = measured;
                JobResult {
                    job_id: job.id,
                    label: job.label,
                    output,
                    report,
                    start_cycle: 0,
                    finish_cycle: measured,
                    estimate: Some(est),
                    backend: self.kind,
                }
            })
            .collect();
        // Native jobs spend no simulated farm time: the batch window
        // stays empty, mirroring the analytical backend.
        BatchResult {
            results,
            report: ScaleOutReport::new(self.clusters, self.freq_hz),
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
        let mut model = AnalyticalBackend::new(&config);
        let job = axpy_job(4096);
        let work = model.admit(&job).expect("valid job");
        let AdmittedWork::Estimated(est) = work else {
            panic!("analytical admission must estimate");
        };
        // AXPY is memory bound: 12 B and 2 flops per element.
        assert!(!est.compute_bound);
        assert_eq!(est.flops, 2 * 4096);
        assert_eq!(est.ext_bytes, 12 * 4096);
        assert!(est.cycles > 0);
    }

    #[test]
    fn small_jobs_get_few_shards_large_jobs_get_many() {
        let config = ScaleOutConfig::with_clusters(8);
        let model = AnalyticalBackend::new(&config);
        assert_eq!(model.shards_for(&axpy_job(64)), 1);
        assert_eq!(model.shards_for(&axpy_job(1 << 20)), 8);
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
        // longer widened or rejected: the shard streams through M/N
        // output tiles at the sharding the heuristic asked for.
        let config = ScaleOutConfig {
            target_shard_cycles: u64::MAX, // heuristic says 1 shard
            ..ScaleOutConfig::with_clusters(4)
        };
        let mut sim = SimulatorBackend::new(config);
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
        let work = sim.admit(&job).expect("streams when oversized");
        let AdmittedWork::Tiled { plans, .. } = work else {
            panic!("simulator admission must tile");
        };
        let active: Vec<_> = plans.iter().filter(|p| !p.is_empty()).collect();
        assert_eq!(active.len(), 1, "no widening needed");
        assert!(
            active[0].tiles.len() > 1,
            "the shard streams as multiple output tiles"
        );
    }
}
