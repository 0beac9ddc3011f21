//! The multi-cluster executor: the one object every queue runner
//! drives.
//!
//! [`ScaleOutExecutor`] owns the four backends — a [`SimulatorBackend`]
//! (the tiler, graded placement and the
//! [`ClusterFarm`](crate::ClusterFarm)), the estimate backend
//! (roofline estimates) and the two native backends (wire-speed
//! host-CPU execution, fast and bit-exact) — plus the
//! [`DurationTable`] that feeds measured shard durations back into
//! placement. Every job takes the same path: it is checked once where
//! it enters ([`Job::validate`]), then admission either places it on
//! the running farm or answers it inline, selected by its
//! [`JobOpts`](crate::JobOpts), and retiring a shard feeds the table.
//! [`run_queue`](ScaleOutExecutor::run_queue) admits a whole queue and
//! drains the farm; the async, multi-client
//! [`Server`](crate::Server) interleaves the same two calls with its
//! channel.

use ntx_mem::{MemoryModel, MeshConfig};
use ntx_sim::{ClusterConfig, PerfSnapshot};

use crate::backend::{
    AnalyticalBackend, BackendKind, DurationTable, JobEstimate, NativeHost, SimulatorBackend,
    TiledJob,
};
use crate::farm::ShardRetire;
use crate::job::{Checked, Job, JobKind, JobQueue};
use crate::report::ScaleOutReport;
use crate::SchedError;

/// Static configuration of the scale-out system.
#[derive(Debug, Clone, Copy)]
pub struct ScaleOutConfig {
    /// Number of clusters (the paper's companion work scales 1..128
    /// per HMC; Table II goes to 512 across cubes).
    pub clusters: usize,
    /// Configuration of every cluster.
    pub cluster: ClusterConfig,
    /// External-memory model: ideal private memories (the default), or
    /// an HMC mesh whose per-cube vault/LoB bandwidth the attached
    /// clusters' DMAs draw from, with serial-link hop costs for remote
    /// traffic ([`MemoryModel::HmcMesh`]; one shared cube is a 1-cube
    /// mesh). Data outputs are bit-identical either way; only timing
    /// changes.
    pub memory: MemoryModel,
    /// On a mesh, prefer clusters attached to a job's home cube over
    /// less-loaded remote ones (data-affine placement, the default).
    /// With `false` placement is purely load-ordered — the control
    /// arm of the affinity experiment. Meaningless without
    /// [`MemoryModel::HmcMesh`].
    pub affinity: bool,
    /// Deterministic chaos schedule injected into the farm: cluster
    /// kills, transient stalls, serial-link degradation. The empty
    /// plan (the default) injects nothing; only the barriered
    /// [`ClusterFarm::run_batch`](crate::ClusterFarm::run_batch)
    /// oracle ignores it.
    pub faults: ntx_sim::FaultPlan,
    /// Worker threads for the farm's cluster pool. `0` (the default)
    /// resolves via the `NTX_WORKER_THREADS` env variable, falling
    /// back to 1; `1` runs every shard inline on the merge thread;
    /// `> 1` steps clusters speculatively on that many threads (at
    /// most one per cluster) while the merge front keeps retire order
    /// — and every output and counter — bit-identical to the inline
    /// farm. Only the barriered oracle always runs inline.
    pub worker_threads: usize,
}

impl Default for ScaleOutConfig {
    fn default() -> Self {
        Self {
            clusters: 8,
            cluster: ClusterConfig::default(),
            memory: MemoryModel::Ideal,
            affinity: true,
            faults: ntx_sim::FaultPlan::NONE,
            worker_threads: 0,
        }
    }
}

impl ScaleOutConfig {
    /// `clusters` default-configured clusters.
    #[must_use]
    pub fn with_clusters(clusters: usize) -> Self {
        Self {
            clusters,
            ..Self::default()
        }
    }

    /// Runs the farm on an HMC mesh: clusters are block-partitioned
    /// over the cubes, jobs carry a home cube, and remote shards pay
    /// serial-link bandwidth and hop latency. One shared cube is
    /// `MeshConfig::default().with_cubes(1).with_cube(hmc)`.
    #[must_use]
    pub fn with_hmc_mesh(mut self, mesh: MeshConfig) -> Self {
        self.memory = MemoryModel::HmcMesh(mesh);
        self
    }

    /// Disables data-affine placement (mesh farms only): clusters are
    /// picked purely by load, so shards land remote whenever the home
    /// cube's ports happen to be busier.
    #[must_use]
    pub fn without_affinity(mut self) -> Self {
        self.affinity = false;
        self
    }

    /// Arms a deterministic chaos schedule on the farm (the barriered
    /// oracle stays fault-free).
    #[must_use]
    pub fn with_faults(mut self, faults: ntx_sim::FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the worker-pool width of the farm (`0` = resolve from the
    /// `NTX_WORKER_THREADS` env variable, `1` = inline).
    #[must_use]
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }
}

/// Result of one job: the assembled output plus the measurement window.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Id the queue assigned at submission.
    pub job_id: u64,
    /// Submission label.
    pub label: String,
    /// The job's output, assembled from all cluster shards exactly as
    /// a single cluster would have produced it. Empty for analytical
    /// estimates, which produce no data.
    pub output: Vec<f32>,
    /// Counters of this job's window: per-cluster deltas of the
    /// clusters its shards ran on, makespan of the slowest shard.
    pub report: ScaleOutReport,
    /// Virtual farm cycle at which the job's first shard started.
    pub start_cycle: u64,
    /// Virtual farm cycle at which the job's last shard retired
    /// (`finish_cycle - start_cycle` includes any wait for a busy
    /// cluster, unlike `report.makespan_cycles`).
    pub finish_cycle: u64,
    /// The analytical answer, when the job ran on the estimate backend,
    /// or the (calibrated) admission estimate for native jobs.
    pub estimate: Option<JobEstimate>,
    /// Which backend produced this result.
    pub backend: BackendKind,
}

/// Result of draining a whole queue.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-job results in submission order.
    pub results: Vec<JobResult>,
    /// The batch window: the simulated jobs' per-cluster deltas, and
    /// the makespan from the first simulated shard's start to the last
    /// one's retire (in the barriered oracle, the jobs back to back).
    pub report: ScaleOutReport,
}

/// What admitting one job did.
#[derive(Debug)]
pub(crate) enum Admitted {
    /// Placed on the farm: its result arrives with a later
    /// [`retire`](ScaleOutExecutor::retire).
    Placed,
    /// Answered inline by the estimate or a native backend.
    Answered(JobResult),
}

/// The error of a job a cluster kill left with no live cluster to run
/// its shards on.
pub(crate) fn lost_job() -> SchedError {
    SchedError::Capacity("a cluster kill left no live cluster to run the job's shards".into())
}

/// The multi-cluster scheduler/executor.
#[derive(Debug)]
pub struct ScaleOutExecutor {
    config: ScaleOutConfig,
    sim: SimulatorBackend,
    model: AnalyticalBackend,
    native_fast: NativeHost,
    native_exact: NativeHost,
    /// Measured-duration feedback of the farm's retired shards.
    table: DurationTable,
}

impl ScaleOutExecutor {
    /// Builds `config.clusters` independent clusters plus the
    /// analytical model and the native host backends of the same
    /// system.
    ///
    /// # Panics
    ///
    /// Panics when `config.clusters` is zero.
    #[must_use]
    pub fn new(config: ScaleOutConfig) -> Self {
        assert!(config.clusters > 0, "need at least one cluster");
        Self {
            config,
            sim: SimulatorBackend::new(config),
            model: AnalyticalBackend::new(&config),
            native_fast: NativeHost::fast(&config),
            native_exact: NativeHost::exact(&config),
            table: DurationTable::new(),
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.config.clusters
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> &ScaleOutConfig {
        &self.config
    }

    /// Counter totals over every shard the farm has retired.
    #[must_use]
    pub fn perf_totals(&self) -> PerfSnapshot {
        self.sim.farm().perf_totals()
    }

    /// The simulator backend: the farm's state and counters.
    pub(crate) fn sim(&self) -> &SimulatorBackend {
        &self.sim
    }

    /// The fallible half of admission for a checked `job`: every
    /// planning step that can reject it, committing nothing. `Some`
    /// carries the tiled plan of a farm job; `None` marks a job
    /// answered inline.
    fn plan(&self, job: &Job, checked: Checked) -> Result<Option<TiledJob>, SchedError> {
        match (job.opts.backend, &job.kind) {
            (BackendKind::Simulate, _) => self.sim.plan(job, checked, &self.table).map(Some),
            (BackendKind::NativeFast | BackendKind::NativeExact, JobKind::Raw(_)) => {
                Err(SchedError::Shape(
                    "raw NTX command streams have no native lowering; \
                     submit them with BackendKind::Simulate"
                        .into(),
                ))
            }
            _ => Ok(None),
        }
    }

    /// The commit half: places a [`plan`](Self::plan)ned farm job on
    /// the least-loaded clusters, shedding it when `deadline_cycles`
    /// is provably unmeetable, or answers an inline job.
    fn commit(
        &mut self,
        job: &Job,
        checked: Checked,
        tiled: Option<TiledJob>,
        deadline_cycles: Option<u64>,
    ) -> Result<Admitted, SchedError> {
        let answer = match (tiled, job.opts.backend) {
            (Some(tiled), _) => {
                self.sim.place(job, checked, tiled, deadline_cycles)?;
                return Ok(Admitted::Placed);
            }
            (None, BackendKind::NativeFast) => self.native_fast.run(job, checked),
            (None, BackendKind::NativeExact) => self.native_exact.run(job, checked),
            (None, _) => self.model.run(job, checked),
        };
        Ok(Admitted::Answered(answer))
    }

    /// Admits one checked job: a simulated job is placed on the
    /// running farm (or shed when its `deadline_cycles` is provably
    /// unmeetable); an estimate or native job is answered inline.
    pub(crate) fn admit(&mut self, job: &Job, checked: Checked) -> Result<Admitted, SchedError> {
        let tiled = self.plan(job, checked)?;
        self.commit(job, checked, tiled, job.opts.deadline_cycles)
    }

    /// Retires the next farm shard and folds its measured duration
    /// into the duration table; `None` when the farm is idle.
    pub(crate) fn retire(&mut self) -> Option<ShardRetire> {
        let retire = self.sim.step_farm()?;
        self.table
            .observe(retire.class, retire.est_cycles, retire.cycles);
        Some(retire)
    }

    /// Ids of the jobs a cluster kill failed since the last call (see
    /// [`ClusterFarm::take_lost`](crate::ClusterFarm::take_lost)).
    pub(crate) fn take_lost(&mut self) -> Vec<u64> {
        self.sim.take_lost()
    }

    /// Checks `job`, shards it across **all** live clusters, plan `i`
    /// on the `i`-th (the strong-scaling path; queued jobs get graded
    /// subsets instead), runs it to completion, and assembles the
    /// output. Its shards teach the duration table nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`Job::validate`] and tiler errors;
    /// [`SchedError::Capacity`] when a kill leaves no cluster to run
    /// the job.
    pub fn run_job(&mut self, job: &Job) -> Result<JobResult, SchedError> {
        let checked = job.validate()?;
        self.sim.place_full_width(job, checked)?;
        let mut done = None;
        while let Some(retire) = self.retire() {
            done = done.or(retire.result);
        }
        self.take_lost();
        done.ok_or_else(lost_job)
    }

    /// Drains the queue through the farm. Every job is checked and
    /// planned first — sized and tiled — so a bad submission fails the
    /// whole batch before any simulation time is spent, with the queue
    /// intact and nothing placed; errors name the offending job. The
    /// jobs are then all admitted, in submission order, before the
    /// first shard retires, and the farm is drained. Results come back
    /// in submission order.
    ///
    /// Admission goes through the same path as the
    /// [`Server`](crate::Server)'s, with two differences: `priority` is
    /// ignored (the server orders each admission group by it), and a
    /// batch sheds nothing on virtual-cycle deadlines. Because every
    /// job is admitted up front, a dependency edge could not hold a
    /// job back: a job with [`deps`](Job::deps) is rejected. Submit
    /// job DAGs to a `Server`.
    ///
    /// # Errors
    ///
    /// [`SchedError::Job`] wrapping the first admission failure (a
    /// job with dependency edges fails with [`SchedError::Shape`]), or
    /// naming a job a cluster kill left with no live cluster
    /// ([`SchedError::Capacity`]).
    pub fn run_queue(&mut self, queue: &mut JobQueue) -> Result<BatchResult, SchedError> {
        let named = |job: &Job, e: SchedError| SchedError::Job {
            id: job.id,
            label: job.label.clone(),
            source: Box::new(e),
        };
        let plans = queue
            .iter()
            .map(|job| match job.deps.first() {
                Some(dep) => Err(named(
                    job,
                    SchedError::Shape(format!(
                        "dependency edge on job {dep}: run_queue admits every job \
                         before the first retires; serve job DAGs through a Server"
                    )),
                )),
                None => job
                    .validate()
                    .and_then(|checked| Ok((checked, self.plan(job, checked)?)))
                    .map_err(|e| named(job, e)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut results: Vec<Option<JobResult>> = Vec::with_capacity(plans.len());
        // Farm jobs by id: their result slot and label. A committed job
        // is dropped at once — its plans hold the data the farm needs.
        let mut placed = std::collections::HashMap::new();
        for (slot, (checked, tiled)) in plans.into_iter().enumerate() {
            let job = queue.pop().expect("one queued job per plan");
            // Every check ran in the plan pass and a batch sheds
            // nothing, so no commit fails.
            match self
                .commit(&job, checked, tiled, None)
                .map_err(|e| named(&job, e))?
            {
                Admitted::Placed => {
                    placed.insert(job.id, (slot, job.label));
                    results.push(None);
                }
                Admitted::Answered(answer) => results.push(Some(answer)),
            }
        }
        while let Some(retire) = self.retire() {
            if let Some(done) = retire.result {
                let (slot, _) = placed[&done.job_id];
                results[slot] = Some(done);
            }
        }
        if let Some(&id) = self.take_lost().first() {
            let (_, label) = &placed[&id];
            return Err(SchedError::Job {
                id,
                label: label.clone(),
                source: Box::new(lost_job()),
            });
        }
        let results: Vec<JobResult> = results
            .into_iter()
            .map(|r| r.expect("every admitted job retires"))
            .collect();
        let mut report = ScaleOutReport::new(self.config.clusters, self.config.cluster.ntx_freq_hz);
        let (mut first, mut last) = (u64::MAX, 0);
        for r in results
            .iter()
            .filter(|r| r.backend == BackendKind::Simulate)
        {
            for (total, delta) in report.per_cluster.iter_mut().zip(&r.report.per_cluster) {
                total.accumulate(delta);
            }
            first = first.min(r.start_cycle);
            last = last.max(r.finish_cycle);
        }
        report.makespan_cycles = last.saturating_sub(first);
        Ok(BatchResult { results, report })
    }
}

/// Convenience entry point: runs one job on an `n`-cluster system and
/// returns its result.
///
/// # Errors
///
/// Propagates [`SchedError`] from planning.
pub fn run_sharded(job: &Job, clusters: usize) -> Result<JobResult, SchedError> {
    ScaleOutExecutor::new(ScaleOutConfig::with_clusters(clusters)).run_job(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use crate::job::RawJob;
    use ntx_isa::{AguConfig, Command, LoopNest, NtxConfig, OperandSelect};
    use ntx_kernels::blas::GemmKernel;
    use ntx_kernels::conv::Conv2dKernel;
    use ntx_kernels::reference;

    fn data(n: usize, mut seed: u32) -> Vec<f32> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 17;
                seed ^= seed << 5;
                ((seed % 64) as f32 - 32.0) / 16.0
            })
            .collect()
    }

    fn job(kind: JobKind) -> Job {
        Job::new(0, "test", kind)
    }

    #[test]
    fn axpy_sharded_matches_reference_and_single() {
        let n = 3000usize;
        let x = data(n, 7);
        let y = data(n, 11);
        let kind = JobKind::Axpy {
            a: 1.5,
            x: x.clone(),
            y: y.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).unwrap();
        let wide = run_sharded(&job(kind), 4).unwrap();
        let mut expect = y;
        reference::axpy(1.5, &x, &mut expect);
        assert_eq!(single.output, expect);
        assert_eq!(wide.output, expect);
        assert!(wide.report.makespan_cycles < single.report.makespan_cycles);
    }

    #[test]
    fn gemm_sharded_matches_reference_and_single() {
        let (m, k, n) = (24u32, 12u32, 9u32);
        let a = data((m * k) as usize, 3);
        let b = data((k * n) as usize, 5);
        let kind = JobKind::Gemm {
            dims: GemmKernel { m, k, n },
            a: a.clone(),
            b: b.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).unwrap();
        let wide = run_sharded(&job(kind), 3).unwrap();
        let expect = reference::gemm(&a, &b, m as usize, k as usize, n as usize);
        assert_eq!(single.output, expect);
        assert_eq!(wide.output, expect);
    }

    #[test]
    fn conv_sharded_matches_reference_and_single() {
        let kernel = Conv2dKernel {
            height: 34,
            width: 21,
            k: 3,
            filters: 2,
        };
        let image = data((kernel.height * kernel.width) as usize, 13);
        let weights = data((kernel.k * kernel.k * kernel.filters) as usize, 17);
        let kind = JobKind::Conv2d {
            kernel,
            image: image.clone(),
            weights: weights.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).unwrap();
        let wide = run_sharded(&job(kind), 4).unwrap();
        let (oh, ow) = (kernel.out_height() as usize, kernel.out_width() as usize);
        for f in 0..kernel.filters as usize {
            let expect = reference::conv2d(
                &image,
                kernel.height as usize,
                kernel.width as usize,
                &weights[f * 9..(f + 1) * 9],
                3,
            );
            assert_eq!(&single.output[f * oh * ow..(f + 1) * oh * ow], &expect[..]);
            assert_eq!(&wide.output[f * oh * ow..(f + 1) * oh * ow], &expect[..]);
        }
        assert!(wide.report.makespan_cycles < single.report.makespan_cycles);
    }

    #[test]
    fn stencil_sharded_matches_reference_and_single() {
        let (h, w) = (40u32, 23u32);
        let grid = data((h * w) as usize, 29);
        let kind = JobKind::Stencil2d {
            height: h,
            width: w,
            grid: grid.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).unwrap();
        let wide = run_sharded(&job(kind), 4).unwrap();
        let expect = reference::laplace2d(&grid, h as usize, w as usize);
        for (i, (g, e)) in single.output.iter().zip(&expect).enumerate() {
            assert!(
                (g - e).abs() <= 1e-3 * e.abs().max(1.0),
                "element {i}: {g} vs {e}"
            );
        }
        // Sharding must not change a single bit.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&single.output), bits(&wide.output));
        assert!(wide.report.makespan_cycles < single.report.makespan_cycles);
    }

    #[test]
    fn raw_job_runs_on_one_cluster() {
        let cfg = NtxConfig::builder()
            .command(Command::Mac {
                operand: OperandSelect::Memory,
            })
            .loops(LoopNest::vector(4))
            .agu(0, AguConfig::stream(0x000, 4))
            .agu(1, AguConfig::stream(0x100, 4))
            .agu(2, AguConfig::fixed(0x200))
            .build()
            .unwrap();
        let kind = JobKind::Raw(RawJob {
            config: cfg,
            tcdm: vec![
                (0x000, vec![1.0, 2.0, 3.0, 4.0]),
                (0x100, vec![4.0, 3.0, 2.0, 1.0]),
            ],
            result_addr: 0x200,
            result_len: 1,
        });
        let r = run_sharded(&job(kind), 4).unwrap();
        assert_eq!(r.output, vec![20.0]);
        // Exactly one cluster did work.
        let active = r.report.per_cluster.iter().filter(|p| p.flops > 0).count();
        assert_eq!(active, 1);
    }

    fn two_job_queue() -> JobQueue {
        let mut q = JobQueue::new();
        q.job("axpy").axpy(2.0, data(500, 1), data(500, 2)).submit();
        q.job("gemm")
            .gemm(GemmKernel { m: 8, k: 8, n: 8 }, data(64, 3), data(64, 4))
            .submit();
        q
    }

    #[test]
    fn queue_runs_jobs_in_order_and_pipelining_beats_the_barrier() {
        // The farm space-shares the two small jobs across the two
        // clusters: the batch window overlaps them, so it is shorter
        // than the barriered accounting of the same per-job windows —
        // their back-to-back sum.
        let mut exec = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(2));
        let batch = exec.run_queue(&mut two_job_queue()).unwrap();
        let labels: Vec<&str> = batch.results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["axpy", "gemm"]);
        let barriered: u64 = batch.results.iter().map(|r| r.report.makespan_cycles).sum();
        assert!(batch.report.makespan_cycles < barriered);
        assert_eq!(
            batch.report.makespan_cycles,
            batch.results.iter().map(|r| r.finish_cycle).max().unwrap()
        );
        assert!(batch.report.total_flops() > 0);
        assert!(batch.report.dma_occupancy() > 0.0);
    }

    #[test]
    fn estimate_backend_answers_without_simulating() {
        let mut exec = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(2));
        let mut q = JobQueue::new();
        q.job("axpy-estimate")
            .axpy(2.0, data(4096, 5), data(4096, 6))
            .estimate()
            .submit();
        q.job("axpy-simulated")
            .axpy(2.0, data(256, 7), data(256, 8))
            .submit();
        let batch = exec.run_queue(&mut q).unwrap();
        let est = &batch.results[0];
        assert!(est.output.is_empty());
        let e = est.estimate.expect("analytical job carries its estimate");
        assert!(e.cycles > 0 && !e.compute_bound);
        assert_eq!(est.report.makespan_cycles, e.cycles);
        // The simulated job produced data on one cluster, and the farm
        // retired nothing else: the estimate spent no simulator cycles.
        let sim = &batch.results[1];
        assert_eq!(sim.output.len(), 256);
        assert!(sim.estimate.is_none());
        let active = sim.report.per_cluster.iter().filter(|p| p.cycles > 0);
        assert_eq!(active.count(), 1);
        let sim_cycles: u64 = sim.report.per_cluster.iter().map(|p| p.cycles).sum();
        assert_eq!(exec.perf_totals().cycles, sim_cycles);
    }

    #[test]
    fn bad_job_fails_batch_upfront_and_names_the_job() {
        let mut exec = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(2));
        let mut q = JobQueue::new();
        q.job("good").axpy(1.0, data(64, 1), data(64, 2)).submit();
        let bad_id = q
            .job("mismatched")
            .axpy(1.0, data(64, 3), data(32, 4))
            .submit();
        let err = exec.run_queue(&mut q).unwrap_err();
        match err {
            SchedError::Job { id, label, source } => {
                assert_eq!(id, bad_id);
                assert_eq!(label, "mismatched");
                assert!(matches!(*source, SchedError::Shape(_)));
            }
            other => panic!("expected SchedError::Job, got {other:?}"),
        }
        // Pre-validation failed before any job ran: the queue is intact.
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn dependency_edges_are_rejected_not_ignored() {
        // Admitted up front, the dependent would start at cycle 0 on an
        // idle cluster, long before its predecessor finishes: the edge
        // is refused instead of silently ignored.
        let mut exec = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(4));
        let mut q = JobQueue::new();
        let first = q
            .job("first")
            .axpy(1.0, data(2000, 1), data(2000, 2))
            .submit();
        let dependent = q
            .job("dependent")
            .axpy(1.0, data(64, 3), data(64, 4))
            .after_id(first)
            .submit();
        match exec.run_queue(&mut q) {
            Err(SchedError::Job { id, label, source }) => {
                assert_eq!((id, label.as_str()), (dependent, "dependent"));
                assert!(matches!(*source, SchedError::Shape(_)), "{source:?}");
            }
            other => panic!("expected SchedError::Job, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(exec.perf_totals().cycles, 0);
    }

    /// A raw job whose 32-byte result window starts 16 bytes before the
    /// end of the TCDM: valid in shape, rejected at tiling.
    fn raw_window_past_tcdm() -> JobKind {
        let cfg = NtxConfig::builder()
            .command(Command::Mac {
                operand: OperandSelect::Memory,
            })
            .loops(LoopNest::vector(2))
            .agu(0, AguConfig::stream(0x000, 4))
            .agu(1, AguConfig::stream(0x100, 4))
            .agu(2, AguConfig::fixed(0x200))
            .build()
            .unwrap();
        JobKind::Raw(RawJob {
            config: cfg,
            tcdm: vec![(0x000, vec![1.0, 2.0])],
            result_addr: 0xfff0,
            result_len: 8,
        })
    }

    #[test]
    fn raw_job_window_outside_tcdm_rejected() {
        // TCDM addresses wrap at capacity, so an out-of-range result
        // window must be rejected at planning time, not read aliased.
        // 32 B requested at 0xfff0 with 16 B left: a typed error that
        // names the sizes, not a stringly capacity failure.
        match run_sharded(&job(raw_window_past_tcdm()), 1) {
            Err(SchedError::PlanTooLarge {
                what,
                requested,
                available,
                suggested_passes,
            }) => {
                assert_eq!(what, "raw job result window");
                assert_eq!(requested, 32);
                assert_eq!(available, 16);
                assert_eq!(suggested_passes, 2);
            }
            other => panic!("expected PlanTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn failed_run_queue_leaves_nothing_behind() {
        // The last job fails at tiling, after every earlier job was
        // planned: the call names it, keeps the queue, and places
        // nothing — the next queue runs exactly as on a fresh farm.
        let mut exec = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(2));
        let mut bad = two_job_queue();
        let bad_id = bad.job("raw").kind(raw_window_past_tcdm()).submit();
        match exec.run_queue(&mut bad) {
            Err(SchedError::Job { id, source, .. }) => {
                assert_eq!(id, bad_id);
                assert!(matches!(*source, SchedError::PlanTooLarge { .. }));
            }
            other => panic!("expected SchedError::Job, got {other:?}"),
        }
        assert_eq!(bad.len(), 3);
        let after = exec.run_queue(&mut two_job_queue()).unwrap();
        let mut fresh = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(2));
        let expect = fresh.run_queue(&mut two_job_queue()).unwrap();
        for (a, e) in after.results.iter().zip(&expect.results) {
            assert_eq!(a.output, e.output);
            assert_eq!(a.report.per_cluster, e.report.per_cluster);
            assert_eq!(a.report.makespan_cycles, e.report.makespan_cycles);
            assert_eq!(
                (a.start_cycle, a.finish_cycle),
                (e.start_cycle, e.finish_cycle)
            );
        }
        assert_eq!(after.report.makespan_cycles, expect.report.makespan_cycles);
        assert_eq!(exec.perf_totals(), fresh.perf_totals());
    }

    #[test]
    fn kill_of_the_last_cluster_fails_the_batch_naming_the_job() {
        let faults = ntx_sim::FaultPlan::NONE.with_seed(1).with_kill(0, 100);
        let config = ScaleOutConfig::with_clusters(1).with_faults(faults);
        let mut exec = ScaleOutExecutor::new(config);
        let mut q = JobQueue::new();
        let doomed = q
            .job("doomed")
            .axpy(1.0, data(2000, 1), data(2000, 2))
            .submit();
        match exec.run_queue(&mut q) {
            Err(SchedError::Job { id, source, .. }) => {
                assert_eq!(id, doomed);
                assert!(matches!(*source, SchedError::Capacity(_)));
            }
            other => panic!("expected SchedError::Job, got {other:?}"),
        }
        let late = job(JobKind::Axpy {
            a: 1.0,
            x: data(64, 3),
            y: data(64, 4),
        });
        assert!(matches!(exec.run_job(&late), Err(SchedError::Capacity(_))));
    }

    #[test]
    fn oversized_axpy_shard_rejected_not_corrupted() {
        // A shard whose x operand would overrun the 16 MB region pitch
        // must be a Capacity error, not silent aliasing.
        let n = 5_000_000usize;
        let kind = JobKind::Axpy {
            a: 1.0,
            x: vec![0.0; n],
            y: vec![0.0; n],
        };
        assert!(matches!(
            run_sharded(&job(kind), 1),
            Err(SchedError::Capacity(_))
        ));
    }

    #[test]
    fn oversized_gemm_shard_streams_in_split_tiles() {
        // 1 cluster: A + padded B + C need ~110 kB, over the 64 kB
        // TCDM — the shard streams as M/N output tiles instead of
        // being rejected, and the result still matches exactly (the
        // data is dyadic and small, so both sums are exact).
        let (a, b) = (data(96 * 96, 1), data(96 * 96, 2));
        let kind = JobKind::Gemm {
            dims: GemmKernel {
                m: 96,
                k: 96,
                n: 96,
            },
            a: a.clone(),
            b: b.clone(),
        };
        let r = run_sharded(&job(kind), 1).unwrap();
        let expect = reference::gemm(&a, &b, 96, 96, 96);
        assert_eq!(r.output, expect);
    }

    #[test]
    fn deep_gemm_splits_k_and_matches_sharded_run() {
        // k = 6000 exceeds even a resident 8-row band of A, forcing
        // split-K accumulation passes; sharding across clusters must
        // not change a bit either.
        let (m, k, n) = (8u32, 6000u32, 4u32);
        let (a, b) = (data((m * k) as usize, 3), data((k * n) as usize, 4));
        let kind = JobKind::Gemm {
            dims: GemmKernel { m, k, n },
            a: a.clone(),
            b: b.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).unwrap();
        let wide = run_sharded(&job(kind), 2).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&single.output), bits(&wide.output));
        // The wide accumulator rounds once at the very end, so even a
        // 6000-term sum stays close to the f32 reference.
        let expect = reference::gemm(&a, &b, m as usize, k as usize, n as usize);
        for (g, e) in single.output.iter().zip(&expect) {
            assert!((g - e).abs() <= 1e-2 * e.abs().max(1.0), "{g} vs {e}");
        }
    }
}
