//! Multi-cluster scale-out scheduler and serving stack for the NTX
//! reproduction.
//!
//! The DATE 2019 paper evaluates a single 8-engine cluster; its
//! companion work ("A Scalable Near-Memory Architecture for Training
//! Deep Neural Networks on Large In-Memory Datasets", Schuiki et al.,
//! 2018) scales that cluster across the vaults of a Hybrid Memory
//! Cube. This crate models that scale-out step as a layered serving
//! runtime:
//!
//! * **Jobs** — [`Job`]/[`JobQueue`] accept kernel descriptors from
//!   `ntx-kernels` (GEMM, 2-D convolution, AXPY, 2-D Laplace stencil)
//!   plus raw [`ntx_isa::NtxConfig`] commands, each with [`JobOpts`]
//!   (backend selection, priority, deadline) set through the job
//!   builder. [`Job::validate`] is the one check: it runs once where a
//!   job enters — the [`Server`] on receipt,
//!   [`ScaleOutExecutor::run_queue`] and [`ScaleOutExecutor::run_job`],
//!   [`Tiler::plan`], [`SimulatorBackend::admit_continuous_within`]
//!   and [`Placement::replay`] — and returns the [`Checked`] output
//!   length and cost that every planner behind it takes instead of
//!   checking again;
//! * **Backends** — [`SimulatorBackend`] executes bit-accurately
//!   through the cycle simulator's burst API, the estimate backend
//!   ([`BackendKind::Estimate`]) answers instantly from `ntx-model`'s
//!   roofline estimates, and the native backends
//!   ([`BackendKind::NativeFast`], [`BackendKind::NativeExact`])
//!   execute on the host CPU at wire speed — fast multi-accumulator
//!   reduction or a Kulisch exact mode bit-identical to the simulator
//!   — selectable per job;
//! * **Executor** — [`ScaleOutExecutor`] owns one of each backend and
//!   the measured-duration [`DurationTable`], and is the one queue
//!   runner: every checked job is planned (sized to a graded cluster
//!   subset, tiled), then either placed on the farm or answered
//!   inline, and each retired shard feeds the table. The [`Server`]
//!   and [`ScaleOutExecutor::run_queue`] drive it alike;
//! * **Farm** — the [`ClusterFarm`] drives N independent clusters by
//!   burst events with no per-job barrier: each cluster starts its
//!   next shard the cycle its previous one retires, and small jobs
//!   space-share disjoint cluster subsets. Per-job outputs and
//!   [`ntx_sim::PerfSnapshot`]s stay **bit-identical** to the
//!   barriered [`ClusterFarm::run_batch`] replay of the same
//!   placement, which is kept as the differential oracle;
//! * **Memory** — [`ScaleOutConfig::memory`] selects the
//!   external-memory model: ideal private memories, or an HMC mesh
//!   ([`MemoryModel::HmcMesh`]) whose per-cube vault/LoB bandwidth the
//!   attached clusters' DMAs draw from through a deterministic
//!   per-cycle slot schedule, with serial-link costs for off-cube
//!   traffic. One shared cube is a 1-cube mesh. Scale-out then shows
//!   the companion paper's memory-bound saturation, while data
//!   outputs stay bit-identical to the ideal runs;
//! * **Tiling** — the [`Tiler`] shards each job into per-cluster tiles
//!   sized to the TCDM, reusing the engine-level `split_work` rule so
//!   every shard computes exactly what the single-cluster lowering
//!   would, and a [`TilePipeline`] per cluster runs the §II-E
//!   double-buffered DMA schedule;
//! * **Serving** — the [`Server`] runs the farm as a persistent
//!   service: clients hold cloneable [`Session`]s and submit through
//!   the fluent [`JobBuilder`]; every job is checked on receipt, then
//!   planned and placed onto the least-loaded clusters the moment it
//!   is ready — sized to graded cluster subsets by a measured-duration
//!   [`DurationTable`] (EWMA of actual cluster-cycles, seeded by
//!   roofline estimates) — and its completion is delivered the shard
//!   event its last shard retires;
//! * **Reports** — [`ScaleOutReport`] aggregates cycles, stalls, DMA
//!   occupancy and — through `ntx-model` — energy and Gflop/s/W;
//!   [`ServingReport`] rolls up a server run (jobs/s, latency,
//!   occupancy).
//!
//! # Example
//!
//! ```
//! use ntx_kernels::blas::GemmKernel;
//! use ntx_sched::{BackendKind, Server, ServerConfig};
//! use std::time::Duration;
//!
//! let server = Server::start(ServerConfig::with_clusters(4));
//! let session = server.session();
//! // Bit-accurate simulation on the farm, with serving options.
//! let gemm = session
//!     .job("gemm 16x16x16")
//!     .gemm(GemmKernel { m: 16, k: 16, n: 16 }, vec![1.0; 256], vec![0.5; 256])
//!     .priority(2)
//!     .deadline(Duration::from_secs(60))
//!     .submit()?;
//! // The same session serves instant analytical estimates.
//! let estimate = session
//!     .job("gemm estimate")
//!     .gemm(
//!         GemmKernel { m: 512, k: 512, n: 512 },
//!         vec![1.0; 512 * 512],
//!         vec![0.5; 512 * 512],
//!     )
//!     .backend(BackendKind::Estimate)
//!     .submit()?;
//! assert_eq!(gemm.wait()?.result.unwrap().output[0], 8.0); // 16 * 1.0 * 0.5
//! assert!(estimate.wait()?.result.unwrap().estimate.unwrap().cycles > 0);
//! let report = server.shutdown();
//! assert_eq!(report.jobs, 2);
//! # Ok::<(), ntx_sched::SchedError>(())
//! ```
//!
//! The same builder enqueues into a [`JobQueue`] for the synchronous
//! [`ScaleOutExecutor::run_queue`]:
//! `queue.job("axpy").axpy(a, x, y).submit()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod executor;
pub mod farm;
pub mod job;
pub mod pipeline;
pub mod report;
pub mod server;
pub mod session;
pub mod tiler;

pub use backend::{BackendKind, DurationTable, JobEstimate, Placement, SimulatorBackend};
pub use executor::{run_sharded, BatchResult, JobResult, ScaleOutConfig, ScaleOutExecutor};
pub use farm::{
    resolve_worker_threads, ClusterFarm, FaultStats, JobMeta, PlacedJob, PoolStats, ShardRetire,
};
pub use job::{Checked, Job, JobClass, JobKind, JobOpts, JobQueue, RawJob};
pub use ntx_mem::{HmcConfig, HmcMesh, MemoryModel, MeshConfig};
pub use ntx_sim::{ClusterKill, FaultPlan, LinkFault, StallSpec};
pub use pipeline::TilePipeline;
pub use report::{ScaleOutReport, ServingReport};
pub use server::{Completion, JobHandle, Server, ServerConfig};
pub use session::{JobBuilder, JobSink, ReadyJob, Session};
pub use tiler::{ClusterPlan, Readback, ReadbackSource, Tiler};

use ntx_isa::ConfigError;

/// Errors of the scheduling layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// Job data inconsistent with its descriptor.
    Shape(String),
    /// A shard cannot fit the TCDM even at the minimum tile size.
    Capacity(String),
    /// A single non-tileable window — a raw job's TCDM preload or
    /// result window — exceeds what the TCDM can hold, so no sharding
    /// or tiling can help. Carries the sizes and how many passes an
    /// explicit split by the submitter would need.
    PlanTooLarge {
        /// What was being placed (e.g. `"raw job preload"`).
        what: &'static str,
        /// Bytes the window needs.
        requested: u64,
        /// Bytes available at the requested address.
        available: u64,
        /// `ceil(requested / available)`: the minimum number of
        /// windows an explicit split would need.
        suggested_passes: u32,
    },
    /// The kernel lowering, or the ISA's check of a raw job's
    /// command, rejected a configuration.
    Lowering(ConfigError),
    /// A job in a batch failed; identifies the submission so callers
    /// know which job to fix.
    Job {
        /// Queue-assigned id of the failing job.
        id: u64,
        /// Submission label of the failing job.
        label: String,
        /// The underlying failure.
        source: Box<SchedError>,
    },
    /// The serving front-end has shut down (submission rejected or a
    /// completion channel closed).
    Shutdown,
    /// The server's bounded admission queue is full: the submission
    /// was rejected instead of growing the backlog without bound.
    /// Retry later, or use the blocking
    /// [`submit_wait`](session::ReadyJob::submit_wait) variant.
    Backpressure {
        /// The configured admission-queue capacity that was hit.
        limit: usize,
    },
    /// The job was parked on a dependency edge whose predecessor never
    /// completed before the server shut down — the predecessor id was
    /// never submitted, or was itself parked on an unsatisfied edge.
    /// Carries one of the unfinished predecessor ids so the client can
    /// see which edge was left dangling.
    DependencyDropped {
        /// An unfinished predecessor the job was still waiting for.
        dep: u64,
    },
    /// Deadline-aware shedding rejected the job at admission: the
    /// placement estimate already proves its virtual-cycle deadline
    /// cannot be met, so simulating it would only burn farm time that
    /// meetable jobs need.
    DeadlineUnmeetable {
        /// Estimated completion, cycles from the farm's virtual now.
        estimated_cycles: u64,
        /// The deadline it would miss.
        deadline_cycles: u64,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Shape(m) => write!(f, "shape error: {m}"),
            SchedError::Capacity(m) => write!(f, "capacity error: {m}"),
            SchedError::PlanTooLarge {
                what,
                requested,
                available,
                suggested_passes,
            } => write!(
                f,
                "{what} needs {requested} B but only {available} B are available; \
                 split it into at least {suggested_passes} passes"
            ),
            SchedError::Lowering(e) => write!(f, "lowering error: {e:?}"),
            SchedError::Job { id, label, source } => {
                write!(f, "job {id} ({label}): {source}")
            }
            SchedError::Shutdown => write!(f, "serving front-end has shut down"),
            SchedError::Backpressure { limit } => {
                write!(f, "admission queue full ({limit} submissions pending)")
            }
            SchedError::DependencyDropped { dep } => write!(
                f,
                "dependency edge left dangling: predecessor {dep} never completed \
                 before shutdown"
            ),
            SchedError::DeadlineUnmeetable {
                estimated_cycles,
                deadline_cycles,
            } => write!(
                f,
                "deadline unmeetable: estimated {estimated_cycles} cycles to completion, \
                 deadline in {deadline_cycles}"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

impl From<ConfigError> for SchedError {
    fn from(e: ConfigError) -> Self {
        SchedError::Lowering(e)
    }
}
