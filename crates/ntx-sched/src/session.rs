//! The client-facing submission API: persistent sessions and the
//! fluent job builder.
//!
//! A [`Session`] is a cheap, cloneable connection to a running
//! [`Server`](crate::Server) — the always-on farm of the companion
//! paper's HMC substrate. All submission surfaces funnel through one
//! fluent [`JobBuilder`]:
//!
//! ```
//! use ntx_kernels::blas::GemmKernel;
//! use ntx_sched::{Server, ServerConfig};
//! use std::time::Duration;
//!
//! let server = Server::start(ServerConfig::with_clusters(2));
//! let session = server.session();
//! let handle = session
//!     .job("gemm 16")
//!     .gemm(GemmKernel { m: 16, k: 16, n: 16 }, vec![1.0; 256], vec![0.5; 256])
//!     .priority(2)
//!     .deadline(Duration::from_secs(60))
//!     .submit()?;
//! let done = handle.wait()?;
//! assert_eq!(done.result.unwrap().output[0], 8.0);
//! let report = server.shutdown();
//! assert_eq!(report.jobs, 1);
//! # Ok::<(), ntx_sched::SchedError>(())
//! ```
//!
//! The same builder submits into a plain [`JobQueue`] for the
//! synchronous executor — the builder is generic over its [`JobSink`],
//! so `queue.job("axpy").axpy(a, x, y).submit()` and
//! `session.job("axpy").axpy(a, x, y).submit()` read identically; only
//! the receipt differs (a queue id vs a waitable [`JobHandle`]). The
//! builder is type-state-safe: a job's payload must be chosen (`gemm`
//! / `conv2d` / `axpy` / `stencil2d` / `raw` / `kind`) before serving
//! options and `submit` become available, so "submitted an empty job"
//! is unrepresentable.

use ntx_kernels::blas::GemmKernel;
use ntx_kernels::conv::Conv2dKernel;
use std::time::Duration;

use crate::backend::BackendKind;
use crate::job::{JobKind, JobOpts, JobQueue, RawJob};
use crate::server::{Completion, JobHandle, ServerHandle};
use crate::SchedError;

/// Where a [`JobBuilder`] delivers its finished job. Implemented by
/// `&Session` (submission to the running farm, receipt =
/// `Result<JobHandle>`) and `&mut JobQueue` (enqueue for the
/// synchronous executor, receipt = the job id).
pub trait JobSink {
    /// What the sink hands back at submission.
    type Receipt;
    /// Accepts one fully-specified job, with its predecessor edges.
    fn accept(self, label: String, kind: JobKind, opts: JobOpts, deps: Vec<u64>) -> Self::Receipt;
}

impl JobSink for &mut JobQueue {
    type Receipt = u64;
    fn accept(self, label: String, kind: JobKind, opts: JobOpts, deps: Vec<u64>) -> u64 {
        self.enqueue(label, kind, opts, deps)
    }
}

impl JobSink for &Session {
    type Receipt = Result<JobHandle, SchedError>;
    fn accept(self, label: String, kind: JobKind, opts: JobOpts, deps: Vec<u64>) -> Self::Receipt {
        self.handle.send_handle(label, kind, opts, deps)
    }
}

/// A persistent client connection to a running [`Server`](crate::Server):
/// the entry point of the fluent submission API. Clone it freely — all
/// clones feed the same continuously-admitting farm, and each
/// [`JobBuilder::submit`](ReadyJob::submit) is admitted the moment a
/// cluster can take it, not at the next batch boundary.
#[derive(Debug, Clone)]
pub struct Session {
    pub(crate) handle: ServerHandle,
}

impl Session {
    /// Starts building a job with the given report label.
    pub fn job(&self, label: impl Into<String>) -> JobBuilder<&Session> {
        JobBuilder {
            sink: self,
            label: label.into(),
        }
    }
}

impl JobQueue {
    /// Starts building a job to enqueue; [`ReadyJob::submit`] returns
    /// the queue-assigned id.
    pub fn job(&mut self, label: impl Into<String>) -> JobBuilder<&mut JobQueue> {
        JobBuilder {
            sink: self,
            label: label.into(),
        }
    }
}

/// A job under construction: has a label and a sink, still needs its
/// payload. Every payload method moves to [`ReadyJob`], where serving
/// options and submission live.
#[derive(Debug)]
pub struct JobBuilder<S: JobSink> {
    sink: S,
    label: String,
}

impl<S: JobSink> JobBuilder<S> {
    /// An explicit, pre-built [`JobKind`] payload.
    pub fn kind(self, kind: JobKind) -> ReadyJob<S> {
        ReadyJob {
            sink: self.sink,
            label: self.label,
            kind,
            opts: JobOpts::default(),
            deps: Vec::new(),
        }
    }

    /// `C = A*B` with row-major `a` (`m x k`) and `b` (`k x n`).
    pub fn gemm(self, dims: GemmKernel, a: Vec<f32>, b: Vec<f32>) -> ReadyJob<S> {
        self.kind(JobKind::Gemm { dims, a, b })
    }

    /// Multi-filter 2-D convolution of `image` with `weights`.
    pub fn conv2d(self, kernel: Conv2dKernel, image: Vec<f32>, weights: Vec<f32>) -> ReadyJob<S> {
        self.kind(JobKind::Conv2d {
            kernel,
            image,
            weights,
        })
    }

    /// `y = a*x + y`.
    pub fn axpy(self, a: f32, x: Vec<f32>, y: Vec<f32>) -> ReadyJob<S> {
        self.kind(JobKind::Axpy { a, x, y })
    }

    /// The 2-D discrete Laplace stencil over a `height x width` grid.
    pub fn stencil2d(self, height: u32, width: u32, grid: Vec<f32>) -> ReadyJob<S> {
        self.kind(JobKind::Stencil2d {
            height,
            width,
            grid,
        })
    }

    /// A raw NTX command (see [`RawJob`]).
    pub fn raw(self, raw: RawJob) -> ReadyJob<S> {
        self.kind(JobKind::Raw(raw))
    }
}

/// A fully-specified job: payload chosen, serving options adjustable,
/// ready to [`submit`](ReadyJob::submit).
#[derive(Debug)]
pub struct ReadyJob<S: JobSink> {
    sink: S,
    label: String,
    kind: JobKind,
    opts: JobOpts,
    deps: Vec<u64>,
}

impl<S: JobSink> ReadyJob<S> {
    /// Sets the serving priority (higher runs earlier when several
    /// submissions are pending at once).
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.opts.priority = priority;
        self
    }

    /// Sets a wall-clock completion deadline, measured from submission.
    /// Reporting only — misses are counted, never enforced; see
    /// [`deadline_cycles`](Self::deadline_cycles) for the enforced
    /// variant.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Sets an **enforced** completion deadline in virtual farm
    /// cycles, measured from admission: continuous admission sheds the
    /// job with [`SchedError::DeadlineUnmeetable`] when the placement
    /// estimate already proves the deadline unmeetable, instead of
    /// burning farm time on a guaranteed miss.
    #[must_use]
    pub fn deadline_cycles(mut self, cycles: u64) -> Self {
        self.opts.deadline_cycles = Some(cycles);
        self
    }

    /// Selects the executing backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.opts.backend = backend;
        self
    }

    /// Pins the job's data to mesh cube `cube` (farms running on
    /// [`MemoryModel::HmcMesh`](ntx_mem::MemoryModel::HmcMesh) only;
    /// out-of-range indices wrap, non-mesh farms ignore it). Without
    /// this, jobs spread round-robin over the cubes by id.
    #[must_use]
    pub fn home_cube(mut self, cube: u32) -> Self {
        self.opts.home_cube = Some(cube);
        self
    }

    /// Shorthand for [`backend`](Self::backend)`(BackendKind::Estimate)`:
    /// answer instantly from the roofline model, no simulation.
    #[must_use]
    pub fn estimate(self) -> Self {
        self.backend(BackendKind::Estimate)
    }

    /// Shorthand for [`backend`](Self::backend)`(BackendKind::NativeFast)`:
    /// execute on the host CPU at wire speed with the fast
    /// multi-accumulator reduction.
    #[must_use]
    pub fn native_fast(self) -> Self {
        self.backend(BackendKind::NativeFast)
    }

    /// Shorthand for [`backend`](Self::backend)`(BackendKind::NativeExact)`:
    /// execute on the host CPU with one rounding of each exact sum,
    /// bit-identical to the simulator.
    #[must_use]
    pub fn native_exact(self) -> Self {
        self.backend(BackendKind::NativeExact)
    }

    /// Runs this job only after the job behind `handle` has completed.
    ///
    /// Dependency edges are **ordering-only**: the continuous server
    /// admits this job the event the predecessor's completion is
    /// delivered — whatever its outcome, so a failed predecessor still
    /// releases its dependents (check the predecessor's own
    /// [`Completion`] to react to failures). Chains of `after` calls
    /// accumulate; the job waits for *all* recorded predecessors.
    /// Predecessors that never complete before shutdown fail this job
    /// with [`SchedError::DependencyDropped`]. Edges order the server's
    /// *admission*, not simulated time: an admitted dependent may start
    /// on an idle cluster whose clock is behind its predecessor's
    /// finish cycle. Only the server honors edges;
    /// [`ScaleOutExecutor::run_queue`](crate::ScaleOutExecutor::run_queue)
    /// rejects a [`JobQueue`] job that has them.
    #[must_use]
    pub fn after(mut self, handle: &crate::JobHandle) -> Self {
        self.deps.push(handle.id);
        self
    }

    /// Runs this job only after every job in `handles` has completed
    /// (see [`after`](Self::after) for the edge semantics).
    #[must_use]
    pub fn after_all<'a>(
        mut self,
        handles: impl IntoIterator<Item = &'a crate::JobHandle>,
    ) -> Self {
        self.deps.extend(handles.into_iter().map(|h| h.id));
        self
    }

    /// Records a predecessor by raw submission id — for callers that
    /// kept the id of a callback submission instead of a [`JobHandle`]
    /// (see [`after`](Self::after) for the edge semantics). An id that
    /// is never submitted parks the job until shutdown fails it with
    /// [`SchedError::DependencyDropped`].
    #[must_use]
    pub fn after_id(mut self, id: u64) -> Self {
        self.deps.push(id);
        self
    }

    /// Submits the job to the sink and returns its receipt: a
    /// [`JobHandle`] from a [`Session`], the job id from a
    /// [`JobQueue`].
    pub fn submit(self) -> S::Receipt {
        self.sink
            .accept(self.label, self.kind, self.opts, self.deps)
    }
}

impl ReadyJob<&Session> {
    /// Submits the job with completion delivered to `callback` on the
    /// server's worker thread instead of a handle; returns the
    /// submission id.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shutdown`] when the server is no longer running,
    /// [`SchedError::Backpressure`] when its bounded admission queue
    /// is full.
    pub fn submit_callback(
        self,
        callback: impl FnOnce(Completion) + Send + 'static,
    ) -> Result<u64, SchedError> {
        self.sink
            .handle
            .send_callback(self.label, self.kind, self.opts, self.deps, callback)
    }

    /// Blocking variant of [`submit`](Self::submit): when the server's
    /// bounded admission queue is full, waits for a slot instead of
    /// returning [`SchedError::Backpressure`] — the closed-loop
    /// client's natural submission call.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shutdown`] when the server is no longer running.
    pub fn submit_wait(self) -> Result<crate::JobHandle, SchedError> {
        self.sink
            .handle
            .send_handle_wait(self.label, self.kind, self.opts, self.deps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_builder_enqueues_with_options() {
        let mut q = JobQueue::new();
        let id = q
            .job("axpy")
            .axpy(2.0, vec![1.0; 8], vec![0.0; 8])
            .priority(3)
            .deadline(Duration::from_secs(5))
            .home_cube(2)
            .estimate()
            .submit();
        assert_eq!(id, 0);
        let job = q.pop().unwrap();
        assert_eq!(job.label, "axpy");
        assert_eq!(job.opts.priority, 3);
        assert_eq!(job.opts.deadline, Some(Duration::from_secs(5)));
        assert_eq!(job.opts.home_cube, Some(2));
        assert_eq!(job.opts.backend, BackendKind::Estimate);
    }

    #[test]
    fn mesh_homes_round_robin_by_default() {
        use crate::ClusterFarm;
        use ntx_mem::{MemoryModel, MeshConfig};
        use ntx_sim::ClusterConfig;
        let farm = ClusterFarm::with_memory(
            4,
            ClusterConfig::default(),
            MemoryModel::HmcMesh(MeshConfig::default().with_cubes(2)),
        );
        let mut q = JobQueue::new();
        for i in 0..4 {
            q.job(format!("j{i}"))
                .axpy(1.0, vec![1.0; 4], vec![0.0; 4])
                .submit();
        }
        // An explicit out-of-range cube wraps instead of panicking.
        q.job("pinned")
            .axpy(1.0, vec![1.0; 4], vec![0.0; 4])
            .home_cube(5)
            .submit();
        let homes: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|job| {
                farm.home_cube(job.id, job.opts.home_cube)
                    .expect("mesh farm resolves a home for every job")
            })
            .collect();
        // Unpinned jobs round-robin over the cubes by id; the pinned
        // one (id 4, cube 5) wraps to 5 % 2 = 1.
        assert_eq!(homes, vec![0, 1, 0, 1, 1]);
        // Off-mesh farms have no homes at all.
        let flat = ClusterFarm::with_memory(2, ClusterConfig::default(), MemoryModel::Ideal);
        assert_eq!(flat.home_cube(0, Some(1)), None);
    }

    #[test]
    fn builder_covers_every_kind() {
        let mut q = JobQueue::new();
        q.job("gemm")
            .gemm(GemmKernel { m: 2, k: 2, n: 2 }, vec![0.0; 4], vec![0.0; 4])
            .submit();
        q.job("conv")
            .conv2d(
                Conv2dKernel {
                    height: 3,
                    width: 3,
                    k: 3,
                    filters: 1,
                },
                vec![0.0; 9],
                vec![0.0; 9],
            )
            .submit();
        q.job("stencil").stencil2d(3, 3, vec![0.0; 9]).submit();
        assert_eq!(q.len(), 3);
        let classes: Vec<_> = q.iter().map(|j| j.kind.class()).collect();
        use crate::job::JobClass;
        assert_eq!(
            classes,
            vec![JobClass::Gemm, JobClass::Conv2d, JobClass::Stencil2d]
        );
    }
}
