//! Jobs, per-job serving options, and the job queue.
//!
//! A [`Job`] is one unit of work the scale-out runtime shards across
//! clusters: a kernel descriptor from `ntx-kernels` (GEMM, 2-D
//! convolution, AXPY, 2-D Laplace stencil) bundled with its input
//! data, or a raw [`NtxConfig`] command for workloads the kernel
//! library does not cover. Each job carries [`JobOpts`] — which
//! [`BackendKind`] executes it, its serving priority and optional
//! deadline — and is submitted through the fluent
//! [`JobBuilder`](crate::JobBuilder): into a [`JobQueue`] (executed
//! FIFO by [`ScaleOutExecutor`](crate::ScaleOutExecutor)) or into a
//! persistent [`Session`](crate::Session) on the always-on
//! [`Server`](crate::Server).
//!
//! A job is checked once, where it enters the scheduler:
//! [`Job::validate`] returns the [`Checked`] output length and cost
//! that every planner behind that point takes instead of checking
//! again.

use ntx_isa::NtxConfig;
use ntx_kernels::blas::{AxpyKernel, GemmKernel};
use ntx_kernels::conv::Conv2dKernel;
use ntx_kernels::stencil::Laplace2dKernel;
use ntx_kernels::KernelCost;
use ntx_sim::MAX_DRAIN_CYCLES;
use std::collections::VecDeque;
use std::time::Duration;

use crate::backend::BackendKind;
use crate::SchedError;

/// A raw NTX command job: TCDM preloads, one configuration, one result
/// window. Raw jobs are not tileable — the scheduler places each on one
/// cluster and lets tileable jobs absorb the remaining capacity.
#[derive(Debug, Clone)]
pub struct RawJob {
    /// The command to offload (engine 0 of the chosen cluster).
    pub config: NtxConfig,
    /// `(byte address, values)` pairs preloaded into the TCDM.
    pub tcdm: Vec<(u32, Vec<f32>)>,
    /// TCDM byte address of the result window.
    pub result_addr: u32,
    /// Result length in `f32` elements.
    pub result_len: u32,
}

/// What a job computes.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// `y = a*x + y`, sharded over contiguous element ranges.
    Axpy {
        /// The scalar `a`.
        a: f32,
        /// Input vector `x`.
        x: Vec<f32>,
        /// Input/output vector `y`.
        y: Vec<f32>,
    },
    /// `C = A*B`, sharded over rows of `A`/`C`.
    Gemm {
        /// Matrix dimensions.
        dims: GemmKernel,
        /// Row-major `m x k` matrix.
        a: Vec<f32>,
        /// Row-major `k x n` matrix.
        b: Vec<f32>,
    },
    /// Multi-filter 2-D convolution, sharded over output-row bands
    /// (each cluster re-loads its `k-1` halo rows).
    Conv2d {
        /// Convolution geometry (including the filter count).
        kernel: Conv2dKernel,
        /// Row-major `height x width` image.
        image: Vec<f32>,
        /// Filter-major weights, `filters * k * k` values.
        weights: Vec<f32>,
    },
    /// The 2-D discrete Laplace stencil (§III-B3 dimension
    /// decomposition: an x pass plus an accumulating y pass), sharded
    /// over output-row bands with a one-row halo — the conv-style
    /// halo-band decomposition applied to the stencil family.
    Stencil2d {
        /// Grid height (output has `height - 2` rows).
        height: u32,
        /// Grid width (output has `width - 2` columns).
        width: u32,
        /// Row-major `height x width` grid.
        grid: Vec<f32>,
    },
    /// A raw NTX command (see [`RawJob`]).
    Raw(RawJob),
}

/// The coarse family of a job — the key of the measured-duration
/// feedback table ([`DurationTable`](crate::DurationTable)). All jobs
/// of one class share a roofline-correction factor: the analytical
/// estimate under-predicts conv shards and GEMM shards by different
/// (but per-family stable) amounts, so the placement heuristic learns
/// one EWMA per class instead of one global fudge factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// `y = a*x + y` streaming jobs.
    Axpy,
    /// Dense matrix multiplies.
    Gemm,
    /// Multi-filter 2-D convolutions.
    Conv2d,
    /// 2-D Laplace stencils.
    Stencil2d,
    /// Raw NTX commands.
    Raw,
}

impl JobClass {
    /// Number of classes (the size of the duration table).
    pub const COUNT: usize = 5;

    /// Dense index of this class, in `0..COUNT`.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            JobClass::Axpy => 0,
            JobClass::Gemm => 1,
            JobClass::Conv2d => 2,
            JobClass::Stencil2d => 3,
            JobClass::Raw => 4,
        }
    }

    /// Human-readable class name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobClass::Axpy => "axpy",
            JobClass::Gemm => "gemm",
            JobClass::Conv2d => "conv2d",
            JobClass::Stencil2d => "stencil2d",
            JobClass::Raw => "raw",
        }
    }
}

impl JobKind {
    /// The duration-table class of this kind.
    #[must_use]
    pub fn class(&self) -> JobClass {
        match self {
            JobKind::Axpy { .. } => JobClass::Axpy,
            JobKind::Gemm { .. } => JobClass::Gemm,
            JobKind::Conv2d { .. } => JobClass::Conv2d,
            JobKind::Stencil2d { .. } => JobClass::Stencil2d,
            JobKind::Raw(_) => JobClass::Raw,
        }
    }
}

/// Per-job serving options: backend selection, priority, deadline.
/// Clients set them through the [`ReadyJob`](crate::ReadyJob) builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobOpts {
    /// Which backend executes the job (bit-accurate simulation by
    /// default; [`BackendKind::Estimate`] answers instantly from the
    /// analytical model).
    pub backend: BackendKind,
    /// Serving priority; higher runs earlier. The [`JobQueue`] itself
    /// stays FIFO — priorities order each admission group in the
    /// [`Server`](crate::Server) front-end.
    pub priority: u8,
    /// Optional wall-clock completion deadline, measured from
    /// submission; the server reports misses per job and in its
    /// [`ServingReport`](crate::ServingReport).
    pub deadline: Option<Duration>,
    /// The HMC-mesh cube holding this job's data (`None` → assigned
    /// round-robin by job id; out-of-range indices wrap). Ignored
    /// outside [`MemoryModel::HmcMesh`](ntx_mem::MemoryModel::HmcMesh)
    /// farms, where there is only one memory.
    pub home_cube: Option<u32>,
    /// Optional completion deadline in *virtual farm cycles*, measured
    /// from admission. Unlike the wall-clock `deadline` (reporting
    /// only), this one is enforced: the [`Server`](crate::Server)
    /// **sheds** the job with
    /// [`SchedError::DeadlineUnmeetable`](crate::SchedError) when the
    /// placement estimate already proves it unmeetable. A
    /// [`JobQueue`] batch sheds nothing.
    pub deadline_cycles: Option<u64>,
}

/// One schedulable unit of work.
#[derive(Debug, Clone)]
pub struct Job {
    /// Queue-assigned identifier (stable across runs of the same
    /// submission order).
    pub id: u64,
    /// Human-readable label for reports.
    pub label: String,
    /// The work itself.
    pub kind: JobKind,
    /// Serving options (backend, priority, deadline).
    pub opts: JobOpts,
    /// Submission ids of predecessor jobs. Ordering-only edges: the
    /// continuous server admits this job the event its last
    /// predecessor's completion is delivered (whatever that
    /// completion's outcome), so a training step can be expressed as a
    /// DAG of layer jobs. Edges order *admission*, not simulated time:
    /// an admitted dependent may land on an idle cluster whose clock is
    /// still behind its predecessor's finish cycle. Unknown ids park
    /// the job until the predecessor is submitted; predecessors that
    /// never complete fail it at shutdown with
    /// [`SchedError::DependencyDropped`](crate::SchedError).
    /// [`ScaleOutExecutor::run_queue`](crate::ScaleOutExecutor::run_queue)
    /// admits a whole queue at once, so it rejects a job with edges.
    pub deps: Vec<u64>,
}

impl Job {
    /// A job with default options and no predecessors.
    #[must_use]
    pub fn new(id: u64, label: impl Into<String>, kind: JobKind) -> Self {
        Self {
            id,
            label: label.into(),
            kind,
            opts: JobOpts::default(),
            deps: Vec::new(),
        }
    }

    /// Number of `f32` elements in this job's output.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions overflow `usize` or leave no output
    /// shape; [`validate`](Self::validate) rejects such jobs.
    #[must_use]
    pub fn output_len(&self) -> usize {
        self.checked_output_len()
            .expect("validate rejects jobs whose output length overflows")
    }

    /// [`output_len`](Self::output_len) in checked `usize` arithmetic:
    /// `None` when a product overflows or a conv kernel or stencil star
    /// does not fit its grid.
    fn checked_output_len(&self) -> Option<usize> {
        let valid = |extent: u32, window: u32| extent.checked_sub(window)?.checked_add(1);
        match &self.kind {
            JobKind::Axpy { y, .. } => Some(y.len()),
            JobKind::Gemm { dims, .. } => product(&[dims.m, dims.n]),
            JobKind::Conv2d { kernel, .. } => product(&[
                valid(kernel.height, kernel.k)?,
                valid(kernel.width, kernel.k)?,
                kernel.filters,
            ]),
            JobKind::Stencil2d { height, width, .. } => {
                product(&[valid(*height, 3)?, valid(*width, 3)?])
            }
            JobKind::Raw(raw) => Some(raw.result_len as usize),
        }
    }

    /// Analytic cost of the whole job (flops plus compulsory external
    /// traffic), from the kernel library's cost models. This is what
    /// the analytical backend serves and what the placement heuristic
    /// sizes shards with; raw commands count their loop iterations as
    /// MACs with no external traffic (they run in the TCDM). Both
    /// counts saturate at `u64::MAX` for a job whose counts overflow,
    /// which [`validate`](Self::validate) rejects.
    #[must_use]
    pub fn cost(&self) -> KernelCost {
        self.checked_cost().unwrap_or(KernelCost {
            flops: u64::MAX,
            min_ext_bytes: u64::MAX,
        })
    }

    /// [`cost`](Self::cost) in checked `u64` arithmetic: `None` when a
    /// count overflows or the shape leaves no output. Each kernel cost
    /// model adds up at most 16 times the product of its non-zero
    /// dimensions, so that product is checked before the model runs.
    fn checked_cost(&self) -> Option<KernelCost> {
        // Also rules out the models' `height - k` underflows.
        self.checked_output_len()?;
        let bounded = |dims: &[u32]| {
            dims.iter()
                .try_fold(16u64, |n, &d| n.checked_mul(u64::from(d)).filter(|_| d > 0))
                .is_some()
        };
        Some(match &self.kind {
            JobKind::Axpy { a, x, .. } => AxpyKernel {
                n: u32::try_from(x.len()).ok()?,
                a: *a,
            }
            .cost(),
            JobKind::Gemm { dims, .. } if bounded(&[dims.m, dims.k, dims.n]) => dims.cost(),
            JobKind::Conv2d { kernel: c, .. }
                if bounded(&[c.height, c.width, c.k, c.k, c.filters]) =>
            {
                c.cost()
            }
            JobKind::Stencil2d { height, width, .. } if bounded(&[*height, *width]) => {
                Laplace2dKernel {
                    height: *height,
                    width: *width,
                }
                .cost()
            }
            JobKind::Raw(raw) => KernelCost {
                flops: raw_iterations(&raw.config)?.checked_mul(2)?,
                min_ext_bytes: 0,
            },
            _ => return None,
        })
    }

    /// Checks the job once, where it enters the scheduler, and returns
    /// what the check computed: its output length and its cost. The
    /// planners behind an entry point take that [`Checked`] value
    /// instead of checking again.
    ///
    /// A raw job must also pass [`NtxConfig::validate`], and its loop
    /// nest must run fewer than [`MAX_DRAIN_CYCLES`] iterations: the
    /// cycle simulator gives up on a cluster that has not drained by
    /// then.
    ///
    /// # Errors
    ///
    /// [`SchedError::Shape`] on any mismatch or degenerate geometry, a
    /// self-edge, or an output or cost that overflows;
    /// [`SchedError::Lowering`] for a raw command the ISA rejects;
    /// [`SchedError::Capacity`] for a raw loop nest the simulator
    /// cannot drain.
    pub fn validate(&self) -> Result<Checked, SchedError> {
        let shape_err = |msg: String| Err(SchedError::Shape(msg));
        // A self-edge can never be satisfied — it would park the job
        // forever waiting for its own completion.
        if self.deps.contains(&self.id) {
            return shape_err(format!("job {} depends on itself", self.id));
        }
        match &self.kind {
            JobKind::Axpy { x, y, .. } => {
                if x.len() != y.len() {
                    return shape_err(format!("axpy: |x| = {} but |y| = {}", x.len(), y.len()));
                }
                if x.is_empty() {
                    return shape_err("axpy: empty vectors".into());
                }
            }
            JobKind::Gemm { dims, a, b } => {
                if dims.m == 0 || dims.k == 0 || dims.n == 0 {
                    return shape_err(format!(
                        "gemm: degenerate dims {}x{}x{}",
                        dims.m, dims.k, dims.n
                    ));
                }
                check_len("gemm: |A| vs m*k", a.len(), &[dims.m, dims.k])?;
                check_len("gemm: |B| vs k*n", b.len(), &[dims.k, dims.n])?;
            }
            JobKind::Conv2d {
                kernel,
                image,
                weights,
            } => {
                if kernel.k == 0 || kernel.filters == 0 {
                    return shape_err("conv2d: degenerate kernel".into());
                }
                if kernel.height < kernel.k || kernel.width < kernel.k {
                    return shape_err(format!(
                        "conv2d: image {}x{} smaller than {}x{} kernel",
                        kernel.height, kernel.width, kernel.k, kernel.k
                    ));
                }
                check_len(
                    "conv2d: |image| vs h*w",
                    image.len(),
                    &[kernel.height, kernel.width],
                )?;
                check_len(
                    "conv2d: |weights| vs k*k*filters",
                    weights.len(),
                    &[kernel.k, kernel.k, kernel.filters],
                )?;
            }
            JobKind::Stencil2d {
                height,
                width,
                grid,
            } => {
                if *height < 3 || *width < 3 {
                    return shape_err(format!(
                        "stencil2d: {height}x{width} grid smaller than the 3x3 star"
                    ));
                }
                check_len("stencil2d: |grid| vs h*w", grid.len(), &[*height, *width])?;
            }
            JobKind::Raw(raw) => {
                if raw.result_len == 0 {
                    return shape_err("raw: empty result window".into());
                }
                raw.config.validate()?;
                if raw_iterations(&raw.config).is_none_or(|n| n >= MAX_DRAIN_CYCLES) {
                    return Err(SchedError::Capacity(format!(
                        "raw: loop bounds {:?} reach the simulator's {MAX_DRAIN_CYCLES}-cycle \
                         drain limit",
                        raw.config.loops.bounds()
                    )));
                }
            }
        }
        // The tiler indexes outputs with u32 lengths.
        let output_len = match self.checked_output_len() {
            Some(len) if u32::try_from(len).is_ok() => len,
            Some(len) => {
                return shape_err(format!(
                    "output of {len} elements exceeds the {} the tiler addresses",
                    u32::MAX
                ))
            }
            None => return shape_err("output length overflows".into()),
        };
        let Some(cost) = self.checked_cost() else {
            return shape_err("cost overflows u64".into());
        };
        Ok(Checked { output_len, cost })
    }
}

/// What [`Job::validate`] computed for a job that passed: its output
/// length and its cost, both in checked arithmetic. Only `validate`
/// builds one, so a planner that takes it knows its job was checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    output_len: usize,
    cost: KernelCost,
}

impl Checked {
    /// Number of `f32` elements in the job's output (at most
    /// `u32::MAX`).
    #[must_use]
    pub fn output_len(self) -> usize {
        self.output_len
    }

    /// Analytic cost of the whole job (see [`Job::cost`]).
    #[must_use]
    pub fn cost(self) -> KernelCost {
        self.cost
    }
}

/// Innermost iterations of `config`'s loop nest in checked arithmetic
/// (disabled loops read as 1); `None` when the count overflows `u64`.
fn raw_iterations(config: &NtxConfig) -> Option<u64> {
    config
        .loops
        .bounds()
        .iter()
        .try_fold(1u64, |n, &b| n.checked_mul(u64::from(b)))
}

/// The product of `dims` in `usize`, or `None` when it overflows.
fn product(dims: &[u32]) -> Option<usize> {
    dims.iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d as usize))
}

/// Checks a buffer length against the product of its dimensions,
/// computed in `usize` so that hostile dimensions fail as a
/// [`SchedError::Shape`] instead of overflowing.
fn check_len(what: &str, len: usize, dims: &[u32]) -> Result<(), SchedError> {
    match product(dims) {
        Some(n) if n == len => Ok(()),
        Some(n) => Err(SchedError::Shape(format!("{what}: {len} != {n}"))),
        None => Err(SchedError::Shape(format!(
            "{what}: dimensions {dims:?} overflow"
        ))),
    }
}

/// FIFO queue of jobs with stable id assignment. Backed by a
/// `VecDeque`, so both submission and the executor's pop are
/// allocation-free once the ring has grown to the working set.
#[derive(Debug, Default)]
pub struct JobQueue {
    next_id: u64,
    jobs: VecDeque<Job>,
}

impl JobQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The enqueue primitive behind the fluent [`JobQueue::job`]
    /// builder: assigns `job` the next id.
    pub(crate) fn enqueue(&mut self, mut job: Job) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        job.id = id;
        self.jobs.push_back(job);
        id
    }

    /// Dequeues the oldest job.
    pub fn pop(&mut self) -> Option<Job> {
        self.jobs.pop_front()
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Read-only view of the queued jobs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_assigns_sequential_ids() {
        let mut q = JobQueue::new();
        let a = q.job("a").axpy(1.0, vec![1.0], vec![2.0]).submit();
        let b = q.job("b").axpy(2.0, vec![1.0], vec![2.0]).submit();
        assert_eq!((a, b), (0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().label, "a");
        assert_eq!(q.pop().unwrap().label, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn every_kind_has_a_class() {
        let kinds = [
            (
                JobKind::Axpy {
                    a: 1.0,
                    x: vec![1.0],
                    y: vec![1.0],
                },
                JobClass::Axpy,
            ),
            (
                JobKind::Stencil2d {
                    height: 3,
                    width: 3,
                    grid: vec![0.0; 9],
                },
                JobClass::Stencil2d,
            ),
        ];
        for (kind, class) in kinds {
            assert_eq!(kind.class(), class);
            assert!(class.index() < JobClass::COUNT);
            assert!(!class.name().is_empty());
        }
    }

    #[test]
    fn validation_catches_mismatches() {
        let bad = Job::new(
            0,
            "bad",
            JobKind::Axpy {
                a: 1.0,
                x: vec![1.0, 2.0],
                y: vec![1.0],
            },
        );
        assert!(bad.validate().is_err());
        let bad = Job::new(
            0,
            "bad",
            JobKind::Gemm {
                dims: GemmKernel { m: 2, k: 2, n: 2 },
                a: vec![0.0; 3],
                b: vec![0.0; 4],
            },
        );
        assert!(bad.validate().is_err());
        let bad = Job::new(
            0,
            "bad",
            JobKind::Stencil2d {
                height: 4,
                width: 4,
                grid: vec![0.0; 15],
            },
        );
        assert!(bad.validate().is_err());
    }

    #[test]
    fn output_lengths() {
        let conv = Job::new(
            0,
            "c",
            JobKind::Conv2d {
                kernel: Conv2dKernel {
                    height: 6,
                    width: 5,
                    k: 3,
                    filters: 2,
                },
                image: vec![0.0; 30],
                weights: vec![0.0; 18],
            },
        );
        assert_eq!(conv.validate().unwrap().output_len(), 4 * 3 * 2);
        assert_eq!(conv.output_len(), 4 * 3 * 2);
        let stencil = Job::new(
            0,
            "s",
            JobKind::Stencil2d {
                height: 6,
                width: 5,
                grid: vec![0.0; 30],
            },
        );
        assert_eq!(stencil.validate().unwrap().output_len(), 4 * 3);
        assert_eq!(stencil.output_len(), 4 * 3);
    }

    #[test]
    fn costs_cover_every_kind() {
        let stencil = Job::new(
            0,
            "s",
            JobKind::Stencil2d {
                height: 10,
                width: 10,
                grid: vec![0.0; 100],
            },
        );
        let c = stencil.cost();
        assert_eq!(c.flops, 2 * 6 * 64);
        assert!(c.min_ext_bytes > 0);
        let axpy = Job::new(
            0,
            "a",
            JobKind::Axpy {
                a: 2.0,
                x: vec![0.0; 32],
                y: vec![0.0; 32],
            },
        );
        assert_eq!(axpy.cost().flops, 64);
    }
}
