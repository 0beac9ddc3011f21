//! The three workloads: seeded, lazily generated request streams and
//! their reference outputs.
//!
//! A *request* is what one closed-loop caller waits for: a single job
//! on `serve-mix`, a whole training step (23 dependent GEMM jobs) on the
//! train-step workloads. Requests are generated from `(seed, stream,
//! index)` at submission time, so the program only ever sees the jobs
//! in flight and the same seed always yields the same stream.

use ntx_dnn::compile::{training_step, TrainingStep};
use ntx_kernels::blas::GemmKernel;
use ntx_kernels::conv::Conv2dKernel;
use ntx_sched::{BackendKind, JobKind};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 16 outstanding heavy-tailed AXPY/GEMM/conv/stencil jobs on an
    /// 8-cluster simulator farm.
    ServeMix,
    /// AlexNet training steps as GEMM DAGs on a 4-cluster simulator
    /// farm.
    TrainStep,
    /// The same steps with every op on the native-exact backend.
    TrainStepNative,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::ServeMix, Kind::TrainStep, Kind::TrainStepNative];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeMix => "serve-mix",
            Kind::TrainStep => "train-step",
            Kind::TrainStepNative => "train-step-native",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Which sub-stream a request comes from: warm-up requests never
/// shift the measured stream, however many set-ups a run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Requests served during set-up.
    Warmup,
    /// Requests served in the measured phase.
    Main,
}

/// One job of a request.
#[derive(Debug, Clone)]
pub struct Op {
    /// Submission label.
    pub label: String,
    /// Payload.
    pub kind: JobKind,
    /// Predecessors, as indices into the request's op list.
    pub deps: Vec<usize>,
}

/// A seeded workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    seed: u64,
    step: Option<TrainingStep>,
}

/// Every dimension of the compiled AlexNet step is capped to this, the
/// `report-dnn` scaling.
pub const DIM_CAP: u32 = 64;

/// Compiles the AlexNet training step the train-step workloads serve.
#[must_use]
pub fn compile_step() -> TrainingStep {
    let batch = ntx_dnn::TrainingModel::default().batch;
    training_step(&ntx_dnn::networks::alexnet(), batch).scaled(DIM_CAP)
}

impl Workload {
    /// The workload `kind` over the stream of `seed`; the train-step
    /// workloads take their compiled DAG (see [`compile_step`]).
    #[must_use]
    pub fn new(kind: Kind, seed: u64, step: Option<TrainingStep>) -> Self {
        assert_eq!(
            step.is_some(),
            kind != Kind::ServeMix,
            "train-step workloads need a compiled step, serve-mix none"
        );
        Self { kind, seed, step }
    }

    /// Farm width.
    #[must_use]
    pub fn clusters(&self) -> usize {
        match self.kind {
            Kind::ServeMix => 8,
            Kind::TrainStep | Kind::TrainStepNative => 4,
        }
    }

    /// Requests the closed loop keeps outstanding.
    #[must_use]
    pub fn depth(&self) -> usize {
        match self.kind {
            Kind::ServeMix => 16,
            Kind::TrainStep | Kind::TrainStepNative => 1,
        }
    }

    /// Backend every op is submitted with.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        match self.kind {
            Kind::ServeMix | Kind::TrainStep => BackendKind::Simulate,
            Kind::TrainStepNative => BackendKind::NativeExact,
        }
    }

    /// Fewest requests a warm-up serves.
    #[must_use]
    pub fn warmup_requests(&self) -> u64 {
        match self.kind {
            Kind::ServeMix => 64,
            Kind::TrainStep | Kind::TrainStepNative => 1,
        }
    }

    /// Job classes the stream contains (warm-up waits for a measured
    /// duration of each).
    #[must_use]
    pub fn classes(&self) -> usize {
        match self.kind {
            Kind::ServeMix => 4,
            Kind::TrainStep | Kind::TrainStepNative => 1,
        }
    }

    /// What one request is called in printed results.
    #[must_use]
    pub fn request_noun(&self) -> &'static str {
        match self.kind {
            Kind::ServeMix => "job",
            Kind::TrainStep | Kind::TrainStepNative => "step",
        }
    }

    /// Request `index` of `stream`.
    #[must_use]
    pub fn request(&self, stream: Stream, index: u64) -> Vec<Op> {
        let salt = match stream {
            Stream::Warmup => 0x77a2_4f31_u64,
            Stream::Main => 0x3c6e_f372_u64,
        };
        let mut rng = splitmix(self.seed ^ splitmix(salt ^ splitmix(index)));
        match &self.step {
            None => vec![serve_mix_job(&mut rng, index)],
            Some(step) => step
                .ops
                .iter()
                .map(|op| {
                    let (a, b) = op.gemm_data(xorshift(&mut rng) as u32);
                    Op {
                        label: op.name.clone(),
                        kind: JobKind::Gemm {
                            dims: op.dims,
                            a,
                            b,
                        },
                        deps: op.deps.clone(),
                    }
                })
                .collect(),
        }
    }
}

/// The reference output of `kind`: the native Kulisch kernels for
/// every job kind (bit-identical to the simulator), and for GEMMs whose
/// operands are multiples of 1/16 in [-2, 2) with k <= 64 a plain f64
/// GEMM rounded to f32 — every product and partial sum is exact there,
/// so the rounding is the only one and the result is the exact one.
#[must_use]
pub fn reference(kind: &JobKind, exact_f64: bool) -> Vec<f32> {
    let cpu = ntx_cpu::NativeBackend::exact().with_threads(1);
    match kind {
        JobKind::Gemm { dims, a, b } if exact_f64 => gemm_f64(dims, a, b),
        JobKind::Gemm { dims, a, b } => cpu.gemm(dims, a, b),
        JobKind::Axpy { a, x, y } => cpu.axpy(*a, x, y),
        JobKind::Conv2d {
            kernel,
            image,
            weights,
        } => cpu.conv2d(kernel, image, weights),
        JobKind::Stencil2d {
            height,
            width,
            grid,
        } => cpu.stencil2d(*height as usize, *width as usize, grid),
        JobKind::Raw(_) => unreachable!("the workloads submit no raw jobs"),
    }
}

/// `C = A*B` accumulated in f64, rounded once to f32.
fn gemm_f64(dims: &GemmKernel, a: &[f32], b: &[f32]) -> Vec<f32> {
    let (m, k, n) = (dims.m as usize, dims.k as usize, dims.n as usize);
    let mut c = vec![0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0f64;
            for p in 0..k {
                acc += f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
            }
            c[i * n + j] = acc as f32;
        }
    }
    c
}

/// Multiply-accumulates a job performs (half its flops).
#[must_use]
pub fn macs(kind: &JobKind) -> u64 {
    match kind {
        JobKind::Gemm { dims, .. } => u64::from(dims.m) * u64::from(dims.k) * u64::from(dims.n),
        _ => ntx_sched::Job::new(0, "", kind.clone()).cost().flops / 2,
    }
}

/// FNV-1a over the bit patterns of an output vector.
#[must_use]
pub fn hash_output(out: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ out.len() as u64;
    for v in out {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One heavy-tailed job, sized like `report-chaos`'s generator: 70%
/// small, 25% medium, 5% large, over four job families.
fn serve_mix_job(rng: &mut u64, index: u64) -> Op {
    let draw = xorshift(rng);
    let class = match draw % 100 {
        0..=69 => 0,
        70..=94 => 1,
        _ => 2,
    };
    let dseed = (draw >> 16) as u32 | 1;
    let (label, kind) = match (draw >> 8) % 4 {
        0 => {
            let n = [300, 2400, 14_000][class];
            let kind = JobKind::Axpy {
                a: 1.25,
                x: data(n, dseed),
                y: data(n, dseed ^ 0x5555),
            };
            ("axpy", kind)
        }
        1 => {
            let (m, k, n) = [(8, 8, 8), (20, 12, 12), (32, 16, 16)][class];
            let kind = JobKind::Gemm {
                dims: GemmKernel { m, k, n },
                a: data((m * k) as usize, dseed),
                b: data((k * n) as usize, dseed ^ 0xaaaa),
            };
            ("gemm", kind)
        }
        2 => {
            let (h, w, f) = [(12, 9, 1), (30, 23, 2), (64, 48, 4)][class];
            let kind = JobKind::Conv2d {
                kernel: Conv2dKernel {
                    height: h,
                    width: w,
                    k: 3,
                    filters: f,
                },
                image: data((h * w) as usize, dseed),
                weights: data((9 * f) as usize, dseed ^ 0xffff),
            };
            ("conv3x3", kind)
        }
        _ => {
            let (h, w) = [(12, 9), (30, 17), (64, 40)][class];
            let kind = JobKind::Stencil2d {
                height: h,
                width: w,
                grid: data((h * w) as usize, dseed),
            };
            ("stencil2d", kind)
        }
    };
    Op {
        label: format!("{label}-{index}"),
        kind,
        deps: Vec::new(),
    }
}

/// `n` values in [-1, 1) from a 32-bit xorshift.
fn data(n: usize, mut s: u32) -> Vec<f32> {
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
        .collect()
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

/// Hash of the first `n` requests of `stream`: equal for equal seeds.
#[must_use]
pub fn stream_fingerprint(w: &Workload, stream: Stream, n: u64) -> u64 {
    let mut h = 0u64;
    for i in 0..n {
        for op in w.request(stream, i) {
            let (a, b) = match &op.kind {
                JobKind::Gemm { a, b, .. } => (hash_output(a), hash_output(b)),
                JobKind::Axpy { x, y, .. } => (hash_output(x), hash_output(y)),
                JobKind::Conv2d { image, weights, .. } => {
                    (hash_output(image), hash_output(weights))
                }
                JobKind::Stencil2d { grid, .. } => (hash_output(grid), 0),
                JobKind::Raw(_) => (0, 0),
            };
            h = splitmix(h ^ a ^ b.rotate_left(17) ^ op.deps.len() as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_yields_the_same_stream() {
        let a = Workload::new(Kind::ServeMix, 7, None);
        let b = Workload::new(Kind::ServeMix, 7, None);
        let c = Workload::new(Kind::ServeMix, 8, None);
        let fa = stream_fingerprint(&a, Stream::Main, 200);
        assert_eq!(fa, stream_fingerprint(&b, Stream::Main, 200));
        assert_ne!(fa, stream_fingerprint(&c, Stream::Main, 200));
        assert_ne!(fa, stream_fingerprint(&a, Stream::Warmup, 200));
        let step = compile_step();
        let t1 = Workload::new(Kind::TrainStep, 3, Some(step.clone()));
        let t2 = Workload::new(Kind::TrainStepNative, 3, Some(step));
        assert_eq!(
            stream_fingerprint(&t1, Stream::Main, 2),
            stream_fingerprint(&t2, Stream::Main, 2)
        );
    }

    #[test]
    fn serve_mix_is_heavy_tailed_over_four_families() {
        let w = Workload::new(Kind::ServeMix, 1, None);
        let mut families = std::collections::BTreeMap::new();
        let mut macs_by_job = Vec::new();
        for i in 0..2000 {
            let op = w.request(Stream::Main, i).remove(0);
            *families.entry(op.kind.class().name()).or_insert(0) += 1;
            macs_by_job.push(macs(&op.kind));
        }
        assert_eq!(families.len(), 4);
        macs_by_job.sort_unstable();
        // The largest 5% of jobs dwarf the median job.
        assert!(macs_by_job[1990] > 20 * macs_by_job[1000]);
    }

    #[test]
    fn f64_reference_is_exact_for_the_training_step() {
        let w = Workload::new(Kind::TrainStep, 5, Some(compile_step()));
        let ops = w.request(Stream::Main, 0);
        assert_eq!(ops.len(), 23);
        for op in &ops {
            assert_eq!(
                hash_output(&reference(&op.kind, true)),
                hash_output(&reference(&op.kind, false)),
                "{}: f64 and Kulisch references must agree bitwise",
                op.label
            );
        }
    }
}
