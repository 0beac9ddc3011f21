//! The tiler: splits one job into per-cluster shards sized to the TCDM.
//!
//! Sharding follows the same `split_work` rule the kernel lowerings use
//! to split rows across engines, so an N-cluster run computes exactly
//! the same elements from exactly the same inputs as a 1-cluster run —
//! the foundation of the executor's bit-identical guarantee:
//!
//! * **AXPY** shards contiguous element ranges; every shard streams
//!   through the ping-pong tile schedule of `ntx_kernels::schedule`.
//! * **GEMM** shards rows of `A`/`C`; `B` is replicated into every
//!   shard (the B-broadcast of a row-parallel decomposition). A shard
//!   too large to sit resident streams as M/N output tiles whose dot
//!   products run as split-K accumulation passes chained through the
//!   wide-accumulator spill protocol — bit-identical to the resident
//!   lowering, because no pass boundary rounds.
//! * **Conv2d** shards bands of output rows; each cluster re-loads its
//!   `k-1` input halo rows, then streams its band through the
//!   double-buffered `conv_tiles` schedule.
//! * **Stencil2d** shards bands of output rows exactly like conv (one
//!   halo row above and below), each band running the §III-B3
//!   dimension decomposition as an x pass plus an accumulating y pass
//!   through the `laplace2d_tiles` schedule.
//! * **Raw** commands are not tileable and are placed on one cluster.
//!
//! Within each cluster the shard is further tiled to the TCDM by the
//! existing `schedule` builders, preserving the paper's §II-E
//! double-buffering scheme.

use ntx_kernels::conv::Conv2dKernel;
use ntx_kernels::schedule::{
    axpy_tiles, conv_band_fits, conv_tiles, gemm_split_shape, gemm_split_tiles,
    laplace2d_band_fits, laplace2d_tiles, weight_replica_addrs, TileTask,
};
use ntx_kernels::split_work;
use ntx_mem::{DmaDescriptor, DmaDirection};
use ntx_sim::Cluster;

use crate::job::{Checked, Job, JobKind, RawJob};
use crate::SchedError;

/// External-memory base address of the first input operand
/// (per-cluster address spaces, so shards never alias).
pub const EXT_IN0: u64 = 0x0;
/// External-memory base address of the second input operand.
pub const EXT_IN1: u64 = 0x0100_0000;
/// External-memory base address of the output region.
pub const EXT_OUT: u64 = 0x0200_0000;

/// Streaming tile size for AXPY shards, in elements (two ping-pong
/// halves of `x`+`y` tiles fit comfortably in the 64 kB TCDM).
const AXPY_TILE_ELEMS: u32 = 2048;

/// Pitch between the external-memory operand regions. A shard operand
/// larger than this would silently run into the next region, so the
/// planners reject it instead.
const EXT_REGION_BYTES: u64 = EXT_IN1 - EXT_IN0;

/// Rejects a shard operand that would overflow its external-memory
/// region into the next one.
fn check_ext_region(what: &str, bytes: u64) -> Result<(), SchedError> {
    if bytes > EXT_REGION_BYTES {
        return Err(SchedError::Capacity(format!(
            "{what} needs {bytes} B of external memory but the operand region \
             is {EXT_REGION_BYTES} B; submit smaller jobs"
        )));
    }
    Ok(())
}

/// Where a cluster-local result lives after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadbackSource {
    /// External memory (streamed-out result).
    Ext(u64),
    /// TCDM (in-place result of a raw command).
    Tcdm(u32),
}

/// One contiguous slice of a job's output produced by one cluster.
#[derive(Debug, Clone, Copy)]
pub struct Readback {
    /// Where the cluster left the data.
    pub source: ReadbackSource,
    /// Length in `f32` elements.
    pub len: u32,
    /// Element offset in the job's assembled output vector.
    pub dst: usize,
}

/// Everything one cluster must do for its shard of a job.
#[derive(Debug, Clone, Default)]
pub struct ClusterPlan {
    /// `(ext address, values)` preloads into the cluster's external
    /// memory (the HMC vault shard this cluster owns).
    pub ext_writes: Vec<(u64, Vec<f32>)>,
    /// `(tcdm address, values)` preloads (resident weights, raw-job
    /// operands).
    pub tcdm_writes: Vec<(u32, Vec<f32>)>,
    /// The double-buffered tile schedule (empty for raw jobs).
    pub tiles: Vec<TileTask>,
    /// Raw command, if this cluster got one.
    pub raw: Option<RawJob>,
    /// Result slices to gather after the run.
    pub readbacks: Vec<Readback>,
}

impl ClusterPlan {
    /// True when this cluster has nothing to do for the job.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty() && self.raw.is_none()
    }
}

/// Splits jobs into per-cluster plans.
#[derive(Debug, Clone, Copy)]
pub struct Tiler {
    /// Number of clusters to shard across.
    pub clusters: usize,
}

impl Tiler {
    /// A tiler for `clusters` clusters.
    ///
    /// # Panics
    ///
    /// Panics when `clusters` is zero.
    #[must_use]
    pub fn new(clusters: usize) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        Self { clusters }
    }

    /// Checks `job` and plans it across the clusters. `cluster` is any
    /// one of the (identically configured) clusters, consulted for
    /// TCDM capacity and engine count.
    ///
    /// # Errors
    ///
    /// Every [`Job::validate`] error, [`SchedError::Capacity`] when a
    /// shard cannot fit the TCDM or its external-memory region, and
    /// [`SchedError::PlanTooLarge`] when a raw job's opaque TCDM window
    /// exceeds the TCDM.
    pub fn plan(&self, job: &Job, cluster: &Cluster) -> Result<Vec<ClusterPlan>, SchedError> {
        self.plan_checked(job, job.validate()?, cluster)
    }

    /// [`plan`](Self::plan) for a job already checked where it
    /// entered: `checked` is what [`Job::validate`] returned for it.
    ///
    /// # Errors
    ///
    /// [`SchedError::Capacity`] and [`SchedError::PlanTooLarge`], as
    /// [`plan`](Self::plan).
    pub fn plan_checked(
        &self,
        job: &Job,
        checked: Checked,
        cluster: &Cluster,
    ) -> Result<Vec<ClusterPlan>, SchedError> {
        let mut plans = vec![ClusterPlan::default(); self.clusters];
        match &job.kind {
            JobKind::Axpy { a, x, y } => self.plan_axpy(&mut plans, cluster, *a, x, y)?,
            JobKind::Gemm { dims, a, b } => self.plan_gemm(&mut plans, cluster, *dims, a, b)?,
            JobKind::Conv2d {
                kernel,
                image,
                weights,
            } => self.plan_conv(&mut plans, cluster, *kernel, image, weights)?,
            JobKind::Stencil2d {
                height,
                width,
                grid,
            } => self.plan_stencil(&mut plans, cluster, *height, *width, grid)?,
            JobKind::Raw(raw) => {
                // TCDM addresses wrap at capacity in the simulator, so
                // an out-of-range window would silently alias instead
                // of faulting — reject it at planning time.
                let tcdm_bytes = u64::from(cluster.config().tcdm.bytes);
                let check_window = |what: &'static str, addr: u32, bytes: u64| {
                    let available = tcdm_bytes.saturating_sub(u64::from(addr));
                    if bytes > available {
                        // A raw command is opaque to the tiler, so it
                        // cannot split the window itself — report the
                        // sizes and the pass count a manual split
                        // would need.
                        return Err(SchedError::PlanTooLarge {
                            what,
                            requested: bytes,
                            available,
                            suggested_passes: bytes
                                .div_ceil(available.max(1))
                                .min(u64::from(u32::MAX))
                                as u32,
                        });
                    }
                    Ok(())
                };
                for (addr, values) in &raw.tcdm {
                    check_window("raw job preload", *addr, 4 * values.len() as u64)?;
                }
                check_window(
                    "raw job result window",
                    raw.result_addr,
                    4 * u64::from(raw.result_len),
                )?;
                let c = (job.id as usize) % self.clusters;
                let plan = &mut plans[c];
                plan.tcdm_writes = raw.tcdm.clone();
                plan.readbacks.push(Readback {
                    source: ReadbackSource::Tcdm(raw.result_addr),
                    len: raw.result_len,
                    dst: 0,
                });
                plan.raw = Some(raw.clone());
            }
        }
        debug_assert_eq!(
            plans
                .iter()
                .flat_map(|p| &p.readbacks)
                .map(|r| r.len as usize)
                .sum::<usize>(),
            checked.output_len(),
            "the readbacks cover the output exactly once"
        );
        Ok(plans)
    }

    fn plan_axpy(
        &self,
        plans: &mut [ClusterPlan],
        cluster: &Cluster,
        a: f32,
        x: &[f32],
        y: &[f32],
    ) -> Result<(), SchedError> {
        for (plan, (start, len)) in plans
            .iter_mut()
            .zip(split_work(x.len() as u32, self.clusters as u32))
        {
            check_ext_region("axpy shard", 4 * u64::from(len))?;
            let (s, l) = (start as usize, len as usize);
            plan.ext_writes.push((EXT_IN0, x[s..s + l].to_vec()));
            plan.ext_writes.push((EXT_IN1, y[s..s + l].to_vec()));
            plan.tiles = axpy_tiles(cluster, len, a, EXT_IN0, EXT_IN1, AXPY_TILE_ELEMS.min(len));
            plan.readbacks.push(Readback {
                source: ReadbackSource::Ext(EXT_IN1),
                len,
                dst: s,
            });
        }
        Ok(())
    }

    fn plan_gemm(
        &self,
        plans: &mut [ClusterPlan],
        cluster: &Cluster,
        dims: ntx_kernels::blas::GemmKernel,
        a: &[f32],
        b: &[f32],
    ) -> Result<(), SchedError> {
        let (k, n) = (dims.k, dims.n);
        let engines = cluster.num_engines() as u32;
        let tcdm_bytes = cluster.config().tcdm.bytes;
        // B's leading dimension is padded to an odd element count so
        // the column walk cycles through all TCDM banks (same trick as
        // `GemmKernel::run`).
        let ldb = if n % 2 == 0 { n + 1 } else { n };
        // B is replicated into every shard; its region check is
        // per-job, the A/C checks per shard below.
        check_ext_region("gemm B operand", 4 * u64::from(k) * u64::from(n))?;
        for (plan, (row0, rows)) in plans
            .iter_mut()
            .zip(split_work(dims.m, self.clusters as u32))
        {
            check_ext_region("gemm A shard", 4 * u64::from(rows) * u64::from(k))?;
            check_ext_region("gemm C shard", 4 * u64::from(rows) * u64::from(n))?;
            let band = ntx_kernels::blas::GemmKernel { m: rows, k, n };
            let a_addr = 0u32;
            let b_addr = 4 * rows * k;
            let c_addr = b_addr + 4 * k * (n + 1);
            let end = c_addr + 4 * rows * n;
            plan.ext_writes.push((
                EXT_IN0,
                a[(row0 * k) as usize..((row0 + rows) * k) as usize].to_vec(),
            ));
            plan.ext_writes.push((EXT_IN1, b.to_vec()));
            if end > tcdm_bytes {
                // The shard cannot sit resident: stream it as M/N
                // output tiles with (when even a full-depth row chunk
                // is too long) split-K accumulation passes chained
                // through the wide-accumulator spill protocol — bit-
                // identical to the resident lowering either way.
                let (m_t, n_t, k_c) =
                    gemm_split_shape(&band, engines, tcdm_bytes).ok_or_else(|| {
                        SchedError::Capacity(format!(
                            "gemm shard {rows}x{k}x{n} cannot fit even a 1x1x1 \
                             split tile in a {tcdm_bytes} B TCDM"
                        ))
                    })?;
                plan.tiles =
                    gemm_split_tiles(cluster, &band, EXT_IN0, EXT_IN1, EXT_OUT, m_t, n_t, k_c)
                        .map_err(SchedError::Lowering)?;
            } else {
                let commands = band
                    .lower_with_ldb(a_addr, b_addr, c_addr, ldb, engines)
                    .map_err(SchedError::Lowering)?
                    .into_iter()
                    .enumerate()
                    .collect();
                plan.tiles = vec![TileTask {
                    loads: vec![
                        DmaDescriptor::linear(
                            EXT_IN0,
                            a_addr,
                            4 * rows * k,
                            DmaDirection::ExtToTcdm,
                        ),
                        // B lands in its padded-leading-dimension layout.
                        DmaDescriptor {
                            ext_addr: EXT_IN1,
                            tcdm_addr: b_addr,
                            row_bytes: 4 * n,
                            rows: k,
                            ext_stride: 4 * u64::from(n),
                            tcdm_stride: 4 * ldb,
                            dir: DmaDirection::ExtToTcdm,
                        },
                    ],
                    commands,
                    stores: vec![DmaDescriptor::linear(
                        EXT_OUT,
                        c_addr,
                        4 * rows * n,
                        DmaDirection::TcdmToExt,
                    )],
                }];
            }
            plan.readbacks.push(Readback {
                source: ReadbackSource::Ext(EXT_OUT),
                len: rows * n,
                dst: (row0 * n) as usize,
            });
        }
        Ok(())
    }

    fn plan_stencil(
        &self,
        plans: &mut [ClusterPlan],
        cluster: &Cluster,
        height: u32,
        width: u32,
        grid: &[f32],
    ) -> Result<(), SchedError> {
        let engines = cluster.num_engines() as u32;
        let tcdm_bytes = cluster.config().tcdm.bytes;
        let (oh, ow) = (height - 2, width - 2);
        for (plan, (row0, rows)) in plans.iter_mut().zip(split_work(oh, self.clusters as u32)) {
            // This cluster's input band: its output rows plus one halo
            // row above and one below.
            let in_rows = rows + 2;
            check_ext_region(
                "stencil grid band",
                4 * u64::from(in_rows) * u64::from(width),
            )?;
            check_ext_region("stencil output band", 4 * u64::from(rows) * u64::from(ow))?;
            // Largest streaming band (in output rows) whose two
            // ping-pong buffers fit above the resident coefficient
            // replicas — the capacity rule `laplace2d_tiles` enforces.
            let fits =
                |band_rows: u32| laplace2d_band_fits(width, band_rows, 0, engines, tcdm_bytes);
            let mut band_rows = rows.min(8);
            while band_rows > 1 && !fits(band_rows) {
                band_rows -= 1;
            }
            if !fits(band_rows) {
                return Err(SchedError::Capacity(format!(
                    "stencil band of width {width} cannot fit two single-row \
                     buffers in a {tcdm_bytes} B TCDM"
                )));
            }
            // One [1, -2, 1] replica per engine, in the canonical
            // replica layout.
            for addr in weight_replica_addrs(0, 3, engines) {
                plan.tcdm_writes.push((addr, vec![1.0, -2.0, 1.0]));
            }
            plan.ext_writes.push((
                EXT_IN0,
                grid[(row0 * width) as usize..((row0 + in_rows) * width) as usize].to_vec(),
            ));
            plan.tiles = laplace2d_tiles(cluster, in_rows, width, EXT_IN0, 0, EXT_OUT, band_rows);
            plan.readbacks.push(Readback {
                source: ReadbackSource::Ext(EXT_OUT),
                len: rows * ow,
                dst: (row0 * ow) as usize,
            });
        }
        Ok(())
    }

    fn plan_conv(
        &self,
        plans: &mut [ClusterPlan],
        cluster: &Cluster,
        kernel: Conv2dKernel,
        image: &[f32],
        weights: &[f32],
    ) -> Result<(), SchedError> {
        let (w, k, filters) = (kernel.width, kernel.k, kernel.filters);
        let (oh, ow) = (kernel.out_height(), kernel.out_width());
        let engines = cluster.num_engines() as u32;
        let tcdm_bytes = cluster.config().tcdm.bytes;
        for (plan, (row0, rows)) in plans.iter_mut().zip(split_work(oh, self.clusters as u32)) {
            // This cluster's input band: its output rows plus the k-1
            // halo rows below them.
            let in_rows = rows + k - 1;
            let band = Conv2dKernel {
                height: in_rows,
                width: w,
                k,
                filters,
            };
            check_ext_region("conv image band", 4 * u64::from(in_rows) * u64::from(w))?;
            check_ext_region(
                "conv output band",
                4 * u64::from(rows) * u64::from(ow) * u64::from(filters),
            )?;
            // Largest streaming band (in output rows) whose two
            // ping-pong buffers fit above the resident weight replicas —
            // the same capacity rule `conv_tiles` enforces.
            let fits = |band_rows: u32| conv_band_fits(&band, band_rows, 0, engines, tcdm_bytes);
            let mut band_rows = rows.min(8);
            while band_rows > 1 && !fits(band_rows) {
                band_rows -= 1;
            }
            if !fits(band_rows) {
                return Err(SchedError::Capacity(format!(
                    "conv band of width {w} with {filters} filters cannot fit two \
                     single-row buffers in a {tcdm_bytes} B TCDM"
                )));
            }
            // One weight replica per engine avoids the structural bank
            // conflict of all engines fetching the same word; the
            // addresses come from the canonical layout in ntx-kernels.
            for addr in weight_replica_addrs(0, k * k * filters, engines) {
                plan.tcdm_writes.push((addr, weights.to_vec()));
            }
            plan.ext_writes.push((
                EXT_IN0,
                image[(row0 * w) as usize..((row0 + in_rows) * w) as usize].to_vec(),
            ));
            plan.tiles = conv_tiles(cluster, &band, EXT_IN0, 0, EXT_OUT, band_rows);
            for f in 0..filters {
                plan.readbacks.push(Readback {
                    source: ReadbackSource::Ext(EXT_OUT + 4 * u64::from(f * rows * ow)),
                    len: rows * ow,
                    dst: ((f * oh + row0) * ow) as usize,
                });
            }
        }
        Ok(())
    }
}
