//! Cross-cluster and cross-mode equivalence properties.
//!
//! Two families of properties protect the serving stack:
//!
//! 1. **Sharding invariance** — for random tileable GEMM / convolution
//!    / AXPY / stencil shapes, the N-cluster `ntx-sched` result must be
//!    **bit-identical** to the single-cluster result and to the
//!    `ntx_kernels::reference` oracle.
//! 2. **Pipelining invariance** — for random multi-job mixes, the
//!    space-shared, continuously-admitted
//!    [`ClusterFarm`](ntx_sched::ClusterFarm) must produce per-job
//!    outputs, per-job `PerfSnapshot`s and per-job makespans
//!    **bit-identical** to the barriered replay of the same placement
//!    ([`ClusterFarm::run_batch`](ntx_sched::ClusterFarm::run_batch)),
//!    while its makespan never exceeds the barriered sum — overlap may
//!    only change accounting, never a simulated bit.
//!
//! Inputs are drawn from a coarse dyadic grid (`q / 16` with small
//! `|q|`) so every product and every partial sum is exactly
//! representable both in the NTX wide accumulator and in the
//! reference's `f64` accumulation. On that grid all computations are
//! exact, which turns value equality into genuine bitwise equality
//! regardless of summation order — any sharding bug (wrong halo, wrong
//! band offset, clobbered ping-pong buffer, cross-job contention) shows
//! up as a bit flip.

use ntx_kernels::blas::GemmKernel;
use ntx_kernels::conv::Conv2dKernel;
use ntx_kernels::reference;
use ntx_sched::{
    run_sharded, BatchResult, ClusterFarm, DurationTable, HmcConfig, Job, JobKind, JobQueue,
    JobResult, MeshConfig, Placement, ScaleOutConfig, ScaleOutExecutor, SimulatorBackend,
};
use proptest::prelude::*;

/// Values `q / 16` with `q` in `[-64, 64]`: exactly representable, and
/// products/sums of hundreds of them stay exact in both accumulators.
fn grid_f32() -> impl Strategy<Value = f32> {
    (-64i32..=64).prop_map(|q| q as f32 / 16.0)
}

fn grid_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(grid_f32(), len..=len)
}

fn job(kind: JobKind) -> Job {
    Job::new(0, "prop", kind)
}

fn assert_bits_eq(got: &[f32], expect: &[f32], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length");
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert_eq!(
            g.to_bits(),
            e.to_bits(),
            "{what}: element {i} differs ({g} vs {e})"
        );
    }
}

/// A random job of any tileable family, sized to fit one cluster.
fn arb_kind() -> impl Strategy<Value = JobKind> {
    prop_oneof![
        (grid_f32(), 1usize..400)
            .prop_flat_map(|(a, n)| (Just(a), grid_vec(n), grid_vec(n)))
            .prop_map(|(a, x, y)| JobKind::Axpy { a, x, y }),
        (1u32..16, 1u32..12, 1u32..10)
            .prop_flat_map(|(m, k, n)| {
                (
                    Just(GemmKernel { m, k, n }),
                    grid_vec((m * k) as usize),
                    grid_vec((k * n) as usize),
                )
            })
            .prop_map(|(dims, a, b)| JobKind::Gemm { dims, a, b }),
        (0u32..10, 0u32..8, 1u32..3)
            .prop_flat_map(|(dh, dw, filters)| {
                let (h, w) = (3 + dh, 3 + dw);
                (
                    Just(Conv2dKernel {
                        height: h,
                        width: w,
                        k: 3,
                        filters,
                    }),
                    grid_vec((h * w) as usize),
                    grid_vec((9 * filters) as usize),
                )
            })
            .prop_map(|(kernel, image, weights)| JobKind::Conv2d {
                kernel,
                image,
                weights,
            }),
        (3u32..16, 3u32..12)
            .prop_flat_map(|(h, w)| (Just((h, w)), grid_vec((h * w) as usize)))
            .prop_map(|((height, width), grid)| JobKind::Stencil2d {
                height,
                width,
                grid,
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N-cluster GEMM == 1-cluster GEMM == reference, bitwise.
    #[test]
    fn gemm_sharding_is_bit_identical(
        (m, k, n, clusters, a, b) in (1u32..24, 1u32..16, 1u32..12, 2usize..6)
            .prop_flat_map(|(m, k, n, clusters)| {
                (
                    Just(m), Just(k), Just(n), Just(clusters),
                    grid_vec((m * k) as usize),
                    grid_vec((k * n) as usize),
                )
            })
    ) {
        let dims = GemmKernel { m, k, n };
        let kind = JobKind::Gemm { dims, a: a.clone(), b: b.clone() };
        let single = run_sharded(&job(kind.clone()), 1).expect("single-cluster gemm");
        let wide = run_sharded(&job(kind), clusters).expect("sharded gemm");
        let expect = reference::gemm(&a, &b, m as usize, k as usize, n as usize);
        assert_bits_eq(&single.output, &expect, "1-cluster vs reference");
        assert_bits_eq(&wide.output, &single.output, "N-cluster vs 1-cluster");
    }

    /// N-cluster conv2d == 1-cluster conv2d == reference, bitwise,
    /// for every filter plane.
    #[test]
    fn conv_sharding_is_bit_identical(
        (h, w, k, filters, clusters, image, weights) in
            (0u32..14, 0u32..12, prop_oneof![Just(3u32), Just(5u32)], 1u32..4, 2usize..6)
                .prop_flat_map(|(dh, dw, k, filters, clusters)| {
                    let (h, w) = (k + dh, k + dw);
                    (
                        Just(h), Just(w), Just(k), Just(filters), Just(clusters),
                        grid_vec((h * w) as usize),
                        grid_vec((k * k * filters) as usize),
                    )
                })
    ) {
        let kernel = Conv2dKernel { height: h, width: w, k, filters };
        let kind = JobKind::Conv2d {
            kernel,
            image: image.clone(),
            weights: weights.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).expect("single-cluster conv");
        let wide = run_sharded(&job(kind), clusters).expect("sharded conv");
        let (oh, ow) = (kernel.out_height() as usize, kernel.out_width() as usize);
        let k2 = (k * k) as usize;
        for f in 0..filters as usize {
            let expect = reference::conv2d(
                &image,
                h as usize,
                w as usize,
                &weights[f * k2..(f + 1) * k2],
                k as usize,
            );
            assert_bits_eq(
                &single.output[f * oh * ow..(f + 1) * oh * ow],
                &expect,
                "1-cluster vs reference",
            );
        }
        assert_bits_eq(&wide.output, &single.output, "N-cluster vs 1-cluster");
    }

    /// N-cluster AXPY == 1-cluster AXPY == reference, bitwise.
    #[test]
    fn axpy_sharding_is_bit_identical(
        (a_scalar, clusters, x, y) in (grid_f32(), 2usize..8, 1usize..600)
            .prop_flat_map(|(a_scalar, clusters, n)| {
                (Just(a_scalar), Just(clusters), grid_vec(n), grid_vec(n))
            })
    ) {
        let kind = JobKind::Axpy { a: a_scalar, x: x.clone(), y: y.clone() };
        let single = run_sharded(&job(kind.clone()), 1).expect("single-cluster axpy");
        let wide = run_sharded(&job(kind), clusters).expect("sharded axpy");
        let mut expect = y;
        reference::axpy(a_scalar, &x, &mut expect);
        assert_bits_eq(&single.output, &expect, "1-cluster vs reference");
        assert_bits_eq(&wide.output, &single.output, "N-cluster vs 1-cluster");
    }

    /// N-cluster 2-D Laplace stencil == 1-cluster == reference,
    /// bitwise. The dimension-decomposed stencil rounds twice per
    /// element (x pass, then the accumulating y pass), but on the
    /// dyadic grid both roundings are exact, so halo-band sharding
    /// must not change a bit.
    #[test]
    fn stencil_sharding_is_bit_identical(
        (h, w, clusters, grid) in (3u32..24, 3u32..16, 2usize..6)
            .prop_flat_map(|(h, w, clusters)| {
                (Just(h), Just(w), Just(clusters), grid_vec((h * w) as usize))
            })
    ) {
        let kind = JobKind::Stencil2d { height: h, width: w, grid: grid.clone() };
        let single = run_sharded(&job(kind.clone()), 1).expect("single-cluster stencil");
        let wide = run_sharded(&job(kind), clusters).expect("sharded stencil");
        let expect = reference::laplace2d(&grid, h as usize, w as usize);
        assert_bits_eq(&single.output, &expect, "1-cluster vs reference");
        assert_bits_eq(&wide.output, &single.output, "N-cluster vs 1-cluster");
    }
}

/// The numbered job `i` of a mix.
fn numbered(i: usize, kind: &JobKind) -> Job {
    Job::new(i as u64, format!("job-{i}"), kind.clone())
}

/// Everything one farm drive exposes: per-job results, the placement
/// each job landed on, the exact shard retire trace
/// `(job_id, cluster, clock, cycles)`, the fault counters and the farm
/// makespan.
struct Drive {
    results: Vec<JobResult>,
    placements: Vec<Placement>,
    trace: Vec<(u64, usize, u64, u64)>,
    faults: ntx_sched::FaultStats,
    makespan: u64,
}

/// Drives continuous admission over `kinds` under `config`,
/// interleaving `steps_between` shard events after each admission
/// (jobs arrive while earlier ones are mid-flight, as in the live
/// server; 0 admits the whole mix before the first shard runs, as
/// `run_queue` does) and feeding every retire into the duration table.
fn drive(kinds: &[JobKind], config: ScaleOutConfig, steps_between: usize) -> Drive {
    let mut sim = SimulatorBackend::new(config);
    let mut table = DurationTable::new();
    let mut placements = Vec::new();
    let mut trace = Vec::new();
    let mut results: Vec<Option<JobResult>> = kinds.iter().map(|_| None).collect();
    let mut step = |sim: &mut SimulatorBackend, table: &mut DurationTable| {
        let r = sim.step_farm()?;
        table.observe(r.class, r.est_cycles, r.cycles);
        trace.push((r.job_id, r.cluster, r.clock, r.cycles));
        if let Some(res) = r.result {
            let slot = res.job_id as usize;
            results[slot] = Some(res);
        }
        Some(())
    };
    for (i, kind) in kinds.iter().enumerate() {
        let placement = sim
            .admit_continuous(&numbered(i, kind), &table)
            .expect("continuous admission");
        placements.push(placement);
        for _ in 0..steps_between {
            step(&mut sim, &mut table);
        }
    }
    while step(&mut sim, &mut table).is_some() {}
    Drive {
        results: results
            .into_iter()
            .map(|r| r.expect("no job may be lost"))
            .collect(),
        placements,
        trace,
        faults: sim.fault_stats(),
        makespan: sim.farm_makespan(),
    }
}

/// Replays recorded placements into a fresh **barriered** farm of
/// `config`'s memory model ([`Placement::replay`] rebuilds each placed
/// job bit for bit) — the same-placement oracle.
fn replay_barriered(
    kinds: &[JobKind],
    placements: &[Placement],
    config: ScaleOutConfig,
) -> BatchResult {
    let mut farm = ClusterFarm::with_memory(config.clusters, config.cluster, config.memory);
    let placed = kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            placements[i]
                .replay(&numbered(i, kind), farm.reference_cluster())
                .expect("replayed plan")
        })
        .collect();
    farm.run_batch(placed)
}

/// Every job of `kinds` sharded across all clusters of one executor,
/// back to back (`run_job`) — an execution independent of the graded
/// placement: different tile schedules, different DMA traffic.
fn full_width(kinds: &[JobKind], config: ScaleOutConfig) -> Vec<JobResult> {
    let mut exec = ScaleOutExecutor::new(config);
    kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| exec.run_job(&numbered(i, kind)).expect("full-width job"))
        .collect()
}

/// The queue `run_queue` drains for `kinds`.
fn fill(kinds: &[JobKind]) -> JobQueue {
    let mut q = JobQueue::new();
    for (i, kind) in kinds.iter().enumerate() {
        q.job(format!("job-{i}")).kind(kind.clone()).submit();
    }
    q
}

/// External traffic of a set of results: DMA, ext-read and ext-write
/// bytes.
fn traffic(results: &[JobResult]) -> (u64, u64, u64) {
    results
        .iter()
        .flat_map(|j| &j.report.per_cluster)
        .fold((0, 0, 0), |(d, rd, wr), p| {
            (
                d + p.dma_bytes,
                rd + p.ext_bytes_read,
                wr + p.ext_bytes_written,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Continuous admission against three oracles, on random multi-job
    /// mixes across 1..8 clusters: admitting jobs into the *running*
    /// farm — interleaved with shard retirements, placed by the
    /// measured-duration table onto graded cluster subsets — must not
    /// change a simulated bit.
    ///
    /// * the **same-placement barriered** replay shares the per-shard
    ///   simulations by construction (shards execute in admission
    ///   order per cluster in both) — comparing it guards the
    ///   accounting split: per-job outputs, per-cluster `PerfSnapshot`
    ///   deltas and per-job makespans must be bit-identical, the
    ///   barriered window is the back-to-back sum, and the farm's
    ///   overlapped makespan may only be shorter;
    /// * the **full-width** executor (`run_job`, every job across all
    ///   clusters) is an *independent execution* whose per-job outputs
    ///   must still match bitwise. A placement bug (wrong cluster
    ///   subset, cross-job TCDM or external-region clobber) shows up
    ///   here as a bit flip;
    /// * **`run_queue`** is admit-all-then-drain: its results, windows
    ///   and batch makespan equal the drive with no interleaved steps.
    #[test]
    fn continuous_admission_matches_barriered_oracle(
        (kinds, clusters, steps_between) in
            (prop::collection::vec(arb_kind(), 1..6), 1usize..8, 0usize..4)
    ) {
        let config = ScaleOutConfig::with_clusters(clusters);
        let run = drive(&kinds, config, steps_between);
        let oracle = replay_barriered(&kinds, &run.placements, config);
        assert_eq!(run.results.len(), oracle.results.len());
        for (c, o) in run.results.iter().zip(&oracle.results) {
            assert_bits_eq(&c.output, &o.output, "continuous vs barriered output");
            assert_eq!(
                c.report.per_cluster, o.report.per_cluster,
                "per-job PerfSnapshots must be bit-identical across admission modes"
            );
            assert_eq!(c.report.makespan_cycles, o.report.makespan_cycles);
        }
        // Independent oracle: a different sharding must still compute
        // exactly the same bits.
        for (c, f) in run.results.iter().zip(&full_width(&kinds, config)) {
            assert_bits_eq(&c.output, &f.output, "space-shared vs full-width output");
        }
        // Barriered accounting is the back-to-back sum; overlap may
        // only shrink the window, never grow it.
        let sum: u64 = oracle.results.iter().map(|r| r.report.makespan_cycles).sum();
        assert_eq!(oracle.report.makespan_cycles, sum);
        assert!(run.makespan <= oracle.report.makespan_cycles);
        // Virtual farm time is consistent in both accountings: each
        // job's window covers at least its slowest shard, barriered
        // jobs run strictly back to back, and the farm makespan ends
        // when the last job retires.
        let mut prev_finish = 0u64;
        for o in &oracle.results {
            assert_eq!(o.start_cycle, prev_finish);
            assert_eq!(o.finish_cycle - o.start_cycle, o.report.makespan_cycles);
            prev_finish = o.finish_cycle;
        }
        for c in &run.results {
            assert!(c.finish_cycle - c.start_cycle >= c.report.makespan_cycles);
            assert!(c.finish_cycle <= run.makespan);
        }
        assert_eq!(
            run.makespan,
            run.results.iter().map(|r| r.finish_cycle).max().unwrap_or(0)
        );
        // And the farm never invents or loses simulated work.
        let flops: u64 = run.results.iter().map(|r| r.report.total_flops()).sum();
        assert_eq!(flops, oracle.report.total_flops());
        // Graded placement stays within the farm and each job's
        // cluster list is disjoint and ascending.
        for p in &run.placements {
            assert!(!p.clusters.is_empty() && p.clusters.len() <= clusters);
            assert!(p.clusters.windows(2).all(|w| w[0] < w[1]));
        }
        // run_queue admits the whole mix, then drains.
        let batch = ScaleOutExecutor::new(config)
            .run_queue(&mut fill(&kinds))
            .expect("queued batch");
        let upfront = if steps_between == 0 { run } else { drive(&kinds, config, 0) };
        for (q, d) in batch.results.iter().zip(&upfront.results) {
            assert_bits_eq(&q.output, &d.output, "run_queue vs admit-all-then-drain");
            assert_eq!(q.report.per_cluster, d.report.per_cluster);
            assert_eq!((q.start_cycle, q.finish_cycle), (d.start_cycle, d.finish_cycle));
        }
        assert_eq!(batch.report.makespan_cycles, upfront.makespan);
        assert_eq!(batch.report.total_flops(), flops);
    }

    /// Shared-HMC contention against the ideal-memory oracle, on
    /// random multi-job mixes: drawing every DMA ext beat from a
    /// tightly shared vault/LoB budget may only *stretch* timing —
    /// per-job outputs stay bit-identical, external traffic volumes
    /// stay equal, cycles never shrink, and the contended farm's
    /// continuous/barriered differential continues to hold (the
    /// throttled burst fast path is exercised on both drives). The
    /// shared cube is a 1-cube mesh: every cluster is local to it, so
    /// no traffic is ever attributed to a serial link.
    #[test]
    fn shared_hmc_contention_changes_timing_not_data(
        (kinds, clusters) in (prop::collection::vec(arb_kind(), 1..5), 2usize..6)
    ) {
        // 8 GB/s of shared LoB bandwidth: 1.6 words/cycle split across
        // the clusters — a hard throttle against their 1-word ports.
        let hmc = HmcConfig::default().with_interconnect_bits(64);
        // Identical full-width placement in both memory models, so the
        // timing comparison is apples to apples.
        let base = ScaleOutConfig::with_clusters(clusters);
        let shared = base.with_hmc_mesh(MeshConfig::default().with_cubes(1).with_cube(hmc));
        let ri = full_width(&kinds, base);
        let rc = full_width(&kinds, shared);
        for (i, c) in ri.iter().zip(&rc) {
            assert_bits_eq(&i.output, &c.output, "contended vs ideal output");
            assert!(
                c.report.makespan_cycles >= i.report.makespan_cycles,
                "contention must never shrink a job window"
            );
        }
        assert_eq!(traffic(&ri), traffic(&rc), "traffic volume must not change");
        // The contended farm keeps its own differential: space-shared
        // continuous execution vs the barriered same-placement
        // reference, both under the shared HMC.
        let run = drive(&kinds, shared, 0);
        let oracle = replay_barriered(&kinds, &run.placements, shared);
        for (c, o) in run.results.iter().zip(&oracle.results) {
            assert_bits_eq(&c.output, &o.output, "contended continuous vs barriered");
            assert_eq!(
                c.report.per_cluster, o.report.per_cluster,
                "per-job PerfSnapshots must stay bit-identical under contention"
            );
            assert_eq!(c.report.makespan_cycles, o.report.makespan_cycles);
        }
        assert!(run.makespan <= oracle.report.makespan_cycles);
        // And the space-shared contended outputs still match the
        // ideal full-width execution bit for bit.
        for (c, ideal) in run.results.iter().zip(&ri) {
            assert_bits_eq(&c.output, &ideal.output, "contended space-shared vs ideal");
        }
        // One cube: no remote traffic on any drive.
        for p in rc.iter().chain(&run.results).flat_map(|r| r.report.per_cluster.iter()) {
            assert_eq!(p.ext_remote_bytes, 0, "no remote traffic on one cube");
            assert_eq!(p.ext_remote_wait_cycles, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The chaos layer against two oracles, on random multi-job mixes:
    ///
    /// * **determinism** — two runs under the *same* [`FaultPlan`]
    ///   (same seed, same kill, same stall schedule) must agree on
    ///   every observable: per-job output bits, per-job windows, the
    ///   exact shard retire trace and the fault counters. A fault
    ///   layer that consulted ambient randomness or wall time would
    ///   diverge here;
    /// * **bit-identity under recovery** — killing a cluster mid-run
    ///   and re-placing its in-flight and queued shards may change
    ///   timing and placement, but every job still completes with
    ///   outputs **bit-identical** to the fault-free run of the same
    ///   mix: faults perturb scheduling, never data. Transient stalls
    ///   must not even move a shard, so windows match the fault-free
    ///   run exactly modulo the injected dead time.
    #[test]
    fn fault_injection_is_deterministic_and_preserves_bits(
        (kinds, clusters, steps_between, seed, kill_cluster, kill_cycle) in (
            prop::collection::vec(arb_kind(), 1..6),
            2usize..8,
            0usize..4,
            0u64..1000,
            0u32..8,
            1u64..4000,
        )
    ) {
        let plan = ntx_sched::FaultPlan::NONE
            .with_seed(seed)
            .with_kill(kill_cluster % clusters as u32, kill_cycle)
            .with_stalls(64, 1 << 14, 32);
        let config = ScaleOutConfig::with_clusters(clusters);
        let r1 = drive(&kinds, config.with_faults(plan), steps_between);
        let r2 = drive(&kinds, config.with_faults(plan), steps_between);
        assert_eq!(r1.trace, r2.trace, "same plan, same retire trace");
        assert_eq!(r1.faults, r2.faults, "same plan, same fault counters");
        for (a, b) in r1.results.iter().zip(&r2.results) {
            assert_bits_eq(&a.output, &b.output, "same plan, same output bits");
            assert_eq!(
                (a.start_cycle, a.finish_cycle),
                (b.start_cycle, b.finish_cycle),
                "same plan, same job windows"
            );
        }
        // Against the fault-free oracle: zero lost jobs, identical bits.
        let oracle = drive(&kinds, config, steps_between);
        assert_eq!(r1.results.len(), oracle.results.len(), "every submitted job completes");
        for (f, o) in r1.results.iter().zip(&oracle.results) {
            assert_bits_eq(&f.output, &o.output, "faulted vs fault-free output");
        }
        // A different seed keeps the data but may move the timing.
        let reseeded = plan.with_seed(seed.wrapping_add(1));
        let r3 = drive(&kinds, config.with_faults(reseeded), steps_between);
        for (a, b) in r1.results.iter().zip(&r3.results) {
            assert_bits_eq(&a.output, &b.output, "reseeded chaos still exact");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The worker-pool farm against the serial farm, on random
    /// multi-job mixes across every memory model and under seeded
    /// chaos: stepping clusters speculatively on 2..8 pool threads and
    /// merging retires on the `(clock, cluster)` front must be a pure
    /// implementation detail. Per-job output bits, per-cluster
    /// `PerfSnapshot` deltas, job windows, the **exact retire trace**
    /// and the fault counters must all equal the serial farm's — under
    /// mid-shard cluster kills (speculated shards on the dead cluster
    /// are invalidated and re-run on survivors) and transient stalls,
    /// with 1-cube (shared HMC) and 2-cube mesh ports travelling to
    /// the worker threads.
    #[test]
    fn pooled_farm_is_bit_identical_to_serial(
        (kinds, clusters, steps_between, threads, mem_sel, seed, kill_cluster, kill_cycle) in (
            prop::collection::vec(arb_kind(), 1..6),
            2usize..8,
            0usize..4,
            2usize..=8,
            0u8..3,
            0u64..1000,
            0u32..8,
            1u64..4000,
        )
    ) {
        let plan = ntx_sched::FaultPlan::NONE
            .with_seed(seed)
            .with_kill(kill_cluster % clusters as u32, kill_cycle)
            .with_stalls(64, 1 << 14, 32);
        let hmc = HmcConfig::default().with_interconnect_bits(64);
        let base = ScaleOutConfig::with_clusters(clusters).with_faults(plan);
        let base = match mem_sel {
            0 => base,
            1 => base.with_hmc_mesh(MeshConfig::default().with_cubes(1).with_cube(hmc)),
            _ => base.with_hmc_mesh(MeshConfig::default().with_cubes(2).with_cube(hmc)),
        };
        let serial = drive(&kinds, base.with_worker_threads(1), steps_between);
        let pooled = drive(&kinds, base.with_worker_threads(threads), steps_between);
        assert_eq!(pooled.trace, serial.trace, "pooled retire trace must equal the serial trace");
        assert_eq!(pooled.faults, serial.faults, "pooled fault counters must equal the serial counters");
        for (p, s) in pooled.results.iter().zip(&serial.results) {
            assert_bits_eq(&p.output, &s.output, "pooled vs serial output");
            assert_eq!(
                p.report.per_cluster, s.report.per_cluster,
                "per-job PerfSnapshots must be bit-identical across engines"
            );
            assert_eq!(p.report.makespan_cycles, s.report.makespan_cycles);
            assert_eq!(
                (p.start_cycle, p.finish_cycle),
                (s.start_cycle, s.finish_cycle),
                "pooled vs serial job windows"
            );
        }
    }
}

#[test]
fn late_small_job_overtakes_inflight_wave() {
    // A "wave" of three 2000-element AXPYs is admitted together and
    // allowed to start (one shard event retires); then a tiny job
    // arrives LATE. Continuous admission places it on the
    // least-loaded cluster of the running farm, where it retires
    // (virtual farm time) before the wave completes — while the
    // barriered reference of the very same placement parks it behind
    // every wave job.
    let clusters = 4usize;
    let mediums = 3usize;
    let kinds: Vec<JobKind> = (0..mediums)
        .map(|i| {
            let n = 2000 + i * 8;
            JobKind::Axpy {
                a: 1.5,
                x: (0..n).map(|j| (j % 32) as f32 / 16.0).collect(),
                y: vec![1.0; n],
            }
        })
        .chain(std::iter::once(JobKind::Axpy {
            a: 2.0,
            x: vec![0.5; 64],
            y: vec![0.25; 64],
        }))
        .collect();
    let small = kinds.len() - 1;
    let mut sim = SimulatorBackend::new(ScaleOutConfig::with_clusters(clusters));
    let table = DurationTable::new();
    let mut placements = Vec::new();
    let mut results: Vec<Option<JobResult>> = kinds.iter().map(|_| None).collect();
    // The wave goes in first, as one admission group.
    for (i, kind) in kinds[..mediums].iter().enumerate() {
        let job = Job::new(i as u64, format!("job-{i}"), kind.clone());
        placements.push(sim.admit_continuous(&job, &table).expect("admit medium"));
    }
    // One shard retires: the wave is now genuinely in flight.
    let first = sim.step_farm().expect("wave has work");
    assert!(first.result.is_none(), "no wave job may be finished yet");
    // The small job arrives late, into the running farm.
    let job = Job::new(small as u64, format!("job-{small}"), kinds[small].clone());
    placements.push(sim.admit_continuous(&job, &table).expect("admit small"));
    while let Some(r) = sim.step_farm() {
        if let Some(res) = r.result {
            let slot = res.job_id as usize;
            results[slot] = Some(res);
        }
    }
    let finish: Vec<u64> = results
        .iter()
        .map(|r| r.as_ref().expect("job retired").finish_cycle)
        .collect();
    let wave_finish = finish[..mediums].iter().copied().max().unwrap();
    assert!(
        finish[small] < wave_finish,
        "late small job (finish {}) must overtake the in-flight wave (finish {})",
        finish[small],
        wave_finish,
    );
    // Same placement, barriered accounting: the late job waits for the
    // whole wave instead, finishing last — continuous admission is
    // what buys the overtake.
    let oracle = replay_barriered(&kinds, &placements, ScaleOutConfig::with_clusters(clusters));
    let barriered_finish: Vec<u64> = oracle.results.iter().map(|r| r.finish_cycle).collect();
    assert!(
        (0..mediums).all(|m| barriered_finish[small] > barriered_finish[m]),
        "barriered reference should park the late job behind the wave: {barriered_finish:?}"
    );
    assert!(
        finish[small] < barriered_finish[small],
        "continuous admission must complete the late job earlier than the barrier"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Placement is a timing policy, not a data policy: running the
    /// same mix on the same mesh with data-affine placement versus
    /// pure load-ordered (affinity off) may move shards across cubes
    /// and stretch cycles, but per-job outputs and traffic volumes
    /// stay bit-identical.
    #[test]
    fn placement_affinity_changes_timing_not_data(
        kinds in prop::collection::vec(arb_kind(), 1..5)
    ) {
        let mesh = MeshConfig::default()
            .with_cubes(2)
            .with_cube(HmcConfig::default().with_interconnect_bits(64));
        let homed = |kinds: &[JobKind]| {
            let mut q = JobQueue::new();
            for (i, kind) in kinds.iter().enumerate() {
                // Odd jobs pinned to cube 1, even jobs default
                // round-robin — exercises both home paths.
                let b = q.job(format!("job-{i}")).kind(kind.clone());
                if i % 2 == 1 { b.home_cube(1).submit(); } else { b.submit(); }
            }
            q
        };
        let base = ScaleOutConfig::with_clusters(4).with_hmc_mesh(mesh);
        let mut affine = ScaleOutExecutor::new(base);
        let mut naive = ScaleOutExecutor::new(base.without_affinity());
        let ra = affine.run_queue(&mut homed(&kinds)).expect("affine batch");
        let rn = naive.run_queue(&mut homed(&kinds)).expect("naive batch");
        for (a, n) in ra.results.iter().zip(&rn.results) {
            assert_bits_eq(&a.output, &n.output, "affine vs naive placement output");
        }
        assert_eq!(
            traffic(&ra.results),
            traffic(&rn.results),
            "placement must not change traffic volume"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random job DAGs through the live continuous server: for a mixed
    /// GEMM/conv/AXPY/stencil queue with random dependency edges
    /// (`deps[i]` drawn from earlier submissions), served on 1..8
    /// clusters with 1..4 worker-pool threads, with or without a
    /// seeded mid-run cluster kill:
    ///
    /// * **edge safety** — no job's completion is delivered before
    ///   every one of its predecessors' completions (the observable
    ///   form of "never admitted before its predecessors retired");
    /// * **exactness** — every job completes (kills re-place, never
    ///   lose) and its output is bit-identical to a topologically
    ///   ordered serial replay — each job run alone on one fresh
    ///   cluster, which is the exact single-job semantics the DAG
    ///   serving must preserve.
    #[test]
    fn random_dag_completes_in_dependency_order_with_exact_outputs(
        (kinds, edges, clusters, threads, kill) in (
            prop::collection::vec(arb_kind(), 1..6),
            prop::collection::vec(any::<u32>(), 6),
            1usize..8,
            1usize..4,
            (any::<bool>(), 0u64..500, 0u32..8, 1u64..3000),
        )
    ) {
        use std::sync::{Arc, Mutex};
        let n = kinds.len();
        // Bit j of edges[i] draws the edge j -> i (j < i), so every
        // generated graph is a DAG over submission order.
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..i).filter(|j| edges[i] >> j & 1 == 1).collect())
            .collect();
        let mut scale_out = ScaleOutConfig::with_clusters(clusters).with_worker_threads(threads);
        let (kill_on, seed, kill_cluster, kill_cycle) = kill;
        if kill_on {
            scale_out = scale_out.with_faults(
                ntx_sched::FaultPlan::NONE
                    .with_seed(seed)
                    .with_kill(kill_cluster % clusters as u32, kill_cycle),
            );
        }
        let server = ntx_sched::Server::start(ntx_sched::ServerConfig {
            scale_out,
            ..Default::default()
        });
        let session = server.session();
        let outputs = Arc::new(Mutex::new(vec![None::<Vec<f32>>; n]));
        let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::with_capacity(n)));
        let mut ids = Vec::with_capacity(n);
        for (i, kind) in kinds.iter().enumerate() {
            let mut b = session.job(format!("dag-{i}")).kind(kind.clone());
            for &d in &deps[i] {
                b = b.after_id(ids[d]);
            }
            let (outs, ord) = (Arc::clone(&outputs), Arc::clone(&order));
            let id = b
                .submit_callback(move |c| {
                    let r = c.result.expect("DAG job completes");
                    outs.lock().expect("outputs lock")[i] = Some(r.output);
                    ord.lock().expect("order lock").push(i);
                })
                .expect("server running");
            ids.push(id);
        }
        let report = server.shutdown();
        prop_assert_eq!(report.jobs, n as u64, "every DAG job must complete");
        prop_assert_eq!(report.failed, 0, "no DAG job may fail");
        let order = order.lock().expect("order lock").clone();
        prop_assert_eq!(order.len(), n);
        let mut pos = vec![usize::MAX; n];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                prop_assert!(
                    pos[d] < pos[i],
                    "job {} completed before its predecessor {}",
                    i,
                    d
                );
            }
        }
        let outputs = outputs.lock().expect("outputs lock").clone();
        for (i, kind) in kinds.iter().enumerate() {
            let serial = run_sharded(&Job::new(i as u64, format!("dag-{i}"), kind.clone()), 1)
                .expect("serial replay");
            let got = outputs[i].as_ref().expect("output recorded");
            assert_bits_eq(got, &serial.output, "DAG serving vs serial replay output");
        }
    }
}
