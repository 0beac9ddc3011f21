//! Every public entry point checks its jobs.
//!
//! A job is checked once, where it enters the scheduler
//! (`Job::validate`), and everything behind that point trusts the
//! check. So each entry point must refuse every bad job with a typed
//! [`SchedError`] — never a panic, never a wedged worker — and keep
//! serving: a good job on the same server or executor still succeeds.

use ntx_isa::{AguConfig, Command, ConfigError, LoopNest, NtxConfig, OperandSelect};
use ntx_kernels::blas::GemmKernel;
use ntx_kernels::conv::Conv2dKernel;
use ntx_sched::{
    BackendKind, DurationTable, Job, JobKind, JobQueue, RawJob, ScaleOutConfig, ScaleOutExecutor,
    SchedError, Server, ServerConfig, SimulatorBackend, Tiler,
};
use std::time::Duration;

/// One bad job: its label, its payload, and the error every entry
/// point must answer it with.
type Row = (&'static str, JobKind, fn(&SchedError) -> bool);

fn shape(e: &SchedError) -> bool {
    matches!(e, SchedError::Shape(_))
}

fn axpy(x: usize, y: usize) -> JobKind {
    JobKind::Axpy {
        a: 2.0,
        x: vec![1.0; x],
        y: vec![0.5; y],
    }
}

fn gemm(m: u32, k: u32, n: u32, a: usize) -> JobKind {
    let (dims, b) = (GemmKernel { m, k, n }, vec![0.0; (k * n) as usize]);
    JobKind::Gemm {
        dims,
        a: vec![0.0; a],
        b,
    }
}

fn stencil(side: u32, grid: usize) -> JobKind {
    JobKind::Stencil2d {
        height: side,
        width: side,
        grid: vec![0.0; grid],
    }
}

/// A 4-element MAC reduction raw job around `loops`.
fn raw(loops: LoopNest, result_len: u32) -> JobKind {
    let config = NtxConfig::builder()
        .command(Command::Mac {
            operand: OperandSelect::Memory,
        })
        .loops(loops)
        .agu(0, AguConfig::stream(0x000, 4))
        .agu(1, AguConfig::stream(0x100, 4))
        .agu(2, AguConfig::fixed(0x200))
        .build()
        .expect("the builder accepts every bound up to 65535");
    JobKind::Raw(RawJob {
        config,
        tcdm: vec![(0x000, vec![1.0; 4]), (0x100, vec![1.0; 4])],
        result_addr: 0x200,
        result_len,
    })
}

/// The two raw jobs that killed or wedged the serving worker: a nest
/// of 65535^5 ≈ 2^80 iterations, built through the checked builder,
/// and a literal that skips the builder with a zero loop bound.
fn hostile_raw_rows() -> Vec<Row> {
    let mut zero_bound = raw(LoopNest::vector(4), 1);
    if let JobKind::Raw(r) = &mut zero_bound {
        r.config.loops = LoopNest::vector(0);
    }
    vec![
        (
            "raw nest of 65535^5 iterations",
            raw(LoopNest::nested(&[65_535; 5]), 1),
            |e| matches!(e, SchedError::Capacity(_)),
        ),
        ("raw literal with a zero loop bound", zero_bound, |e| {
            matches!(
                e,
                SchedError::Lowering(ConfigError::ZeroLoopBound { level: 0 })
            )
        }),
    ]
}

fn rows() -> Vec<Row> {
    let conv = JobKind::Conv2d {
        kernel: Conv2dKernel {
            height: 2,
            width: 2,
            k: 3,
            filters: 1,
        },
        image: vec![0.0; 4],
        weights: vec![0.0; 9],
    };
    let mut rows: Vec<Row> = vec![
        ("mismatched axpy lengths", axpy(4, 3), shape),
        ("gemm A shorter than m*k", gemm(2, 2, 2, 3), shape),
        // 65536 * 65536 overflows u32; A holds nothing.
        ("overflowing gemm dims", gemm(65_536, 65_536, 1, 0), shape),
        ("conv kernel larger than its image", conv, shape),
        ("stencil grid shorter than h*w", stencil(4, 15), shape),
        ("2x2 stencil", stencil(2, 4), shape),
        (
            "empty raw result window",
            raw(LoopNest::vector(4), 0),
            shape,
        ),
    ];
    rows.extend(hostile_raw_rows());
    rows
}

/// Submits every row, and then a job with a self edge (only the server
/// takes dependency edges), on every backend through one live session;
/// then a good AXPY on the same server.
fn check_session(rows: &[Row]) {
    let server = Server::start(ServerConfig::with_clusters(2));
    let session = server.session();
    let jobs = rows
        .iter()
        .map(|(label, kind, expect)| (*label, kind.clone(), false, *expect))
        .chain([("self edge", axpy(64, 64), true, shape as fn(&_) -> _)]);
    // The server numbers submissions 0, 1, 2, ... in order.
    let mut next_id = 0;
    for (label, kind, self_edge, expect) in jobs {
        for backend in [
            BackendKind::Simulate,
            BackendKind::Estimate,
            BackendKind::NativeExact,
        ] {
            let job = session.job(label).kind(kind.clone()).backend(backend);
            let job = if self_edge {
                job.after_id(next_id)
            } else {
                job
            };
            let mut handle = job.submit().expect("server running");
            next_id += 1;
            // A job that parks or wedges the worker fails here, not by
            // hanging the test.
            let done = handle.wait_timeout(Duration::from_secs(60));
            match done.expect("the worker answers").expect("in time").result {
                Err(e) => assert!(expect(&e), "{label}, {backend:?}: {e:?}"),
                Ok(_) => panic!("{label}, {backend:?}: accepted"),
            }
        }
    }
    let after = session.job("after").kind(axpy(64, 64)).submit().unwrap();
    assert!(after.wait().unwrap().result.is_ok());
    assert_eq!(server.shutdown().failed, next_id);
}

#[test]
fn hostile_raw_jobs_fail_typed_and_the_server_keeps_serving() {
    check_session(&hostile_raw_rows());
}

#[test]
fn every_entry_point_refuses_every_bad_job() {
    let rows = rows();
    check_session(&rows);

    let config = ScaleOutConfig::with_clusters(2);
    let mut exec = ScaleOutExecutor::new(config);
    let mut sim = SimulatorBackend::new(config);
    let table = DurationTable::new();
    let reference = ntx_sim::Cluster::new(config.cluster);
    for (label, kind, expect) in &rows {
        let bad = Job::new(0, *label, kind.clone());
        // run_queue refuses the batch, names the job and keeps the
        // queue intact.
        let mut queue = JobQueue::new();
        queue.job("good").kind(axpy(64, 64)).submit();
        let bad_id = queue.job(*label).kind(kind.clone()).submit();
        match exec.run_queue(&mut queue) {
            Err(SchedError::Job {
                id,
                label: l,
                source,
            }) => {
                assert_eq!((id, l.as_str()), (bad_id, *label));
                assert!(expect(&source), "{label}, run_queue: {source:?}");
            }
            other => panic!("{label}, run_queue: {other:?}"),
        }
        assert_eq!(queue.len(), 2, "{label}: the queue stays intact");
        let errors = [
            ("run_job", exec.run_job(&bad).err()),
            ("Tiler::plan", Tiler::new(2).plan(&bad, &reference).err()),
            (
                "admit",
                sim.admit_continuous_within(&bad, &table, None).err(),
            ),
        ];
        for (entry, err) in errors {
            assert!(
                err.as_ref().is_some_and(expect),
                "{label}, {entry}: {err:?}"
            );
        }
    }

    let mut queue = JobQueue::new();
    queue.job("good").kind(axpy(64, 64)).submit();
    assert_eq!(exec.run_queue(&mut queue).unwrap().results.len(), 1);
    let good = Job::new(1, "good", axpy(64, 64));
    assert_eq!(exec.run_job(&good).unwrap().output.len(), 64);
    assert_eq!(Tiler::new(2).plan(&good, &reference).unwrap().len(), 2);
    sim.admit_continuous_within(&good, &table, None).unwrap();
    let retired = std::iter::from_fn(|| sim.step_farm()).find_map(|r| r.result);
    assert_eq!(retired.expect("the good job retires").output.len(), 64);
}
