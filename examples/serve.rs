//! Serve: many clients, one always-on cluster farm, three backends.
//!
//! Demonstrates the `ntx-sched` serving stack: client threads hold
//! cloned [`ntx::sched::Session`]s on the async server and build a mix
//! of GEMM / convolution / AXPY / stencil jobs (plus an instant
//! analytical estimate) with the fluent `JobBuilder`; the worker
//! admits each job into the *running* four-cluster farm the moment it
//! arrives (continuous admission), places it on the
//! least-loaded clusters using measured-duration feedback, and
//! delivers completions through handles and callbacks as each job's
//! last shard retires.
//!
//! New in this demo: **mixed-backend queues**. One client routes its
//! jobs to the native host-CPU backend ([`ntx::cpu`]) instead of the
//! simulator — `.native_exact()` answers bit-identically to the
//! cycle-accurate farm (every reduction through the Kulisch
//! accumulator), `.native_fast()` answers at multi-accumulator SIMD
//! speed. The demo submits the same convolution all three ways through
//! one session, checks the exact output against the simulated bits,
//! and prints the measured latency speedups plus the fast-mode RMSE
//! against exact.
//!
//! The demo then runs twice — serial farm, then a 4-thread worker
//! pool ([`ServerConfig::with_worker_threads`]) — and prints the
//! measured wall-clock speedup: pool workers step the clusters
//! speculatively while the merge front keeps every output and retire
//! event bit-identical to the serial farm.
//!
//! Run with `cargo run --release --example serve`.

use ntx::kernels::blas::GemmKernel;
use ntx::kernels::conv::Conv2dKernel;
use ntx::sched::{Server, ServerConfig, Session};
use std::time::Duration;

/// The same convolution submitted to all three executing backends
/// through one session: the simulator (the accuracy oracle), native
/// exact (must match it bitwise), and native fast (approximate, at
/// wire speed). Prints latencies, speedups, and the fast-vs-exact
/// RMSE.
fn mixed_backend_showdown() {
    let server = Server::start(ServerConfig::with_clusters(4));
    let session = server.session();
    let kernel = Conv2dKernel {
        height: 66,
        width: 63,
        k: 3,
        filters: 4,
    };
    let image = data(66 * 63, 0xe1);
    let weights = data(9 * 4, 0xe2);
    let submit = |label: &str| {
        session
            .job(label)
            .conv2d(kernel, image.clone(), weights.clone())
    };
    let sim = submit("conv3x3 (simulated)").submit().expect("running");
    let exact = submit("conv3x3 (native exact)")
        .native_exact()
        .submit()
        .expect("running");
    let fast = submit("conv3x3 (native fast)")
        .native_fast()
        .submit()
        .expect("running");
    let sim = sim.wait().expect("served");
    let exact = exact.wait().expect("served");
    let fast = fast.wait().expect("served");
    let sim_out = &sim.result.as_ref().expect("valid").output;
    let exact_out = &exact.result.as_ref().expect("valid").output;
    let fast_out = &fast.result.as_ref().expect("valid").output;
    assert!(
        sim_out
            .iter()
            .zip(exact_out)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "native exact must match the simulator bitwise"
    );
    let exact_f64: Vec<f64> = exact_out.iter().map(|&v| f64::from(v)).collect();
    let err = ntx::fpu::rmse(fast_out, &exact_f64);
    println!("mixed-backend showdown: one conv3x3 job, three backends, one session");
    println!(
        "  simulated    {:>12?}   (the accuracy oracle)",
        sim.latency
    );
    println!(
        "  native exact {:>12?}   {:.0}x faster, bit-identical to the simulator",
        exact.latency,
        sim.latency.as_secs_f64() / exact.latency.as_secs_f64().max(f64::MIN_POSITIVE)
    );
    println!(
        "  native fast  {:>12?}   {:.0}x faster, rmse {:.3e} (max abs err {:.3e}) vs exact",
        fast.latency,
        sim.latency.as_secs_f64() / fast.latency.as_secs_f64().max(f64::MIN_POSITIVE),
        err.rmse,
        err.max_abs_err
    );
    let report = server.shutdown();
    println!(
        "  served {} jobs: {} simulated, {} native\n",
        report.jobs, report.simulated, report.native
    );
}

fn data(n: usize, mut seed: u32) -> Vec<f32> {
    (0..n)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            (seed as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Each client builds and submits its jobs through its own session.
fn run_client(session: &Session, client: u32) -> Vec<ntx::sched::JobHandle> {
    let deadline = Duration::from_secs(60);
    match client {
        0 => vec![
            session
                .job("conv3x3 66x63x4")
                .conv2d(
                    Conv2dKernel {
                        height: 66,
                        width: 63,
                        k: 3,
                        filters: 4,
                    },
                    data(66 * 63, 0xa1),
                    data(9 * 4, 0xa2),
                )
                .priority(2)
                .deadline(deadline)
                .submit()
                .expect("server running"),
            session
                .job("axpy 4096")
                .axpy(2.0, data(4096, 0xa3), data(4096, 0xa4))
                .deadline(deadline)
                .submit()
                .expect("server running"),
        ],
        1 => vec![
            session
                .job("gemm 48x32x24")
                .gemm(
                    GemmKernel {
                        m: 48,
                        k: 32,
                        n: 24,
                    },
                    data(48 * 32, 0xb1),
                    data(32 * 24, 0xb2),
                )
                .priority(1)
                .deadline(deadline)
                .submit()
                .expect("server running"),
            session
                .job("stencil 60x33")
                .stencil2d(60, 33, data(60 * 33, 0xb3))
                .deadline(deadline)
                .submit()
                .expect("server running"),
        ],
        2 => vec![session
            .job("gemm 512x512x512 (estimate)")
            .gemm(
                GemmKernel {
                    m: 512,
                    k: 512,
                    n: 512,
                },
                data(512 * 512, 0xc1),
                data(512 * 512, 0xc2),
            )
            .estimate()
            .priority(3)
            .submit()
            .expect("server running")],
        // Client 3 wants answers now: native host-CPU execution,
        // sharing the queue with everyone's simulated jobs.
        _ => vec![
            session
                .job("gemm 64x48x32 (native exact)")
                .gemm(
                    GemmKernel {
                        m: 64,
                        k: 48,
                        n: 32,
                    },
                    data(64 * 48, 0xc3),
                    data(48 * 32, 0xc4),
                )
                .native_exact()
                .deadline(deadline)
                .submit()
                .expect("server running"),
            session
                .job("stencil 80x44 (native fast)")
                .stencil2d(80, 44, data(80 * 44, 0xc5))
                .native_fast()
                .deadline(deadline)
                .submit()
                .expect("server running"),
        ],
    }
}

fn main() {
    mixed_backend_showdown();
    // First pass: the inline farm (worker_threads = 1); second pass:
    // a 4-thread worker pool. Same jobs, same simulated cycles —
    // only the wall clock changes.
    let serial_jps = run_demo(1, true);
    let pooled_jps = run_demo(4, false);
    if serial_jps > 0.0 && pooled_jps > 0.0 {
        println!(
            "  worker pool: {:.1} jobs/s serial vs {:.1} jobs/s on 4 threads \
             ({:.2}x wall-clock speedup, outputs bit-identical by construction)",
            serial_jps,
            pooled_jps,
            pooled_jps / serial_jps
        );
    }
}

/// Runs the whole client mix on a farm with `threads` pool workers
/// and returns the measured wall-clock jobs/s.
fn run_demo(threads: usize, verbose: bool) -> f64 {
    let server = Server::start(ServerConfig::with_clusters(4).with_worker_threads(threads));

    // A callback completion: fired on the worker thread.
    let (cb_tx, cb_rx) = std::sync::mpsc::channel();
    server
        .session()
        .job("axpy 1000 (callback)")
        .axpy(0.5, data(1000, 0xd1), data(1000, 0xd2))
        .submit_callback(move |completion| drop(cb_tx.send(completion)))
        .expect("server running");

    // Four clients submit concurrently through cloned sessions; the
    // fourth routes its jobs to the native CPU backend.
    let mut clients = Vec::new();
    for c in 0..4u32 {
        let session = server.session();
        clients.push(std::thread::spawn(move || {
            run_client(&session, c)
                .into_iter()
                .map(|h| h.wait().expect("served"))
                .collect::<Vec<_>>()
        }));
    }

    println!(
        "serve demo: 4 clients + 1 callback on a 4-cluster continuous farm \
         ({threads} pool thread{})",
        if threads == 1 { "" } else { "s" }
    );
    for (c, t) in clients.into_iter().enumerate() {
        for done in t.join().expect("client thread") {
            let r = done.result.expect("valid job");
            if verbose {
                match (r.backend, r.estimate) {
                    (ntx::sched::BackendKind::Estimate, Some(e)) => println!(
                        "  client {c}: {:<28} estimated {:>9} cycles ({}-bound, {} shards) in {:?}",
                        r.label,
                        e.cycles,
                        if e.compute_bound { "compute" } else { "memory" },
                        e.shards,
                        done.latency,
                    ),
                    (
                        ntx::sched::BackendKind::NativeFast | ntx::sched::BackendKind::NativeExact,
                        _,
                    ) => {
                        println!(
                            "  client {c}: {:<28} native CPU, {:>6} outputs, in {:?}",
                            r.label,
                            r.output.len(),
                            done.latency,
                        );
                    }
                    _ => println!(
                        "  client {c}: {:<28} {:>9} cycles on the farm, {:>6} outputs, in {:?}",
                        r.label,
                        r.report.makespan_cycles,
                        r.output.len(),
                        done.latency,
                    ),
                }
            }
            assert!(!done.deadline_missed);
        }
    }
    let cb = cb_rx.recv().expect("callback fired");
    if verbose {
        println!(
            "  callback : {:<28} {:>9} cycles, delivered on the worker thread",
            "axpy 1000 (callback)",
            cb.result.expect("valid job").report.makespan_cycles
        );
    }

    let report = server.shutdown();
    println!(
        "  served {} jobs ({} simulated, {} estimated, {} native) in {:.2} s — \
         {:.1} jobs/s, occupancy {:.0}%, {} deadline misses, {} pool merges",
        report.jobs,
        report.simulated,
        report.estimated,
        report.native,
        report.wall_seconds,
        report.jobs_per_second(),
        report.occupancy() * 100.0,
        report.deadline_misses,
        report.pool_shards_merged,
    );
    report.jobs_per_second()
}
