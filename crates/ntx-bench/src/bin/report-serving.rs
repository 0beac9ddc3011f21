//! Exercises the layered `ntx-sched` serving stack end to end — the
//! farm with the whole queue admitted before the first shard runs
//! (what `run_queue` does) against the barriered replay of the same
//! placement (bit-identical per job, faster in total) and against the
//! full-width executor, admission interleaved with retires (what the
//! server does) against its own barriered replay (bit-identical, farm
//! makespan within 10% of the up-front admission), the async server
//! under multi-client load, the analytical estimate backend (zero
//! simulator cycles), and the worker-pool core-scaling sweep (1/2/4
//! pool threads, bit-identical to serial, ≥ 1.7x jobs/s at 4 threads
//! on a ≥ 4-core host) — and records the measurement as
//! `BENCH_serving.json`.

fn main() {
    let r = ntx_bench::serving_report();
    let doc = ntx_bench::format::serving_json(&r);
    let title =
        "Serving stack — one farm for every queue runner, analytical backend, async front-end";
    print!("{}", ntx_bench::format::text(title, &doc));
    ntx_bench::write_bench("BENCH_serving.json", doc);
    if !r.bit_identical || !r.snapshots_identical {
        eprintln!("ERROR: the farm diverged from its barriered replay or the full-width reference");
        std::process::exit(1);
    }
    if !r.continuous_bit_identical {
        eprintln!("ERROR: continuous admission diverged from the barriered same-placement oracle");
        std::process::exit(1);
    }
    // The overlap win on this heterogeneous queue is well above the
    // floor; 1.05x guards against a regression to barriered behaviour
    // without flaking on workload tweaks. The independently-executed
    // full-width baseline must be beaten too.
    if r.pipelined_speedup < 1.05 || r.fullwidth_speedup < 1.0 {
        eprintln!(
            "ERROR: pipelined speedup {:.3}x (vs barriered) / {:.3}x (vs full-width) \
             below the 1.05x / 1.0x floors",
            r.pipelined_speedup, r.fullwidth_speedup
        );
        std::process::exit(1);
    }
    if r.estimate_sim_cycles != 0 {
        eprintln!(
            "ERROR: analytical backend spent {} simulator cycles",
            r.estimate_sim_cycles
        );
        std::process::exit(1);
    }
    let st = &r.continuous;
    if st.served_jobs != r.jobs as u64 || st.deadline_misses != 0 {
        eprintln!("ERROR: server dropped jobs or missed generous deadlines");
        std::process::exit(1);
    }
    // The deterministic throughput gate, in simulated farm time:
    // interleaving admission with retires may trade a few percent of
    // makespan for per-job latency, capped at 10% drift versus the
    // same queue admitted up front.
    if r.continuous_makespan_cycles as f64 > 1.10 * r.pipelined_makespan_cycles as f64 {
        eprintln!(
            "ERROR: continuous farm makespan {} drifted more than 10% past the \
             up-front admission's makespan {}",
            r.continuous_makespan_cycles, r.pipelined_makespan_cycles
        );
        std::process::exit(1);
    }
    // The worker pool must be a pure implementation detail: outputs,
    // retire traces and makespans bit-identical to the serial farm at
    // every thread count, unconditionally.
    if !r.pool_bit_identical {
        eprintln!("ERROR: pooled farm diverged from the serial farm");
        std::process::exit(1);
    }
    // The wall-clock core-scaling gate (the PR 7-demoted throughput
    // gate, re-promoted for the pooled farm): 4 pool threads must buy
    // at least 1.7x jobs/s over 1 thread. Only enforceable when the
    // host actually has 4 cores to scale onto; on narrower runners the
    // measurement is printed but cannot gate.
    if r.host_cores >= 4 {
        if r.pool_speedup_4x < 1.7 {
            eprintln!(
                "ERROR: worker pool at 4 threads measured {:.3}x jobs/s vs 1 thread \
                 on a {}-core host (need >= 1.7x)",
                r.pool_speedup_4x, r.host_cores
            );
            std::process::exit(1);
        }
    } else {
        println!(
            "  note: {}-core host cannot scale a 4-thread pool; speedup {:.3}x is \
             informational (gate needs >= 4 cores)",
            r.host_cores, r.pool_speedup_4x
        );
    }
}
