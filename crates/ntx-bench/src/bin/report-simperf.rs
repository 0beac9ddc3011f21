//! Measures the simulator's burst fast path against the pure per-cycle
//! reference path on the Table I conv3x3 kernel — both the 8-NTX
//! streaming configuration (bank-contended steady state) and the
//! single-NTX sole-master regime — verifies the simulated outcomes are
//! bit-identical, and records the perf trajectory as `BENCH_sim.json`.

fn main() {
    let r = ntx_bench::simperf_report();
    let doc = ntx_bench::format::simperf_json(&r);
    let title = "Simulator hot loop — burst fast path vs pure per-cycle path";
    print!("{}", ntx_bench::format::text(title, &doc));
    ntx_bench::write_bench("BENCH_sim.json", doc);
    for w in [&r.streaming, &r.single_ntx] {
        if !w.bit_identical || !w.counters_identical {
            eprintln!(
                "ERROR: {} fast-path run diverged from the per-cycle reference",
                w.workload
            );
            std::process::exit(1);
        }
    }
    // Smoke floors well under the expected ratios, so machine noise in
    // CI does not flake the job: the sole-master regime runs ~8x, the
    // contended streaming regime ~2.5x.
    if r.single_ntx.speedup < 5.0 {
        eprintln!(
            "ERROR: single-NTX burst speedup {:.2}x below the 5x floor",
            r.single_ntx.speedup
        );
        std::process::exit(1);
    }
    if r.streaming.speedup < 1.5 {
        eprintln!(
            "ERROR: streaming fast-path speedup {:.2}x below the 1.5x floor",
            r.streaming.speedup
        );
        std::process::exit(1);
    }
}
