//! Benchmarks the native host-CPU backend against the cycle-accurate
//! simulator on the serving workload mix — fast-mode throughput,
//! exact-mode bit-identity, fast-mode RMSE against an `f64` reference —
//! and records the measurement as `BENCH_cpu.json`.

fn main() {
    let r = ntx_bench::cpu_report();
    let doc = ntx_bench::format::cpu_json(&r);
    let title = "Native CPU backend vs cycle-accurate simulator";
    print!("{}", ntx_bench::format::text(title, &doc));
    ntx_bench::write_bench("BENCH_cpu.json", doc);
    // Exact mode is the whole point of the Kulisch path: its outputs
    // must match the simulator bit for bit on every workload,
    // unconditionally — no core-count carve-out, no tolerance.
    if !r.exact_bit_identical {
        eprintln!("ERROR: native exact mode diverged from the simulator bitwise");
        std::process::exit(1);
    }
    // Fast-mode throughput gate over the two issue workloads (conv3x3
    // and dot-4096). The simulator models every TCDM bank conflict and
    // controller handshake, so native execution clears 20x even on one
    // core; the CI floor is a conservative 5x and only enforced where
    // the runner has real cores to spend. Narrower hosts still print
    // the measurement.
    if r.host_cores >= 4 {
        if r.gated_fast_speedup < 5.0 {
            eprintln!(
                "ERROR: fast mode measured {:.1}x over the simulator on a {}-core \
                 host (need >= 5x on conv3x3 and dot-4096)",
                r.gated_fast_speedup, r.host_cores
            );
            std::process::exit(1);
        }
    } else {
        println!(
            "  note: {}-core host; gated fast speedup {:.1}x is informational \
             (gate needs >= 4 cores)",
            r.host_cores, r.gated_fast_speedup
        );
    }
}
