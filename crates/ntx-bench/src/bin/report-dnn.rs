//! Serves one whole-network training step (AlexNet forward+backward,
//! compiled to a GEMM job DAG by `ntx_dnn::compile`) through the
//! continuous server on the cycle-accurate simulator and the bit-exact
//! native backend, cross-checks every op's output bitwise, gates the
//! split-K streaming schedule against its resident oracle, and records
//! the measurement as `BENCH_dnn.json`.

fn main() {
    let r = ntx_bench::dnn_report();
    let doc = ntx_bench::format::dnn_json(&r);
    let title = "Whole-network training step as a job DAG";
    print!("{}", ntx_bench::format::text(title, &doc));
    ntx_bench::write_bench("BENCH_dnn.json", doc);
    let mut failed = false;
    // Every run must complete the whole DAG, admit every op, and
    // complete each op after all its predecessors. Completion order is
    // what the gate checks: edges order admission, not simulated
    // start cycles.
    for run in &r.runs {
        if run.jobs != r.ops as u64 || run.failed != 0 {
            eprintln!(
                "ERROR: {} completed {}/{} ops with {} failures",
                run.backend, run.jobs, r.ops, run.failed
            );
            failed = true;
        }
        if !run.order_topological {
            eprintln!(
                "ERROR: {} completed an op before one of its dependencies",
                run.backend
            );
            failed = true;
        }
    }
    // The Kulisch cross-backend gate: simulator and native-exact must
    // agree bit for bit on every op of the step, unconditionally.
    if !r.sim_native_bit_identical {
        eprintln!("ERROR: simulator and native-exact training-step outputs diverged bitwise");
        failed = true;
    }
    // Placement is wall-clock dependent, outputs must not be: two
    // simulator runs of the same DAG have to agree bit for bit.
    if !r.sim_deterministic {
        eprintln!("ERROR: two simulator runs of the same training step diverged bitwise");
        failed = true;
    }
    // Split-K tiling gates: the multi-pass streaming schedule chains
    // the full wide-accumulator image, so both the forced split on a
    // TCDM-fitting GEMM and the deep-K GEMM that *requires* the split
    // must be bit-identical to their single-pass oracles.
    if !r.split_oracle_bit_identical {
        eprintln!("ERROR: forced split-K schedule diverged from the resident oracle bitwise");
        failed = true;
    }
    if !r.deep_split_bit_identical {
        eprintln!("ERROR: deep GEMM (k=6000) split-K run diverged from native exact bitwise");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
