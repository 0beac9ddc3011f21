//! Sweeps 1..64 clusters of streaming conv/GEMM against the shared
//! HMC bandwidth model, records the saturation trajectory as
//! `BENCH_hmc.json`, and gates CI on the sanity invariants: contention
//! may only stretch timing (never touch data), the ≤ 8-cluster regime
//! must stay near the PR 1 scaling numbers, and 64 clusters must be
//! clearly memory-bound saturated.

fn main() {
    let r = ntx_bench::hmc_report();
    let doc = ntx_bench::format::hmc_json(&r);
    let title = "Shared HMC — weak-scaling saturation under the vault/LoB budget";
    print!("{}", ntx_bench::format::text(title, &doc));
    ntx_bench::write_bench("BENCH_hmc.json", doc);

    if !r.bit_identical {
        eprintln!("ERROR: shared-HMC outputs diverged from the ideal-memory run");
        std::process::exit(1);
    }
    for curve in [&r.conv, &r.gemm] {
        for p in &curve.points {
            // Contention can only ever stretch timing.
            if p.contended_makespan_cycles < p.ideal_makespan_cycles {
                eprintln!(
                    "ERROR: {} at {} clusters ran FASTER contended ({} < {} cycles)",
                    curve.workload,
                    p.clusters,
                    p.contended_makespan_cycles,
                    p.ideal_makespan_cycles
                );
                std::process::exit(1);
            }
            // The PR 1 regime: with ≤ 8 ports on the 6.4-word budget
            // the sweep must stay near linear — the measured floors
            // are ~0.80 (gemm, pure streaming share) and ~0.95 (conv,
            // compute hides most of the clip), gated with margin.
            if p.clusters <= 8 && p.efficiency < 0.70 {
                eprintln!(
                    "ERROR: {} at {} clusters fell to {:.0}% efficiency — the \
                     ≤8-cluster regime must stay near the PR 1 scaling numbers",
                    curve.workload,
                    p.clusters,
                    p.efficiency * 100.0
                );
                std::process::exit(1);
            }
            // The saturated regime: past the budget the curve must
            // collapse towards budget/(clusters × port) — well below
            // half of linear at 64 clusters.
            if p.clusters >= 64 && p.efficiency >= 0.50 {
                eprintln!(
                    "ERROR: {} at {} clusters kept {:.0}% efficiency — the memory-bound \
                     saturation did not materialise",
                    curve.workload,
                    p.clusters,
                    p.efficiency * 100.0
                );
                std::process::exit(1);
            }
        }
        // Saturation also means the achieved aggregate bandwidth
        // plateaus at (or under) the shared budget once oversubscribed.
        let last = curve.points.last().expect("non-empty sweep");
        if last.achieved_ext_bandwidth > 1.02 * r.shared_bandwidth {
            eprintln!(
                "ERROR: {} achieved {:.1} GB/s, above the {:.1} GB/s shared budget",
                curve.workload,
                last.achieved_ext_bandwidth / 1e9,
                r.shared_bandwidth / 1e9
            );
            std::process::exit(1);
        }
    }
}
