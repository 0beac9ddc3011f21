//! Sweeps streaming conv/GEMM farms from 1 cluster on 1 cube to 64
//! clusters on 8 cubes of the HMC mesh, records the weak-scaling
//! trajectory as `BENCH_mesh.json`, and gates CI on the mesh
//! invariants: data-affine placement keeps 64 clusters near-linear,
//! placement-blind scheduling measurably loses to it, outputs never
//! depend on topology or placement, and a cube's lone port gets the
//! whole pipe (the work-conserving schedule).

fn main() {
    let r = ntx_bench::mesh_report();
    let doc = ntx_bench::format::mesh_json(&r);
    let title = "HMC mesh — weak scaling over cubes, data-affine vs naive placement";
    print!("{}", ntx_bench::format::text(title, &doc));
    ntx_bench::write_bench("BENCH_mesh.json", doc);

    // Gate (c): topology and placement are timing policies — any
    // output bit depending on them is a simulation bug.
    if !r.bit_identical {
        eprintln!("ERROR: mesh outputs diverged from the ideal-memory run");
        std::process::exit(1);
    }
    for curve in [&r.conv, &r.gemm] {
        for p in &curve.points {
            // Memory contention and hop latency can only stretch time.
            if p.affine_makespan_cycles < p.ideal_makespan_cycles {
                eprintln!(
                    "ERROR: {} at {} clusters ran FASTER on the mesh ({} < {} cycles)",
                    curve.workload, p.clusters, p.affine_makespan_cycles, p.ideal_makespan_cycles
                );
                std::process::exit(1);
            }
            if p.naive_makespan_cycles < p.affine_makespan_cycles {
                eprintln!(
                    "ERROR: {} at {} clusters: placement-blind run beat the affine \
                     one ({} < {} cycles) — remote access came out free",
                    curve.workload, p.clusters, p.naive_makespan_cycles, p.affine_makespan_cycles
                );
                std::process::exit(1);
            }
            // Affinity keeps all traffic cube-local; the naive shift
            // pushes every stream over a link once there are ≥ 2 cubes.
            if p.affine_remote_bytes != 0 {
                eprintln!(
                    "ERROR: {} at {} clusters moved {} remote bytes under affine placement",
                    curve.workload, p.clusters, p.affine_remote_bytes
                );
                std::process::exit(1);
            }
            if p.cubes > 1 && p.naive_remote_bytes == 0 {
                eprintln!(
                    "ERROR: {} at {} clusters/{} cubes: naive placement moved no \
                     remote bytes — the control arm is not exercising the links",
                    curve.workload, p.clusters, p.cubes
                );
                std::process::exit(1);
            }
            // Gate (d): while every cube serves exactly one cluster,
            // the work-conserving schedule hands that port the full
            // pipe — the mesh must be cycle-identical to ideal memory.
            if p.clusters == p.cubes as usize && p.affine_makespan_cycles != p.ideal_makespan_cycles
            {
                eprintln!(
                    "ERROR: {} at {} clusters on {} cubes: lone-port cube did not \
                     deliver the full pipe ({} vs {} ideal cycles)",
                    curve.workload,
                    p.clusters,
                    p.cubes,
                    p.affine_makespan_cycles,
                    p.ideal_makespan_cycles
                );
                std::process::exit(1);
            }
        }
        let last = curve.points.last().expect("non-empty sweep");
        // Gate (a): with the data kept cube-local, 64 clusters on 8
        // cubes run in the 8-per-cube regime of the single-cube curve
        // — ≥ 80 % of linear, where one shared cube collapses to ~18 %.
        if last.clusters >= 64 && last.affine_efficiency < 0.80 {
            eprintln!(
                "ERROR: {} at {} clusters/{} cubes held only {:.0}% weak-scaling \
                 efficiency under affine placement (gate: >= 80%)",
                curve.workload,
                last.clusters,
                last.cubes,
                last.affine_efficiency * 100.0
            );
            std::process::exit(1);
        }
        // Gate (b): ignoring affinity at full scale must cost
        // measurable efficiency (link clip + hop latency).
        if last.clusters >= 64 && last.naive_efficiency >= last.affine_efficiency {
            eprintln!(
                "ERROR: {} at {} clusters: naive placement matched affine \
                 ({:.1}% vs {:.1}%) — the affinity gap did not materialise",
                curve.workload,
                last.clusters,
                last.naive_efficiency * 100.0,
                last.affine_efficiency * 100.0
            );
            std::process::exit(1);
        }
    }
}
