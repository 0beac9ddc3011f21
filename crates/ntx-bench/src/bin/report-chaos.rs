//! Exercises the serving stack's robustness layer — a seeded chaos
//! schedule (cluster kill mid-run, transient stalls, serial-link
//! degradation) against the open-loop load generator — and records the
//! measurement as `BENCH_chaos.json`. Gates:
//!
//! * killing 1 of 8 clusters mid-run loses **zero** jobs, leaves every
//!   output bit-identical to the fault-free run, and degrades the
//!   open-loop makespan by at most `1.5 * 8/7`;
//! * under 2x saturation the server sheds explicitly
//!   (`DeadlineUnmeetable`) and the **accepted**-job p99 stays within
//!   2x of the unsaturated p99;
//! * the degraded serial link stretches remote waits without flipping
//!   a bit, and every async submission gets an explicit outcome.

fn main() {
    let r = ntx_bench::chaos_report();
    let doc = ntx_bench::format::chaos_json(&r);
    let title = "Chaos serving — fault injection, recovery, overload control";
    print!("{}", ntx_bench::format::text(title, &doc));
    ntx_bench::write_bench("BENCH_chaos.json", doc);
    if r.jobs_lost != 0 {
        eprintln!(
            "ERROR: {} jobs lost to the injected cluster kill (recovery must lose zero)",
            r.jobs_lost
        );
        std::process::exit(1);
    }
    if !r.recovery_bit_identical {
        eprintln!("ERROR: fault recovery changed output bits (faults may only perturb timing)");
        std::process::exit(1);
    }
    if r.faults_injected == 0 || r.shards_retried == 0 {
        eprintln!(
            "ERROR: the chaos plan never fired ({} faults, {} retried shards) — \
             the experiment is not exercising recovery",
            r.faults_injected, r.shards_retried
        );
        std::process::exit(1);
    }
    if r.makespan_ratio > r.degradation_bound {
        eprintln!(
            "ERROR: killing one cluster degraded the makespan {:.3}x, above the \
             proportional bound {:.3}x",
            r.makespan_ratio, r.degradation_bound
        );
        std::process::exit(1);
    }
    if r.saturated.shed == 0 {
        eprintln!("ERROR: 2x saturation shed nothing — deadline shedding is not engaging");
        std::process::exit(1);
    }
    if r.p99_ratio > r.p99_bound {
        eprintln!(
            "ERROR: accepted-job p99 grew {:.3}x under 2x saturation, above the {:.1}x \
             bound — shedding is not protecting served latency",
            r.p99_ratio, r.p99_bound
        );
        std::process::exit(1);
    }
    if !r.link_bit_identical {
        eprintln!("ERROR: serial-link degradation changed output bits");
        std::process::exit(1);
    }
    if r.link_wait_faulted_cycles <= r.link_wait_base_cycles {
        eprintln!(
            "ERROR: clipping the serial link did not increase remote waits \
             ({} -> {} cycles) — the degradation is not binding",
            r.link_wait_base_cycles, r.link_wait_faulted_cycles
        );
        std::process::exit(1);
    }
    if !r.async_all_explicit {
        eprintln!(
            "ERROR: async submissions vanished without an explicit outcome \
             ({} submitted, {} completed, {} backpressure)",
            r.async_submitted, r.async_completed, r.async_backpressure
        );
        std::process::exit(1);
    }
    // Informational: unsaturated shedding should be rare, and the
    // saturated run still completes the bulk of accepted work.
    if r.unsaturated.shed > 0 {
        eprintln!(
            "note: unsaturated run shed {} jobs (informational)",
            r.unsaturated.shed
        );
    }
}
