//! Gates the bench trajectory: compares every fresh `BENCH_*.json` in
//! the working directory against its committed baseline in
//! `bench/baseline/` and fails on any change, up or down, of a gated
//! cycle-domain metric (they are deterministic), a >50 % growth of the
//! `process` block's peak RSS or minor page faults, or a flipped
//! bit-identity/determinism flag. Wall-clock numbers vary with the host
//! and are never gated.
//!
//! Usage: `bench-diff [baseline_dir]` (default `bench/baseline`).
//! Refresh workflow: rerun the report binaries, inspect the diff, then
//! copy the new `BENCH_*.json` over `bench/baseline/` and commit.

use ntx_bench::diff;

fn main() {
    let baseline_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bench/baseline".into());
    let mut entries: Vec<_> = std::fs::read_dir(&baseline_dir)
        .unwrap_or_else(|e| {
            eprintln!("ERROR: cannot read baseline dir {baseline_dir}: {e}");
            std::process::exit(1);
        })
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        eprintln!("ERROR: no BENCH_*.json baselines in {baseline_dir}");
        std::process::exit(1);
    }
    println!(
        "Bench trajectory vs {baseline_dir} (cycle-domain gate exact, host-memory gate +{:.0}%, \
         wall-clock informational)",
        diff::PROCESS_TOLERANCE * 100.0
    );
    let mut failed = false;
    for name in entries {
        let baseline = std::fs::read_to_string(format!("{baseline_dir}/{name}"))
            .expect("baseline listed by read_dir is readable");
        let fresh = match std::fs::read_to_string(&name) {
            Ok(f) => f,
            Err(e) => {
                println!("  {name:<22} MISSING ({e})");
                eprintln!("ERROR: {name}: fresh report missing — did its report binary run?");
                failed = true;
                continue;
            }
        };
        match diff::compare(&baseline, &fresh) {
            Ok(out) => {
                println!(
                    "  {name:<22} {:>3} cycle metrics, {:>3} flags, {} host metrics  {}",
                    out.gated_numbers,
                    out.gated_bools,
                    out.gated_process,
                    if out.regressions.is_empty() {
                        "ok"
                    } else {
                        "FAIL"
                    }
                );
                for r in &out.regressions {
                    eprintln!("ERROR: {name}: {}: {}", r.path, r.detail);
                    failed = true;
                }
            }
            Err(e) => {
                println!("  {name:<22} UNPARSEABLE");
                eprintln!("ERROR: {name}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!(
            "bench-diff failed. If the change is intended (a new workload, a schema or \
             timing-model change), refresh the baselines: rerun the report binaries, copy \
             the fresh BENCH_*.json into bench/baseline/ and say why in CHANGES.md (see \
             README)."
        );
        std::process::exit(1);
    }
}
