//! Host-memory counters of the report process, written as the
//! `process` block of every `BENCH_*.json`.
//!
//! Cycle metrics say nothing about what a run costs the host. Peak RSS
//! and minor page faults do: a store that zero-fills gigabytes, say,
//! shows up here long before it shows in wall time. `bench-diff` gates
//! both (see [`crate::diff`]).

use crate::diff::Json;

/// The process's host-memory counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct ProcessStats {
    /// Peak resident set size (`VmHWM`), MB (10^6 bytes).
    peak_rss_mb: f64,
    /// Minor page faults so far.
    minor_faults: u64,
}

impl ProcessStats {
    /// Reads the counters of the running process from
    /// `/proc/self/status` and `/proc/self/stat`; all zero where
    /// `/proc` is unavailable.
    fn now() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        Self::parse(&status, &stat).unwrap_or_default()
    }

    /// Parses the text of `/proc/<pid>/status` and `/proc/<pid>/stat`.
    fn parse(status: &str, stat: &str) -> Option<Self> {
        let vm_hwm_kb: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()?;
        // The command name (field 2) is parenthesised and may contain
        // spaces; count fields from the last ')'. After it, field 3
        // (state) has index 0, so field 10 (minflt) has index 7.
        let minor_faults = stat[stat.rfind(')')? + 1..]
            .split_whitespace()
            .nth(7)?
            .parse()
            .ok()?;
        Some(Self {
            peak_rss_mb: vm_hwm_kb as f64 * 1024.0 / 1e6,
            minor_faults,
        })
    }
}

/// Writes a report document to `path` with this process's counters,
/// read now that the report is computed, appended as its top-level
/// `process` block.
///
/// # Panics
///
/// Panics when `report` is not a JSON object or the file cannot be
/// written.
pub fn write_bench(path: &str, report: Json) {
    let Json::Obj(mut fields) = report else {
        panic!("a BENCH report is a JSON object");
    };
    let p = ProcessStats::now();
    let block = vec![
        ("peak_rss_mb".to_owned(), Json::from(p.peak_rss_mb)),
        ("minor_faults".to_owned(), Json::from(p.minor_faults)),
    ];
    fields.push(("process".to_owned(), Json::Obj(block)));
    std::fs::write(path, format!("{}\n", Json::Obj(fields)))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed `/proc` fixture whose command name holds a space and a
    /// `)`, as a real one may.
    const STATUS: &str = "Name:\treport-mesh\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  612340 kB\nVmSize:\t  612340 kB\nVmHWM:\t  520744 kB\n\
        VmRSS:\t  518312 kB\nThreads:\t2\n";
    const STAT: &str = "41873 (report mesh) x) R 41870 41870 41 0 -1 4194304 \
        131622 0 0 0 412 57 0 0 20 0 2 0 9262530 627036160 129578";

    #[test]
    fn parses_a_captured_fixture() {
        let s = ProcessStats::parse(STATUS, STAT).expect("fixture parses");
        assert_eq!(s.minor_faults, 131_622);
        assert!((s.peak_rss_mb - 533.241_856).abs() < 1e-9);
        assert!(ProcessStats::parse("VmRSS:\t1 kB\n", STAT).is_none());
        assert!(ProcessStats::parse(STATUS, "41873 (x) R 1 2").is_none());
    }

    #[test]
    fn write_bench_appends_this_process_counters() {
        let path = std::env::temp_dir().join(format!("BENCH_process_{}.json", std::process::id()));
        let path = path.to_str().expect("temp path is UTF-8");
        write_bench(path, Json::Obj(vec![("cycles".into(), Json::from(7u32))]));
        let text = std::fs::read_to_string(path).expect("written");
        std::fs::remove_file(path).expect("removable");
        let flat = crate::diff::flatten(&crate::diff::parse(&text).expect("parses"));
        assert_eq!(flat[0], ("cycles".into(), Json::Num(7.0)));
        assert_eq!(flat[1].0, "process.peak_rss_mb");
        assert_eq!(flat[2].0, "process.minor_faults");
        for (path, v) in &flat[1..] {
            assert!(
                matches!(v, Json::Num(x) if *x > 0.0),
                "{path} of a live process is positive"
            );
        }
        assert!(text.ends_with("}\n"));
    }
}
