//! A std-only sampler of this process's resource counters from
//! `/proc/self/status` and `/proc/self/stat` (Linux).

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. The
/// kernel reports them in `USER_HZ`, which is 100 on every Linux
/// architecture this benchmark runs on (reading `sysconf` would need
/// libc).
const USER_HZ: f64 = 100.0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// Peak resident set size (`VmHWM`), KiB.
    pub vm_hwm_kb: u64,
    /// Minor page faults so far.
    pub minflt: u64,
    /// User CPU time so far, s.
    pub utime_s: f64,
    /// System CPU time so far, s.
    pub stime_s: f64,
}

impl ProcSample {
    /// Reads the counters of the running process; all zero where
    /// `/proc` is unavailable.
    #[must_use]
    pub fn now() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        Self::parse(&status, &stat).unwrap_or_default()
    }

    /// Parses the text of `/proc/<pid>/status` and `/proc/<pid>/stat`.
    #[must_use]
    pub fn parse(status: &str, stat: &str) -> Option<Self> {
        let vm_hwm_kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()?;
        // The command name (field 2) is parenthesised and may contain
        // spaces; count fields from the last ')'. After it, field 3
        // (state) has index 0, so field k has index k - 3.
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |k: usize| -> Option<u64> { fields.get(k - 3)?.parse().ok() };
        Some(Self {
            vm_hwm_kb,
            minflt: field(10)?,
            utime_s: field(14)? as f64 / USER_HZ,
            stime_s: field(15)? as f64 / USER_HZ,
        })
    }

    /// Peak RSS in MB (10^6 bytes).
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        self.vm_hwm_kb as f64 * 1024.0 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from a running benchmark process (trimmed).
    const STATUS: &str = "Name:\tntx-perfbench\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  612340 kB\nVmSize:\t  612340 kB\nVmHWM:\t  520744 kB\n\
        VmRSS:\t  518312 kB\nThreads:\t2\n";
    const STAT: &str = "41873 (ntx perf) bench) R 41870 41870 41 0 -1 4194304 \
        131622 0 0 0 412 57 0 0 20 0 2 0 9262530 627036160 129578 \
        18446744073709551615 1 1 0 0 0 0 0 4096 17987 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn parses_a_captured_fixture() {
        let s = ProcSample::parse(STATUS, STAT).expect("fixture parses");
        assert_eq!(s.vm_hwm_kb, 520_744);
        assert_eq!(s.minflt, 131_622);
        assert!((s.utime_s - 4.12).abs() < 1e-12);
        assert!((s.stime_s - 0.57).abs() < 1e-12);
        assert!((s.peak_rss_mb() - 533.241_856).abs() < 1e-9);
    }

    #[test]
    fn rejects_truncated_input() {
        assert_eq!(ProcSample::parse("VmRSS:\t1 kB\n", STAT), None);
        assert_eq!(ProcSample::parse(STATUS, "41873 (x) R 1 2"), None);
    }

    #[test]
    fn reads_this_process() {
        let s = ProcSample::now();
        assert!(s.vm_hwm_kb > 0, "VmHWM of a live process is positive");
    }
}
