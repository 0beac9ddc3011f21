//! The benchmark's own arithmetic: percentile ranks and the modelled
//! energy roll-up.

use ntx_model::power::EnergyModel;
use ntx_sim::PerfSnapshot;

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported: with fewer, the "percentile" is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of all samples at or below it.
/// `None` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = (p / 100.0 * n as f64).ceil() as usize;
    Some(r.clamp(1, n))
}

/// A tail percentile with the number of samples beyond it, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    let rank = rank(sorted.len(), p)?;
    let beyond = sorted.len() - rank;
    (beyond >= MIN_BEYOND).then(|| (sorted[rank - 1], beyond))
}

/// Median by the nearest-rank rule (`None` for no samples).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// Modelled counters of a set of simulated jobs, summed per cluster,
/// with the virtual window they span.
#[derive(Debug, Clone)]
pub struct Rollup {
    /// Per-cluster counter sums (index = cluster id).
    pub per_cluster: Vec<PerfSnapshot>,
    /// Earliest `start_cycle` seen.
    pub first_start: u64,
    /// Latest `finish_cycle` seen.
    pub last_finish: u64,
    /// NTX clock, Hz.
    pub freq_hz: f64,
    /// Jobs folded in.
    pub jobs: u64,
}

impl Rollup {
    /// An empty roll-up over `clusters` clusters.
    #[must_use]
    pub fn new(clusters: usize) -> Self {
        Self {
            per_cluster: vec![PerfSnapshot::default(); clusters],
            first_start: u64::MAX,
            last_finish: 0,
            freq_hz: 0.0,
            jobs: 0,
        }
    }

    /// Folds in one simulated job's per-cluster counters and window.
    pub fn add(&mut self, result: &ntx_sched::JobResult) {
        for (sum, p) in self.per_cluster.iter_mut().zip(&result.report.per_cluster) {
            sum.accumulate(p);
        }
        self.first_start = self.first_start.min(result.start_cycle);
        self.last_finish = self.last_finish.max(result.finish_cycle);
        self.freq_hz = result.report.freq_hz;
        self.jobs += 1;
    }

    /// Modelled time: the last finish cycle minus the first start
    /// cycle (0 when empty).
    #[must_use]
    pub fn makespan_cycles(&self) -> u64 {
        self.last_finish.saturating_sub(self.first_start)
    }

    /// Modelled efficiency in Gflop/s/W: the summed counters priced by
    /// the tape-out energy model over the makespan.
    #[must_use]
    pub fn gflops_per_w(&self) -> f64 {
        EnergyModel::tapeout()
            .scale_out(&self.per_cluster, self.makespan_cycles(), self.freq_hz)
            .flops_per_watt
            / 1e9
    }

    /// Counter totals over all clusters.
    #[must_use]
    pub fn totals(&self) -> PerfSnapshot {
        let mut t = PerfSnapshot::default();
        for p in &self.per_cluster {
            t.accumulate(p);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990, only 9 beyond — suppressed.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 99.0), None);
        // 1000 samples: rank 990, exactly 10 beyond — reported.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 99.0), Some((990.0, 10)));
    }

    #[test]
    fn gflops_per_w_rollup_matches_the_energy_model_by_hand() {
        let snap = PerfSnapshot {
            cycles: 1000,
            flops: 16_000,
            tcdm_reads: 3000,
            tcdm_writes: 1000,
            dma_bytes: 8000,
            ..PerfSnapshot::default()
        };
        let mut report = ntx_sched::ScaleOutReport::new(2, 1.0e9);
        report.per_cluster[0] = snap;
        let result = ntx_sched::JobResult {
            job_id: 0,
            label: "hand-made".into(),
            output: Vec::new(),
            report,
            start_cycle: 500,
            finish_cycle: 1500,
            estimate: None,
            backend: ntx_sched::BackendKind::Simulate,
        };
        let mut r = Rollup::new(2);
        r.add(&result);
        assert_eq!(r.makespan_cycles(), 1000);
        // 1 µs window, two clusters leaking; dynamic energy from the
        // one busy cluster's counters.
        let m = EnergyModel::tapeout();
        let t = 1000.0 / 1.0e9;
        let energy = 2.0 * t * m.p_static
            + 16_000.0 * m.e_flop
            + 4000.0 * m.e_tcdm_access
            + 8000.0 * m.e_axi_byte;
        let expect = 16_000.0 / t / (energy / t) / 1e9;
        assert!((r.gflops_per_w() - expect).abs() < 1e-9 * expect);
    }
}
