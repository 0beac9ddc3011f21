//! Aggregate measurement records of scale-out runs and serving
//! sessions.

use ntx_model::power::{EnergyModel, ScaleOutEnergy};
use ntx_sim::PerfSnapshot;
use std::time::Duration;

/// Counters of one scale-out window: per-cluster deltas plus the
/// wall-clock (makespan) of the slowest cluster.
#[derive(Debug, Clone)]
pub struct ScaleOutReport {
    /// Clusters in the system (idle ones included).
    pub clusters: usize,
    /// NTX clock, Hz.
    pub freq_hz: f64,
    /// Cycles of the slowest cluster over the window.
    pub makespan_cycles: u64,
    /// Per-cluster counter deltas (index = cluster id).
    pub per_cluster: Vec<PerfSnapshot>,
}

impl ScaleOutReport {
    /// An empty report for `clusters` clusters at `freq_hz`.
    #[must_use]
    pub fn new(clusters: usize, freq_hz: f64) -> Self {
        Self {
            clusters,
            freq_hz,
            makespan_cycles: 0,
            per_cluster: vec![PerfSnapshot::default(); clusters],
        }
    }

    /// Total flops retired by all clusters.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.per_cluster.iter().map(|p| p.flops).sum()
    }

    /// Aggregate achieved performance over the makespan, flop/s.
    #[must_use]
    pub fn flops_per_second(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.total_flops() as f64 / self.makespan_cycles as f64 * self.freq_hz
        }
    }

    /// Mean DMA occupancy: fraction of cluster-cycles in which a DMA
    /// moved data (the copy/compute-overlap figure of §II-E).
    #[must_use]
    pub fn dma_occupancy(&self) -> f64 {
        let total = self.makespan_cycles.saturating_mul(self.clusters as u64);
        if total == 0 {
            0.0
        } else {
            self.per_cluster
                .iter()
                .map(|p| p.dma_busy_cycles)
                .sum::<u64>() as f64
                / total as f64
        }
    }

    /// Engine-cycle fraction lost to TCDM banking stalls, over all
    /// clusters.
    #[must_use]
    pub fn stall_fraction(&self) -> f64 {
        let active: u64 = self.per_cluster.iter().map(|p| p.ntx_active_cycles).sum();
        let stall: u64 = self.per_cluster.iter().map(|p| p.ntx_stall_cycles).sum();
        if active + stall == 0 {
            0.0
        } else {
            stall as f64 / (active + stall) as f64
        }
    }

    /// Banking-conflict probability over all clusters.
    #[must_use]
    pub fn conflict_probability(&self) -> f64 {
        let req: u64 = self.per_cluster.iter().map(|p| p.tcdm_requests).sum();
        let conf: u64 = self.per_cluster.iter().map(|p| p.tcdm_conflicts).sum();
        if req == 0 {
            0.0
        } else {
            conf as f64 / req as f64
        }
    }

    /// Energy/power roll-up through the calibrated model.
    #[must_use]
    pub fn energy(&self, model: &EnergyModel) -> ScaleOutEnergy {
        model.scale_out(&self.per_cluster, self.makespan_cycles, self.freq_hz)
    }

    /// Throughput ratio versus a baseline window of the same total
    /// work (strong-scaling speedup).
    #[must_use]
    pub fn speedup_vs(&self, baseline: &ScaleOutReport) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            baseline.makespan_cycles as f64 / self.makespan_cycles as f64
        }
    }

    /// Strong-scaling efficiency versus a baseline: speedup divided by
    /// the cluster-count ratio (1.0 = perfectly linear).
    #[must_use]
    pub fn scaling_efficiency_vs(&self, baseline: &ScaleOutReport) -> f64 {
        let ratio = self.clusters as f64 / baseline.clusters.max(1) as f64;
        self.speedup_vs(baseline) / ratio
    }
}

/// Aggregate serving statistics of one [`Server`](crate::Server) run,
/// returned by [`Server::shutdown`](crate::Server::shutdown).
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Clusters in the farm.
    pub clusters: usize,
    /// Jobs completed (including failures).
    pub jobs: u64,
    /// Jobs executed bit-accurately on the farm.
    pub simulated: u64,
    /// Jobs answered by the analytical backend.
    pub estimated: u64,
    /// Jobs executed natively on the host CPU (fast or exact mode).
    pub native: u64,
    /// Jobs rejected at admission.
    pub failed: u64,
    /// Non-empty admission groups: batches of submissions the worker
    /// drained from its channel and admitted together.
    pub waves: u64,
    /// Jobs whose wall-clock deadline was missed.
    pub deadline_misses: u64,
    /// Wall-clock seconds from server start to shutdown.
    pub wall_seconds: f64,
    /// Sum of per-job wall-clock latencies.
    pub total_latency: Duration,
    /// Largest per-job wall-clock latency.
    pub max_latency: Duration,
    /// Simulated makespan cycles of the run: the latest cluster
    /// clock of the farm.
    pub makespan_cycles: u64,
    /// Cluster-cycles actually spent executing shards.
    pub busy_cluster_cycles: u64,
    /// Cycles DMAs sat on pending beats while the shared-memory
    /// arbiter granted zero slots, summed over all simulated shards
    /// (zero under ideal private memories).
    pub ext_wait_cycles: u64,
    /// External-memory bytes that crossed a serial link to a remote
    /// mesh cube (zero off-mesh and under perfect data affinity).
    pub ext_remote_bytes: u64,
    /// Cycles attributable to remote-cube access: hop latencies plus
    /// the zero-grant waits of remote shards.
    pub ext_remote_wait_cycles: u64,
    /// Jobs rejected at admission by deadline-aware shedding (the
    /// placement estimate proved their virtual-cycle deadline
    /// unmeetable). Also counted in `failed`.
    pub shed_jobs: u64,
    /// Submissions rejected client-side because the bounded admission
    /// queue was full ([`SchedError::Backpressure`](crate::SchedError));
    /// these never reached the worker and are *not* counted in `jobs`.
    pub backpressure_rejected: u64,
    /// Fault events the chaos plan injected into the farm (cluster
    /// kills and transient stalls that actually fired).
    pub faults_injected: u64,
    /// Shards re-admitted onto surviving clusters after their cluster
    /// was killed.
    pub shards_retried: u64,
    /// Dead cycles injected by transient cluster stalls, summed over
    /// all clusters.
    pub fault_stall_cycles: u64,
    /// Worker threads that stepped the farm: the requested width,
    /// capped at the cluster count because each cluster runs on one
    /// thread (1 = the merge thread ran every shard inline, unless
    /// `pool_shards_merged` shows a 1-thread pool).
    pub worker_threads: usize,
    /// Speculative shard results merged from pool workers (0 when the
    /// farm ran inline).
    pub pool_shards_merged: u64,
    /// Speculated shards invalidated and re-placed because their
    /// cluster was killed (0 when the farm ran inline).
    pub pool_shards_reclaimed: u64,
}

impl ServingReport {
    /// An empty report for a `clusters`-wide farm.
    pub(crate) fn new(clusters: usize) -> Self {
        Self {
            clusters,
            jobs: 0,
            simulated: 0,
            estimated: 0,
            native: 0,
            failed: 0,
            waves: 0,
            deadline_misses: 0,
            wall_seconds: 0.0,
            total_latency: Duration::ZERO,
            max_latency: Duration::ZERO,
            makespan_cycles: 0,
            busy_cluster_cycles: 0,
            ext_wait_cycles: 0,
            ext_remote_bytes: 0,
            ext_remote_wait_cycles: 0,
            shed_jobs: 0,
            backpressure_rejected: 0,
            faults_injected: 0,
            shards_retried: 0,
            fault_stall_cycles: 0,
            worker_threads: 1,
            pool_shards_merged: 0,
            pool_shards_reclaimed: 0,
        }
    }

    /// Completed jobs per wall-clock second. A run too short for the
    /// clock to advance (or one that served nothing) reports 0 rather
    /// than dividing by zero.
    #[must_use]
    pub fn jobs_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 || self.jobs == 0 {
            0.0
        } else {
            self.jobs as f64 / self.wall_seconds
        }
    }

    /// Mean per-job wall-clock latency ([`Duration::ZERO`] when no
    /// jobs were served).
    #[must_use]
    pub fn mean_latency(&self) -> Duration {
        if self.jobs == 0 {
            Duration::ZERO
        } else {
            self.total_latency / u32::try_from(self.jobs).unwrap_or(u32::MAX)
        }
    }

    /// Fraction of cluster-cycles inside the serving makespan that
    /// executed shard work (1.0 = every cluster busy the whole time;
    /// 0.0 for a zero-duration run — the guard against an empty or
    /// estimate-only session).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let total = self.makespan_cycles.saturating_mul(self.clusters as u64);
        if total == 0 {
            0.0
        } else {
            self.busy_cluster_cycles as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(flops: u64, dma_busy: u64) -> PerfSnapshot {
        PerfSnapshot {
            flops,
            dma_busy_cycles: dma_busy,
            ..Default::default()
        }
    }

    #[test]
    fn aggregates_across_clusters() {
        let mut r = ScaleOutReport::new(2, 1.25e9);
        r.makespan_cycles = 1000;
        r.per_cluster = vec![snap(8000, 500), snap(8000, 500)];
        assert_eq!(r.total_flops(), 16_000);
        assert!((r.flops_per_second() - 16.0 * 1.25e9).abs() < 1.0);
        assert!((r.dma_occupancy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn speedup_and_efficiency() {
        let mut base = ScaleOutReport::new(1, 1.25e9);
        base.makespan_cycles = 8000;
        let mut wide = ScaleOutReport::new(4, 1.25e9);
        wide.makespan_cycles = 2500;
        assert!((wide.speedup_vs(&base) - 3.2).abs() < 1e-12);
        assert!((wide.scaling_efficiency_vs(&base) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn serving_rates_guard_zero_duration_runs() {
        // A server shut down before the wall clock advanced (or one
        // that only served estimates, which spend no farm cycles) must
        // report clean zeros, not NaN or a divide panic.
        let r = ServingReport::new(4);
        assert_eq!(r.jobs_per_second(), 0.0);
        assert_eq!(r.occupancy(), 0.0);
        assert_eq!(r.mean_latency(), Duration::ZERO);

        // Jobs served but zero wall time (sub-resolution run).
        let mut r = ServingReport::new(4);
        r.jobs = 3;
        r.wall_seconds = 0.0;
        assert_eq!(r.jobs_per_second(), 0.0);
        assert!(r.jobs_per_second().is_finite());

        // Estimate-only session: jobs counted, no makespan cycles.
        r.makespan_cycles = 0;
        r.busy_cluster_cycles = 0;
        assert_eq!(r.occupancy(), 0.0);
        assert!(r.occupancy().is_finite());

        // And a normal run still computes real rates.
        r.wall_seconds = 2.0;
        r.makespan_cycles = 100;
        r.busy_cluster_cycles = 200;
        assert!((r.jobs_per_second() - 1.5).abs() < 1e-12);
        assert!((r.occupancy() - 0.5).abs() < 1e-12);
    }
}
