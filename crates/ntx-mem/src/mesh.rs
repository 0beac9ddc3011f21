//! A multi-cube HMC mesh: the scale-out memory substrate of the
//! companion paper ("A Scalable Near-Memory Architecture for Training
//! Deep Neural Networks on Large In-Memory Datasets").
//!
//! One [`HmcSubsystem`] models the bandwidth wall of a single cube —
//! past ~8 clusters everything queues on one 32 GB/s LoB pipe. The
//! scale-out architecture breaks that wall by spreading the processing
//! clusters across *many* cubes connected by their serial links, and
//! keeping each job's traffic local to the cube that owns its operand
//! data. [`HmcMesh`] models exactly that: `cubes` independent
//! [`HmcSubsystem`]s, each arbitrating only the clusters physically
//! attached to it, plus a serial-link hop model for the traffic that
//! *isn't* local.
//!
//! ## Topology and placement
//!
//! `clusters` clusters are block-partitioned over `cubes` cubes in
//! index order ([`HmcMesh::cube_of`]), so consecutive cluster indices
//! share a cube exactly as consecutive NTX clusters share a LoB. Each
//! job's operand region lives on a *home cube* ([`HmcMesh::home_of`]:
//! an explicit assignment, or round-robin by job id). A cluster
//! reading its own cube's data gets a local port — the cube's fair
//! slot schedule over its attached clusters only, so an 8-cube mesh
//! with one cluster per cube hands every cluster the full per-cube
//! pipe. A cluster reading a *remote* cube's data gets a port whose
//! slot budget is pre-clipped to the *minimum* of (a) the LoB share
//! the home cube would hand one extra round-robin party beyond its
//! attached clusters and (b) its share of one serial link,
//! time-shared by the source cube's clusters — remote traffic can
//! never beat the link.
//!
//! ## Determinism
//!
//! Remote grants reuse the exact Q16 slot arithmetic of the single
//! cube (a 1-contender [`HmcPort`] with the clipped budget), so every
//! port in the mesh remains a pure function of
//! `(cycle, geometry, budgets)`: farm clusters still simulate
//! independently (on any worker thread) and runs are
//! bit-reproducible. Like the single cube, the mesh arbitrates
//! *timing only* — backing stores are private per cluster (each
//! cluster's own [`ExtMemory`](crate::ExtMemory)), so outputs are
//! bit-identical to an ideal-memory run. The remote schedule is
//! deliberately open-loop: the home cube's local ports do not observe
//! remote contenders (each side prices the other statically), which
//! keeps the no-lock-step property at the cost of a slightly
//! optimistic aggregate during mixed local/remote bursts.
//!
//! A 1-cube mesh is the single shared cube of Fig. 1: every cluster is
//! local, the lone cube arbitrates all of them, and no link cap is
//! ever constructed.

use crate::hmc::{HmcConfig, HmcPort, HmcSubsystem, SLOT_FP_BITS};

/// Organisation of the mesh: how many cubes, what each cube is, and
/// what an off-cube hop costs on top of the bandwidth clip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshConfig {
    /// Number of HMC cubes in the mesh.
    pub cubes: u32,
    /// Organisation of each cube (all cubes are identical).
    pub cube: HmcConfig,
    /// One-way serial-link latency charged once per remote shard, in
    /// NTX cycles (SerDes + NoC traversal; ~50 ns at 1.25 GHz).
    pub link_latency_cycles: u32,
}

impl Default for MeshConfig {
    /// A four-cube mesh of Fig. 1 cubes with a 64-cycle hop.
    fn default() -> Self {
        Self {
            cubes: 4,
            cube: HmcConfig::default(),
            link_latency_cycles: 64,
        }
    }
}

impl MeshConfig {
    /// The same mesh with `cubes` cubes.
    #[must_use]
    pub fn with_cubes(mut self, cubes: u32) -> Self {
        self.cubes = cubes;
        self
    }

    /// The same mesh with every cube replaced by `cube`.
    #[must_use]
    pub fn with_cube(mut self, cube: HmcConfig) -> Self {
        self.cube = cube;
        self
    }

    /// The same mesh with a different one-way hop latency.
    #[must_use]
    pub fn with_link_latency(mut self, cycles: u32) -> Self {
        self.link_latency_cycles = cycles;
        self
    }

    /// Aggregate DRAM bandwidth of the whole mesh, bytes/s.
    #[must_use]
    pub fn total_bandwidth(&self) -> f64 {
        f64::from(self.cubes) * self.cube.shared_bandwidth()
    }
}

/// The multi-cube memory subsystem: per-cube [`HmcSubsystem`]s plus
/// the serial-link model for remote traffic.
///
/// # Example
///
/// ```
/// use ntx_mem::hmc::HmcConfig;
/// use ntx_mem::mesh::{HmcMesh, MeshConfig};
///
/// // 8 clusters over 4 cubes: 2 clusters per cube, so a local port
/// // shares a 6.4-word pipe two ways instead of eight ways.
/// let mesh = HmcMesh::new(MeshConfig::default(), 8, 1.25e9, 1);
/// assert_eq!(mesh.cube_of(5), 2);
/// assert_eq!(mesh.attached(2), 2);
/// // Home cubes default to round-robin by job id.
/// assert_eq!(mesh.home_of(6, None), 2);
/// assert_eq!(mesh.home_of(6, Some(1)), 1);
/// // One 4-word cluster per cube: the local port owns its cube's
/// // pipe, while a remote read is clipped to the 3.2 w/c an extra
/// // LoB contender would see — below the port width, so it throttles.
/// let mesh = HmcMesh::new(MeshConfig::default(), 4, 1.25e9, 4);
/// assert!(!mesh.port(3, 3).throttles());
/// assert!(mesh.port(3, 0).throttles());
/// ```
#[derive(Debug)]
pub struct HmcMesh {
    config: MeshConfig,
    clusters: u32,
    /// Cube `k` owns clusters `starts[k]..starts[k + 1]`.
    starts: Vec<u32>,
    cubes: Vec<HmcSubsystem>,
    /// Q16 word-slot budget of one serial link at the NTX clock.
    link_budget_q16: u64,
}

impl HmcMesh {
    /// Builds the mesh for `clusters` clusters whose AXI ports move
    /// `port_words_per_cycle` 32-bit words per NTX cycle at
    /// `ntx_freq_hz`, block-partitioned over `config.cubes` cubes.
    ///
    /// # Panics
    ///
    /// Panics when the mesh has no cubes, when there are fewer
    /// clusters than cubes (a cube with no attached cluster has no
    /// port to model), or on the degenerate parameters
    /// [`HmcSubsystem::new`] rejects.
    #[must_use]
    pub fn new(
        config: MeshConfig,
        clusters: u32,
        ntx_freq_hz: f64,
        port_words_per_cycle: u32,
    ) -> Self {
        assert!(config.cubes > 0, "mesh needs at least one cube");
        assert!(
            clusters >= config.cubes,
            "every cube needs at least one attached cluster \
             ({clusters} clusters < {} cubes)",
            config.cubes
        );
        // `starts[k]` is the first cluster whose `cube_of` is `k`:
        // the ceil counterpart of the floor in `cube_of`.
        let starts: Vec<u32> = (0..=config.cubes)
            .map(|k| {
                ((u64::from(k) * u64::from(clusters)).div_ceil(u64::from(config.cubes))) as u32
            })
            .collect();
        let cubes = (0..config.cubes)
            .map(|k| {
                let attached = starts[k as usize + 1] - starts[k as usize];
                HmcSubsystem::new(config.cube, attached, ntx_freq_hz, port_words_per_cycle)
            })
            .collect();
        let link_words = config.cube.link_bandwidth / (4.0 * ntx_freq_hz);
        let link_budget_q16 = (link_words * f64::from(1u32 << SLOT_FP_BITS)).round() as u64;
        assert!(
            link_budget_q16 > 0,
            "link budget rounds to zero words/cycle"
        );
        Self {
            config,
            clusters,
            starts,
            cubes,
            link_budget_q16,
        }
    }

    /// The mesh organisation.
    #[must_use]
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Number of attached clusters across the whole mesh.
    #[must_use]
    pub fn clusters(&self) -> u32 {
        self.clusters
    }

    /// Number of cubes.
    #[must_use]
    pub fn cubes(&self) -> u32 {
        self.config.cubes
    }

    /// The cube cluster `cluster` is physically attached to (block
    /// partition in index order).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cube_of(&self, cluster: u32) -> u32 {
        assert!(cluster < self.clusters, "cluster index out of range");
        (u64::from(cluster) * u64::from(self.config.cubes) / u64::from(self.clusters)) as u32
    }

    /// Number of clusters attached to `cube`.
    ///
    /// # Panics
    ///
    /// Panics if `cube` is out of range.
    #[must_use]
    pub fn attached(&self, cube: u32) -> u32 {
        assert!(cube < self.config.cubes, "cube index out of range");
        self.starts[cube as usize + 1] - self.starts[cube as usize]
    }

    /// This cluster's port rank within its own cube.
    fn rank_in_cube(&self, cluster: u32) -> u32 {
        cluster - self.starts[self.cube_of(cluster) as usize]
    }

    /// Resolves a job's home cube: the explicit request wrapped into
    /// range, or round-robin over the cubes by job id — the default
    /// that spreads an un-annotated job stream evenly over the mesh.
    #[must_use]
    pub fn home_of(&self, job_id: u64, explicit: Option<u32>) -> u32 {
        match explicit {
            Some(cube) => cube % self.config.cubes,
            None => (job_id % u64::from(self.config.cubes)) as u32,
        }
    }

    /// True when `cluster` is attached to `home_cube` — its traffic
    /// stays on-cube and pays no link cost.
    #[must_use]
    pub fn is_local(&self, cluster: u32, home_cube: u32) -> bool {
        self.cube_of(cluster) == home_cube % self.config.cubes
    }

    /// One-way hop latency for a remote shard, NTX cycles.
    #[must_use]
    pub fn link_latency_cycles(&self) -> u32 {
        self.config.link_latency_cycles
    }

    /// The grant schedule `cluster` sees when its operands live on
    /// `home_cube`. Local: the home cube's slot schedule over its
    /// attached clusters. Remote: a 1-contender schedule whose budget
    /// is the minimum of the LoB share the home cube would hand one
    /// extra contender and this cluster's share of one serial link
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` or `home_cube` is out of range, or if the
    /// remote share rounds to zero words per cycle (the port would
    /// starve forever).
    #[must_use]
    pub fn port(&self, cluster: u32, home_cube: u32) -> HmcPort {
        assert!(home_cube < self.config.cubes, "home cube out of range");
        let own = self.cube_of(cluster);
        if own == home_cube {
            return self.cubes[own as usize].port(self.rank_in_cube(cluster));
        }
        let home = &self.cubes[home_cube as usize];
        let lob_share = home.budget_q16 / (u64::from(home.ports) + 1);
        let link_share = self.link_budget_q16 / u64::from(self.attached(own));
        let budget_q16 = lob_share.min(link_share);
        assert!(budget_q16 > 0, "remote share rounds to zero words/cycle");
        HmcPort {
            index: 0,
            ports: 1,
            port_words_per_cycle: home.port_words_per_cycle,
            budget_q16,
            degrade: None,
        }
    }

    /// Shared slot budget of one cube, words per NTX cycle.
    #[must_use]
    pub fn shared_words_per_cycle(&self) -> f64 {
        self.cubes[0].shared_words_per_cycle()
    }

    /// Slot budget of one serial link, words per NTX cycle.
    #[must_use]
    pub fn link_words_per_cycle(&self) -> f64 {
        self.link_budget_q16 as f64 / f64::from(1u32 << SLOT_FP_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pooled farm wires per-cube ports into clusters living on
    /// worker threads; the mesh and its ports must stay `Send`.
    #[test]
    fn mesh_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<HmcMesh>();
    }

    #[test]
    fn block_partition_is_contiguous_and_balanced() {
        let mesh = HmcMesh::new(MeshConfig::default().with_cubes(4), 10, 1.25e9, 1);
        let cubes: Vec<u32> = (0..10).map(|c| mesh.cube_of(c)).collect();
        assert_eq!(cubes, vec![0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
        assert_eq!(
            (0..4).map(|k| mesh.attached(k)).collect::<Vec<_>>(),
            vec![3, 2, 3, 2]
        );
        assert_eq!((0..4).map(|k| mesh.attached(k)).sum::<u32>(), 10);
    }

    #[test]
    fn one_cube_mesh_degenerates_to_single_subsystem() {
        // The degeneracy anchor: every port of a 1-cube mesh must be
        // bitwise the port a standalone HmcSubsystem would hand out.
        let mesh = HmcMesh::new(MeshConfig::default().with_cubes(1), 8, 1.25e9, 1);
        let sub = HmcSubsystem::new(HmcConfig::default(), 8, 1.25e9, 1);
        for c in 0..8 {
            assert_eq!(mesh.port(c, 0), sub.port(c));
        }
    }

    #[test]
    fn local_ports_share_only_their_own_cube() {
        // 8 clusters on 8 cubes: each cube arbitrates one port, so the
        // mesh-level schedule is work-conserving — every cluster gets
        // the full per-cube pipe instead of 1/8 of one cube.
        let mesh = HmcMesh::new(MeshConfig::default().with_cubes(8), 8, 1.25e9, 8);
        for c in 0..8 {
            let p = mesh.port(c, c);
            let drained: u64 = (0..100).map(|t| u64::from(p.granted(t))).sum();
            let issued: u64 = (0..100).map(|t| p.total_slots(t)).sum();
            assert_eq!(drained, issued, "cluster {c} must own its cube's pipe");
        }
        // 64 clusters on 8 cubes: 8-way sharing per cube, same as a
        // single cube with 8 ports.
        let mesh = HmcMesh::new(MeshConfig::default().with_cubes(8), 64, 1.25e9, 1);
        let sub = HmcSubsystem::new(HmcConfig::default(), 8, 1.25e9, 1);
        for t in 0..200 {
            assert_eq!(mesh.port(19, 2).granted(t), sub.port(3).granted(t));
        }
    }

    #[test]
    fn remote_port_is_clipped_by_link_and_extra_contention() {
        // 64 clusters on 8 cubes, cluster 0 reading cube 7: the LoB
        // share as a 9th contender is 6.4/9 ≈ 0.711 w/c, the link
        // share is 6/8 = 0.75 w/c — the LoB clip binds.
        let mesh = HmcMesh::new(MeshConfig::default().with_cubes(8), 64, 1.25e9, 1);
        let p = mesh.port(0, 7);
        assert!(p.throttles());
        let window = 9000u64;
        let drained: u64 = (0..window).map(|t| u64::from(p.granted(t))).sum();
        let rate = drained as f64 / window as f64;
        assert!(
            (rate - 6.4 / 9.0).abs() < 0.01,
            "remote rate {rate} != LoB extra-contender share"
        );
        // Widen the LoB so only the serial link binds: 8 sharers on a
        // 6-word link = 0.75 w/c.
        let wide = MeshConfig::default()
            .with_cubes(8)
            .with_cube(HmcConfig::default().with_interconnect_bits(4096));
        let mesh = HmcMesh::new(wide, 64, 1.25e9, 1);
        let p = mesh.port(0, 7);
        assert!(p.throttles(), "the link alone must still throttle");
        let drained: u64 = (0..window).map(|t| u64::from(p.granted(t))).sum();
        let rate = drained as f64 / window as f64;
        assert!((rate - 0.75).abs() < 0.01, "link share {rate} != 6/8");
    }

    #[test]
    fn remote_rate_never_beats_local_share_or_link() {
        let mesh = HmcMesh::new(MeshConfig::default().with_cubes(4), 16, 1.25e9, 2);
        let window = 4000u64;
        let rate = |p: HmcPort| {
            (0..window).map(|t| u64::from(p.granted(t))).sum::<u64>() as f64 / window as f64
        };
        let remote = rate(mesh.port(5, 3));
        // A remote reader contends as one extra party on the home
        // cube's LoB, so it can never beat a local port of that cube,
        // and it can never beat its share of one serial link.
        assert!(remote <= rate(mesh.port(13, 3)) + 1e-9);
        assert!(remote <= mesh.link_words_per_cycle() / 4.0 + 1e-9);
        assert!(remote > 0.0);
    }

    #[test]
    fn home_default_is_round_robin_and_explicit_wraps() {
        let mesh = HmcMesh::new(MeshConfig::default().with_cubes(4), 8, 1.25e9, 1);
        let homes: Vec<u32> = (0..6).map(|id| mesh.home_of(id, None)).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1]);
        assert_eq!(mesh.home_of(0, Some(6)), 2, "explicit homes wrap");
        assert!(mesh.is_local(7, 3));
        assert!(!mesh.is_local(0, 3));
    }

    #[test]
    #[should_panic(expected = "at least one attached cluster")]
    fn rejects_more_cubes_than_clusters() {
        let _ = HmcMesh::new(MeshConfig::default().with_cubes(8), 4, 1.25e9, 1);
    }
}
