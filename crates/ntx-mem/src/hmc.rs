//! The Hybrid Memory Cube external-memory bandwidth schedule (Fig. 1).
//!
//! The paper's full system attaches `m` processing clusters to the main
//! interconnect on the Logic Base (LoB) of an HMC 2.0 device: 4 DRAM
//! dies, 32 vaults, 1 GB capacity, four serial links off-cube, and a
//! 256-bit main interconnect at 1 GHz. [`HmcConfig`] captures that
//! organisation for the system-level models in `ntx-model`; on top of
//! it [`HmcSubsystem`] models the *bandwidth* of one cube for the cycle
//! simulator: every attached cluster port draws its external-memory
//! word slots from one shared per-cycle budget (the LoB interconnect
//! capped by the aggregate vault bandwidth), so scale-out runs
//! reproduce the memory-bound saturation of the companion architecture
//! paper instead of each cluster owning an ideal private pipe. The
//! subsystem schedules bandwidth only: every cluster keeps its own
//! sparse [`ExtMemory`](crate::ExtMemory) (the LoB steers each
//! cluster's working set to a disjoint vault group, so address spaces
//! never collide). A farm reaches a cube through
//! [`HmcMesh`](crate::mesh::HmcMesh); a single shared cube is a 1-cube
//! mesh.
//!
//! ## Arbitration model
//!
//! The subsystem converts the shared bandwidth into word *slots per
//! NTX cycle* (a Q16 fixed-point rational, so fractional budgets like
//! 6.4 words/cycle are scheduled exactly over time) and splits each
//! cycle's slots fairly across the attached ports: every port receives
//! `slots / ports`, and the `slots % ports` remainder rotates
//! round-robin with the cycle index. The grant a port sees is therefore
//! a pure function of `(cycle, port, ports, budget)` — the schedule a
//! round-robin arbiter produces at the saturated operating point where
//! every port is streaming, which is exactly the regime the scale-out
//! saturation study measures. Because grants are state-free, clusters
//! can still be simulated independently (and in parallel) without
//! lock-stepping the farm, and a run is bit-reproducible by
//! construction. The price is that a lone streaming cluster still
//! receives only its 1/N fair share: slots an idle port leaves unused
//! are not redistributed.
//!
//! Only *timing* flows through the arbiter. Data ordering is untouched
//! (a denied slot delays the in-order DMA stream, it never reorders
//! it), so outputs of a contended run are bit-identical to the ideal
//! run — enforced by the differential proptests in `ntx-sim` and
//! `ntx-sched`.

/// Organisation of one HMC device and its LoB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmcConfig {
    /// Number of DRAM vaults (and vault controllers on the LoB).
    pub vaults: u32,
    /// Number of stacked DRAM dies.
    pub dram_dies: u32,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Serial links leaving the cube.
    pub serial_links: u32,
    /// Peak bandwidth of one vault controller, bytes/s.
    pub vault_bandwidth: f64,
    /// Peak bandwidth of one serial link, bytes/s.
    pub link_bandwidth: f64,
    /// Main LoB interconnect width in bits.
    pub interconnect_bits: u32,
    /// Main LoB interconnect clock in Hz.
    pub interconnect_hz: f64,
}

impl Default for HmcConfig {
    /// The HMC 2.0 configuration of Fig. 1.
    fn default() -> Self {
        Self {
            vaults: 32,
            dram_dies: 4,
            capacity_bytes: 1 << 30,
            serial_links: 4,
            // 32 vaults at 1024-bit pages, 625 MHz TSV bus: the paper's
            // companion article budgets 10 GB/s per vault.
            vault_bandwidth: 10.0e9,
            // HMC 2.0 short-reach link: 120 GB/s aggregate over 4 links.
            link_bandwidth: 30.0e9,
            interconnect_bits: 256,
            interconnect_hz: 1.0e9,
        }
    }
}

impl HmcConfig {
    /// Aggregate internal DRAM bandwidth (all vaults), bytes/s.
    #[must_use]
    pub fn total_vault_bandwidth(&self) -> f64 {
        f64::from(self.vaults) * self.vault_bandwidth
    }

    /// Aggregate off-cube link bandwidth, bytes/s.
    #[must_use]
    pub fn total_link_bandwidth(&self) -> f64 {
        f64::from(self.serial_links) * self.link_bandwidth
    }

    /// Peak bandwidth of the main LoB interconnect, bytes/s.
    #[must_use]
    pub fn interconnect_bandwidth(&self) -> f64 {
        f64::from(self.interconnect_bits) / 8.0 * self.interconnect_hz
    }

    /// The bandwidth the clusters can actually share: the LoB
    /// interconnect capped by the aggregate vault bandwidth, bytes/s.
    /// This is the ceiling the [`HmcSubsystem`] arbitrates.
    #[must_use]
    pub fn shared_bandwidth(&self) -> f64 {
        self.interconnect_bandwidth()
            .min(self.total_vault_bandwidth())
    }

    /// Bandwidth available to `clusters` clusters, limited by the LoB
    /// interconnect and the aggregate vault bandwidth, bytes/s per
    /// cluster.
    #[must_use]
    pub fn bandwidth_per_cluster(&self, clusters: u32) -> f64 {
        if clusters == 0 {
            return 0.0;
        }
        self.shared_bandwidth() / f64::from(clusters)
    }

    /// A wider LoB interconnect (`bits` wide at the same clock) — the
    /// scale-up knob of the companion paper's saturation study.
    #[must_use]
    pub fn with_interconnect_bits(mut self, bits: u32) -> Self {
        self.interconnect_bits = bits;
        self
    }
}

/// Which external-memory model a multi-cluster system simulates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MemoryModel {
    /// Every cluster owns a private ideal [`ExtMemory`](crate::ExtMemory)
    /// with the full AXI-port bandwidth — the pre-contention model,
    /// kept as the timing baseline and data oracle.
    #[default]
    Ideal,
    /// Clusters are block-partitioned over the cubes of an
    /// [`HmcMesh`](crate::mesh::HmcMesh): each cube arbitrates only
    /// its attached clusters, and off-home-cube traffic pays the
    /// serial-link clip and hop latency. One shared cube is
    /// `MeshConfig::default().with_cubes(1).with_cube(hmc)`. Data
    /// outputs stay bit-identical to [`MemoryModel::Ideal`], only
    /// timing changes.
    HmcMesh(crate::mesh::MeshConfig),
}

/// Fixed-point fraction bits of the slot schedule (Q16: budgets are
/// exact to 1/65536 word per cycle).
pub(crate) const SLOT_FP_BITS: u32 = 16;

/// One cluster's view of the shared subsystem: a stateless, `Copy`
/// grant schedule. [`HmcPort::granted`] is a pure function of the
/// cycle index, so attached clusters never need to synchronise — see
/// the module docs for the fairness construction. The mesh module
/// reuses the same schedule for its remote ports: a private
/// (1-contender) port whose budget is pre-clipped to the minimum of
/// the home cube's LoB share and the serial-link share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmcPort {
    pub(crate) index: u32,
    pub(crate) ports: u32,
    pub(crate) port_words_per_cycle: u32,
    pub(crate) budget_q16: u64,
    /// Optional fault window `(clip_q16, from, until)`: within
    /// `from..until` the slot budget is multiplied by
    /// `clip_q16 / 2^16`, modelling a degraded serial link. Outside
    /// the window the schedule is untouched.
    pub(crate) degrade: Option<(u32, u64, u64)>,
}

impl HmcPort {
    /// The Q16 slot budget effective at `cycle` — the nominal budget,
    /// clipped inside an armed degradation window.
    fn effective_budget_q16(self, cycle: u64) -> u64 {
        match self.degrade {
            Some((clip, from, until)) if cycle >= from && cycle < until => {
                // Clip what the link can *deliver*, not the raw shared
                // budget — a budget far above the AXI cap would
                // otherwise hide the degradation entirely.
                let cap =
                    (u64::from(self.ports) * u64::from(self.port_words_per_cycle)) << SLOT_FP_BITS;
                let deliverable = self.budget_q16.min(cap);
                ((u128::from(deliverable) * u128::from(clip)) >> SLOT_FP_BITS) as u64
            }
            _ => self.budget_q16,
        }
    }

    /// Word slots the whole subsystem issues during `cycle`: the Q16
    /// budget accumulated over the cycle boundary, so a fractional
    /// budget of e.g. 6.4 words/cycle yields the exact 6/7 slot
    /// pattern over time.
    #[must_use]
    pub fn total_slots(self, cycle: u64) -> u64 {
        let q = u128::from(self.effective_budget_q16(cycle));
        let hi = ((u128::from(cycle) + 1) * q) >> SLOT_FP_BITS;
        let lo = (u128::from(cycle) * q) >> SLOT_FP_BITS;
        (hi - lo) as u64
    }

    /// External-memory word slots granted to this port during `cycle`:
    /// the fair share `slots / ports` plus one remainder slot when the
    /// round-robin rotation `(cycle + index) % ports` selects this
    /// port, capped at the port's own AXI width.
    #[must_use]
    pub fn granted(self, cycle: u64) -> u32 {
        let slots = self.total_slots(cycle);
        let ports = u64::from(self.ports);
        let base = slots / ports;
        let rem = slots % ports;
        let extra = u64::from((cycle + u64::from(self.index)) % ports < rem);
        (base + extra).min(u64::from(self.port_words_per_cycle)) as u32
    }

    /// True when some cycle grants fewer words than the port width —
    /// i.e. the shared budget actually binds. When false the port is
    /// indistinguishable from an ideal private memory and the burst
    /// fast paths skip the slot bookkeeping entirely.
    #[must_use]
    pub fn throttles(self) -> bool {
        let full = u64::from(self.ports) * u64::from(self.port_words_per_cycle);
        if self.budget_q16 < full << SLOT_FP_BITS {
            return true;
        }
        // A degradation window binds even when the nominal budget
        // does not; the burst paths must keep the slot bookkeeping on.
        matches!(self.degrade, Some((clip, from, until))
            if from < until && u64::from(clip) < 1 << SLOT_FP_BITS)
    }

    /// Returns the schedule with a fault window armed: for cycles in
    /// `from..until` the slot budget is clipped to `clip_q16 / 2^16`
    /// of nominal (degraded serial link). Grants stay a pure function
    /// of the cycle index, so the port remains stateless and `Copy`.
    ///
    /// # Panics
    ///
    /// Panics on an empty window.
    #[must_use]
    pub fn degraded(mut self, clip_q16: u32, from: u64, until: u64) -> HmcPort {
        assert!(from < until, "degradation window must be non-empty");
        self.degrade = Some((clip_q16, from, until));
        self
    }

    /// Index of this port within the subsystem.
    #[must_use]
    pub fn index(self) -> u32 {
        self.index
    }

    /// The port's own AXI width (words per cycle) — the hard cap on
    /// any single-cycle grant.
    #[must_use]
    pub fn words_per_cycle(self) -> u32 {
        self.port_words_per_cycle
    }
}

/// The bandwidth schedule of one cube: the per-cycle slot budget every
/// attached cluster port draws from. Each port's [`HmcPort::granted`]
/// draws from the same [`HmcConfig::shared_bandwidth`] budget; storage
/// stays with the clusters.
///
/// # Example
///
/// ```
/// use ntx_mem::hmc::{HmcConfig, HmcSubsystem};
///
/// // Four clusters with 1-word AXI ports sharing the Fig. 1 cube.
/// let sub = HmcSubsystem::new(HmcConfig::default(), 4, 1.25e9, 1);
/// // 32 GB/s LoB at 1.25 GHz = 6.4 shared words per cycle: more than
/// // the four ports can sink, so nobody throttles.
/// assert!((sub.shared_words_per_cycle() - 6.4).abs() < 1e-3);
/// assert!(!sub.port(0).throttles());
/// // At 64 ports the same budget binds hard.
/// let sub = HmcSubsystem::new(HmcConfig::default(), 64, 1.25e9, 1);
/// assert!(sub.port(0).throttles());
/// ```
#[derive(Debug)]
pub struct HmcSubsystem {
    config: HmcConfig,
    pub(crate) ports: u32,
    pub(crate) port_words_per_cycle: u32,
    pub(crate) budget_q16: u64,
}

impl HmcSubsystem {
    /// Builds the subsystem for `ports` clusters whose AXI ports move
    /// `port_words_per_cycle` 32-bit words per NTX cycle at
    /// `ntx_freq_hz`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (zero ports/width, non-positive
    /// clock) or a shared budget that rounds to zero words per cycle
    /// (every port would starve forever).
    #[must_use]
    pub fn new(config: HmcConfig, ports: u32, ntx_freq_hz: f64, port_words_per_cycle: u32) -> Self {
        assert!(ports > 0, "subsystem needs at least one port");
        assert!(
            port_words_per_cycle > 0,
            "ports must move at least one word"
        );
        assert!(ntx_freq_hz > 0.0, "NTX clock must be positive");
        let words_per_cycle = config.shared_bandwidth() / (4.0 * ntx_freq_hz);
        let budget_q16 = (words_per_cycle * f64::from(1u32 << SLOT_FP_BITS)).round() as u64;
        assert!(budget_q16 > 0, "shared budget rounds to zero words/cycle");
        Self {
            config,
            ports,
            port_words_per_cycle,
            budget_q16,
        }
    }

    /// The cube organisation the budget was derived from.
    #[must_use]
    pub fn config(&self) -> &HmcConfig {
        &self.config
    }

    /// Number of attached ports.
    #[must_use]
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// The shared slot budget, words per NTX cycle (Q16-rounded).
    #[must_use]
    pub fn shared_words_per_cycle(&self) -> f64 {
        self.budget_q16 as f64 / f64::from(1u32 << SLOT_FP_BITS)
    }

    /// The grant schedule of port `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn port(&self, index: u32) -> HmcPort {
        assert!(index < self.ports, "port index out of range");
        HmcPort {
            index,
            ports: self.ports,
            port_words_per_cycle: self.port_words_per_cycle,
            budget_q16: self.budget_q16,
            degrade: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pool workers own the clusters — and through them the attached
    /// HMC ports — on other threads; both halves must stay `Send`.
    #[test]
    fn hmc_ports_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<HmcPort>();
        assert_send::<HmcSubsystem>();
    }

    #[test]
    fn default_matches_figure_1() {
        let h = HmcConfig::default();
        assert_eq!(h.vaults, 32);
        assert_eq!(h.dram_dies, 4);
        assert_eq!(h.capacity_bytes, 1 << 30);
        assert_eq!(h.serial_links, 4);
    }

    #[test]
    fn interconnect_bandwidth_is_32_gbs() {
        let h = HmcConfig::default();
        assert!((h.interconnect_bandwidth() - 32.0e9).abs() < 1.0);
    }

    #[test]
    fn per_cluster_share_decreases() {
        let h = HmcConfig::default();
        let one = h.bandwidth_per_cluster(1);
        let four = h.bandwidth_per_cluster(4);
        assert!((one / four - 4.0).abs() < 1e-9);
        assert_eq!(h.bandwidth_per_cluster(0), 0.0);
    }

    #[test]
    fn vault_bandwidth_dominates_links() {
        let h = HmcConfig::default();
        assert!(h.total_vault_bandwidth() > h.total_link_bandwidth());
    }

    #[test]
    fn shared_bandwidth_is_the_binding_ceiling() {
        // Fig. 1: the 32 GB/s LoB interconnect binds long before the
        // 320 GB/s of aggregate vault bandwidth.
        let h = HmcConfig::default();
        assert!((h.total_vault_bandwidth() - 320.0e9).abs() < 1.0);
        assert!((h.shared_bandwidth() - 32.0e9).abs() < 1.0);
        // A hypothetical 4096-bit interconnect flips the cap to the
        // vaults.
        let wide = h.with_interconnect_bits(16384);
        assert!((wide.interconnect_bandwidth() - 2048.0e9).abs() < 1.0);
        assert!((wide.shared_bandwidth() - 320.0e9).abs() < 1.0);
        assert!(
            (wide.bandwidth_per_cluster(64) - 5.0e9).abs() < 1.0,
            "vault cap split 64 ways"
        );
    }

    #[test]
    fn fractional_budget_is_scheduled_exactly() {
        // 32 GB/s over 4-byte words at 1.25 GHz = 6.4 words/cycle: the
        // slot counts per cycle must alternate 6/7 and average 6.4.
        let sub = HmcSubsystem::new(HmcConfig::default(), 8, 1.25e9, 1);
        let p = sub.port(0);
        let window = 1000u64;
        let total: u64 = (0..window).map(|t| p.total_slots(t)).sum();
        assert!((total as f64 / window as f64 - 6.4).abs() < 1e-2);
        for t in 0..window {
            let s = p.total_slots(t);
            assert!(s == 6 || s == 7, "cycle {t} issued {s} slots");
        }
    }

    #[test]
    fn grants_are_fair_and_deterministic() {
        // 64 streaming ports on the 6.4-word budget: each must receive
        // ~1/64 of the shared slots, and the schedule must be a pure
        // function of (cycle, port).
        let sub = HmcSubsystem::new(HmcConfig::default(), 64, 1.25e9, 1);
        let window = 64 * 100u64;
        let mut per_port = vec![0u64; 64];
        let mut issued = 0u64;
        for t in 0..window {
            issued += sub.port(0).total_slots(t);
            for (i, w) in per_port.iter_mut().enumerate() {
                *w += u64::from(sub.port(i as u32).granted(t));
            }
        }
        let granted: u64 = per_port.iter().sum();
        assert_eq!(granted, issued, "every issued slot lands on one port");
        let fair = issued as f64 / 64.0;
        for (i, &w) in per_port.iter().enumerate() {
            assert!(
                (w as f64 - fair).abs() <= 1.0,
                "port {i} got {w} of fair {fair:.1}"
            );
        }
        // Determinism: a rebuilt subsystem reproduces the schedule.
        let again = HmcSubsystem::new(HmcConfig::default(), 64, 1.25e9, 1);
        for t in 0..200 {
            assert_eq!(sub.port(7).granted(t), again.port(7).granted(t));
        }
    }

    #[test]
    fn remainder_slots_rotate_round_robin() {
        // 3 ports sharing exactly 1 word/cycle: each cycle's single
        // slot must land on the port with (cycle + index) % ports == 0,
        // i.e. the deterministic rotation 0, 2, 1, 0, 2, 1, ...
        let cfg = HmcConfig::default().with_interconnect_bits(32); // 1 word/cycle at 1 GHz
        let sub = HmcSubsystem::new(cfg, 3, 1.0e9, 1);
        let winners: Vec<u32> = (0..6u64)
            .map(|t| {
                let w: Vec<u32> = (0..3).filter(|&i| sub.port(i).granted(t) > 0).collect();
                assert_eq!(w.len(), 1, "exactly one winner per cycle");
                w[0]
            })
            .collect();
        assert_eq!(winners, vec![0, 2, 1, 0, 2, 1]);
    }

    #[test]
    fn uncontended_port_never_throttles() {
        let sub = HmcSubsystem::new(HmcConfig::default(), 4, 1.25e9, 1);
        let p = sub.port(2);
        assert!(!p.throttles());
        for t in 0..1000 {
            assert_eq!(p.granted(t), 1);
        }
    }

    #[test]
    fn degraded_window_clips_grants_then_recovers() {
        // A lone uncontended port: full width outside the window,
        // half the slots inside a 50% clip window.
        let sub = HmcSubsystem::new(HmcConfig::default(), 1, 1.25e9, 2);
        let nominal = sub.port(0);
        let faulty = nominal.degraded(0x8000, 100, 300);
        assert!(faulty.throttles(), "a clipped window must bind");
        let sum = |p: super::HmcPort, lo: u64, hi: u64| -> u64 {
            (lo..hi).map(|t| u64::from(p.granted(t))).sum()
        };
        // Identical outside the window...
        assert_eq!(sum(faulty, 0, 100), sum(nominal, 0, 100));
        assert_eq!(sum(faulty, 300, 400), sum(nominal, 300, 400));
        // ...and at most half the nominal slots inside it.
        let inside = sum(faulty, 100, 300);
        let nominal_inside = sum(nominal, 100, 300);
        assert!(
            inside * 2 <= nominal_inside + 2,
            "clipped window granted {inside} of {nominal_inside}"
        );
        assert!(inside > 0, "a 50% clip must not starve the port");
        // Same plan, same schedule: grants are a pure cycle function.
        let again = nominal.degraded(0x8000, 100, 300);
        for t in 0..400 {
            assert_eq!(faulty.granted(t), again.granted(t));
        }
    }
}
