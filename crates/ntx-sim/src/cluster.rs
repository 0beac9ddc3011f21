//! The NTX processing cluster: core + 8 NTX + TCDM + DMA (§II-A).

use crate::mmio::map;
use crate::ntx_engine::{CyclePlan, EngineStatus, NtxEngine};
use crate::perf::PerfSnapshot;
use ntx_isa::{NtxConfig, NTX_REGFILE_BYTES};
use ntx_mem::{
    BankRequest, DmaDescriptor, DmaDirection, DmaEngine, ExtMemory, HmcPort, Interconnect,
    MasterId, Tcdm, TcdmConfig,
};
use ntx_riscv::{AccessSize, Bus, BusError, Cpu, Trap};

/// Static configuration of a cluster instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of NTX co-processors (paper: 8; at most 62).
    pub num_ntx: usize,
    /// TCDM geometry (paper: 64 kB in 32 banks).
    pub tcdm: TcdmConfig,
    /// AXI port width in 32-bit words per NTX cycle (1 = the 64-bit
    /// port at half clock of the tape-out; 2/4 model the 128/256-bit
    /// variants of §III-C).
    pub dma_words_per_cycle: u32,
    /// NTX/TCDM clock (paper: 1.25 GHz worst case).
    pub ntx_freq_hz: f64,
    /// Core clock divider (paper: core runs at half the NTX clock).
    pub core_clock_divider: u64,
    /// L2 program/shared memory size in bytes (paper: 1.25 MB).
    pub l2_bytes: u32,
    /// NTX cycles consumed per configuration-register write issued by
    /// the driver offload path (one core store at half clock = 2).
    pub offload_write_cycles: u64,
    /// Enables the burst fast path in [`Cluster::run_burst`] (and the
    /// run helpers built on it). Results, cycle counts and every
    /// performance counter are bit-identical either way — the flag
    /// exists so differential tests and benchmarks can pin the pure
    /// per-cycle path.
    pub fast_path: bool,
    /// Shared external-memory bandwidth schedule (a port of an
    /// [`ntx_mem::HmcSubsystem`]). `None` models the ideal private
    /// memory of the stand-alone cluster; `Some` clips every DMA
    /// ext-transfer beat at the slots the shared HMC grants this
    /// cluster in that cycle — timing changes, data never does.
    pub ext_port: Option<HmcPort>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            num_ntx: 8,
            tcdm: TcdmConfig::default(),
            dma_words_per_cycle: 1,
            ntx_freq_hz: 1.25e9,
            core_clock_divider: 2,
            l2_bytes: 0x0014_0000,
            offload_write_cycles: 2,
            fast_path: true,
            ext_port: None,
        }
    }
}

impl ClusterConfig {
    /// Peak compute performance in flop/s (`num_ntx` FMACs at 2 flop per
    /// cycle) — 20 Gflop/s for the default cluster (Table I).
    #[must_use]
    pub fn peak_flops(&self) -> f64 {
        self.num_ntx as f64 * 2.0 * self.ntx_freq_hz
    }

    /// Peak AXI bandwidth in bytes/s — 5 GB/s for the default cluster.
    #[must_use]
    pub fn peak_bandwidth(&self) -> f64 {
        f64::from(self.dma_words_per_cycle) * 4.0 * self.ntx_freq_hz
    }
}

/// One simulated processing cluster.
///
/// See the crate-level example for typical host-driven use; the type
/// also implements [`ntx_riscv::Bus`] so an interpreted RV32IMC program
/// can drive the very same hardware through the §II-E register
/// interface (see [`Cluster::run_program`]).
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    tcdm: Tcdm,
    interconnect: Interconnect,
    dma: DmaEngine,
    ext: ExtMemory,
    engines: Vec<NtxEngine>,
    /// L2 backing store, empty until the first program load or L2
    /// write: only RISC-V-driven clusters use L2, so farm clusters
    /// never pay for its [`ClusterConfig::l2_bytes`].
    l2: Vec<u8>,
    cycle: u64,
    busy_cycles: u64,
    offload_writes: u64,
    /// Cycles the DMA had beats pending but the shared HMC granted
    /// zero external-memory slots (always zero without an `ext_port`).
    ext_wait_cycles: u64,
    /// External-memory bytes attributed to remote (off-home-cube) mesh
    /// traffic by [`Cluster::attribute_remote`].
    ext_remote_bytes: u64,
    /// Cycles attributed to remote mesh traffic (hop latency + waits).
    ext_remote_wait_cycles: u64,
    /// Cycles spent frozen by injected transient faults
    /// ([`Cluster::attribute_fault_stall`]).
    fault_stall_cycles: u64,
    dma_stage: DmaStage,
    /// Per engine, the cycle plan and the bits of its accesses that
    /// were the engine's first request to their bank (reused buffer).
    plan_buf: Vec<(CyclePlan, u8)>,
    /// The DMA's desired addresses this cycle (reused buffer).
    dma_buf: Vec<u32>,
    /// The engine an offload waits on: bursts also stop when it retires
    /// a command, freeing its staged slot.
    watch: Option<usize>,
}

#[derive(Debug, Clone, Copy, Default)]
struct DmaStage {
    ext_lo: u32,
    ext_hi: u32,
    tcdm_addr: u32,
    row_bytes: u32,
    rows: u32,
    ext_stride: u32,
    tcdm_stride: u32,
}

impl Cluster {
    /// Builds a cluster from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero or more than 62
    /// engines, more than 64 banks, bad TCDM geometry — see
    /// [`Tcdm::new`]). The arbiter keeps one bit per master and per
    /// bank in 64-bit masks.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        assert!(
            (1..=62).contains(&config.num_ntx),
            "cluster needs 1 to 62 NTX"
        );
        assert!(config.tcdm.banks <= 64, "cluster arbitrates up to 64 banks");
        Self {
            config,
            tcdm: Tcdm::new(config.tcdm),
            interconnect: Interconnect::new(config.tcdm.banks),
            dma: DmaEngine::new(config.dma_words_per_cycle),
            ext: ExtMemory::new(),
            engines: (0..config.num_ntx)
                .map(|_| {
                    let mut e = NtxEngine::new();
                    // With the fast path disabled the cluster is the
                    // pure per-cycle baseline end to end, including the
                    // pre-overhaul FPU internals (results stay
                    // bit-identical either way).
                    if !config.fast_path {
                        e.use_reference_fpu();
                    }
                    e
                })
                .collect(),
            l2: Vec::new(),
            cycle: 0,
            busy_cycles: 0,
            offload_writes: 0,
            ext_wait_cycles: 0,
            ext_remote_bytes: 0,
            ext_remote_wait_cycles: 0,
            fault_stall_cycles: 0,
            dma_stage: DmaStage::default(),
            plan_buf: vec![Default::default(); config.num_ntx],
            dma_buf: Vec::new(),
            watch: None,
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Replaces the external-memory grant schedule — how a mesh farm
    /// rewires a cluster per shard, pointing its AXI port at the
    /// shard's home cube (local or remote). `None` restores the ideal
    /// private memory. Must only be called while the cluster is idle:
    /// a schedule swap mid-burst would retime in-flight beats.
    ///
    /// # Panics
    ///
    /// Panics if the DMA still has beats in flight.
    pub fn set_ext_port(&mut self, port: Option<HmcPort>) {
        assert!(
            self.dma.is_idle(),
            "cannot swap the ext-port schedule under an active DMA"
        );
        self.config.ext_port = port;
    }

    /// Advances the cycle counter by `n` without simulating anything —
    /// dead time in which no master does work, e.g. the serial-link
    /// hop latency a mesh charges before a remote shard's first beat.
    pub fn advance_cycles(&mut self, n: u64) {
        self.cycle = self.cycle.saturating_add(n);
    }

    /// Attributes traffic and stall time measured over a remote shard
    /// to the mesh remote-traffic counters
    /// ([`PerfSnapshot::ext_remote_bytes`] /
    /// [`PerfSnapshot::ext_remote_wait_cycles`]). The farm calls this
    /// after draining a shard whose operands lived on another cube.
    pub fn attribute_remote(&mut self, bytes: u64, wait_cycles: u64) {
        self.ext_remote_bytes += bytes;
        self.ext_remote_wait_cycles += wait_cycles;
    }

    /// Freezes the cluster for `n` cycles of injected transient fault:
    /// the clock advances with no master doing work, and the dead time
    /// is attributed to [`PerfSnapshot::fault_stall_cycles`]. The farm
    /// calls this at stall-window boundaries of an armed
    /// [`crate::FaultPlan`].
    pub fn attribute_fault_stall(&mut self, n: u64) {
        self.cycle = self.cycle.saturating_add(n);
        self.fault_stall_cycles += n;
    }

    /// External-memory words the shared HMC grants the DMA *this*
    /// cycle (the full port width with an ideal private memory).
    #[inline]
    fn ext_allowance(&self) -> u32 {
        match self.config.ext_port {
            Some(p) => p.granted(self.cycle).min(self.config.dma_words_per_cycle),
            None => self.config.dma_words_per_cycle,
        }
    }

    /// Clips the DMA's desired accesses for this cycle at the granted
    /// external-memory slots and accounts a wait cycle when the grant
    /// is zero while beats are pending. Shared by the reference
    /// [`Cluster::step`] and the fast path so the two stay bit-exact.
    #[inline]
    fn clip_dma_desired(&mut self, desired: &mut Vec<u32>) {
        if desired.is_empty() {
            return;
        }
        let allow = self.ext_allowance() as usize;
        if allow == 0 {
            self.ext_wait_cycles += 1;
        }
        desired.truncate(allow);
    }

    /// Advances the cluster by one NTX clock cycle: all engines and the
    /// DMA present their TCDM accesses, the interconnect arbitrates,
    /// winners proceed.
    ///
    /// This is the *reference* per-cycle path (it allocates its request
    /// and grant lists each call, and runs the reference arbiter). The
    /// burst fast path of [`Cluster::run_burst`] must stay bit-identical
    /// to stepping this — enforced by the differential proptests.
    pub fn step(&mut self) {
        let mut requests: Vec<BankRequest> = Vec::with_capacity(self.engines.len() * 3 + 4);
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(self.engines.len());
        let mut any_active = false;
        for (i, engine) in self.engines.iter().enumerate() {
            let start = requests.len();
            for (addr, _write) in engine.desired_accesses().iter() {
                requests.push(BankRequest {
                    master: MasterId::Ntx(i),
                    addr,
                });
            }
            if requests.len() > start {
                any_active = true;
            }
            spans.push((start, requests.len()));
        }
        let dma_start = requests.len();
        let mut dma_desired = self.dma.desired_accesses();
        self.clip_dma_desired(&mut dma_desired);
        for addr in dma_desired {
            requests.push(BankRequest {
                master: MasterId::Dma,
                addr,
            });
            any_active = true;
        }
        let grants = self.interconnect.arbitrate(&requests);
        for (i, engine) in self.engines.iter_mut().enumerate() {
            let (a, b) = spans[i];
            engine.commit(&grants[a..b], &mut self.tcdm);
        }
        self.dma
            .commit(&grants[dma_start..], &mut self.tcdm, &mut self.ext);
        if any_active {
            self.busy_cycles += 1;
        }
        self.cycle += 1;
    }

    /// One simulation cycle on the mask arbiter: the multi-master leg
    /// of the burst fast path. Identical semantics to [`Cluster::step`],
    /// without its allocations or its request list: each engine plans
    /// once, every request sets its master's bit in its bank's mask,
    /// and each bank's winner is one `trailing_zeros` above its
    /// round-robin pointer. Without a denial every first request is
    /// granted and the per-access grant checks are skipped.
    ///
    /// `busy` has a bit for each engine with work; the others are idle
    /// and take no part in the cycle. Returns `true` when one of them
    /// ran out of work.
    fn fast_cycle(&mut self, busy: u64) -> bool {
        let mut dma_buf = std::mem::take(&mut self.dma_buf);
        self.dma.desired_accesses_into(&mut dma_buf);
        self.clip_dma_desired(&mut dma_buf);
        let mut requests = dma_buf.len() as u64;
        let mut bits = busy;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let plan = self.engines[i].plan_cycle();
            let addrs = plan.accesses().addrs();
            requests += addrs.len() as u64;
            // Bits of the accesses that were the engine's first request
            // to their bank (a repeat is denied).
            let mut first = 0u8;
            for (k, &addr) in addrs.iter().enumerate() {
                first |= u8::from(self.interconnect.request(MasterId::Ntx(i), addr)) << k;
            }
            self.plan_buf[i] = (plan, first);
        }
        // The DMA moves its leading granted words: a repeated bank or a
        // lost one blocks the words behind it (which still request).
        let (mut lead, mut leading) = (0, true);
        for &addr in &dma_buf {
            leading &= self.interconnect.request(MasterId::Dma, addr);
            lead += usize::from(leading);
        }
        let denied = self.interconnect.resolve(requests);
        let mut drained = false;
        let mut bits = busy;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let engine = &mut self.engines[i];
            let (plan, first) = &self.plan_buf[i];
            let addrs = plan.accesses().addrs();
            let granted = if denied {
                (0..addrs.len()).fold(0, |g, k| {
                    let won =
                        first & (1 << k) != 0 && self.interconnect.won(MasterId::Ntx(i), addrs[k]);
                    g | u8::from(won) << k
                })
            } else {
                *first
            };
            if granted == (1 << addrs.len()) - 1 {
                engine.commit_all_granted(plan, &mut self.tcdm);
            } else {
                let flags: [bool; 4] = std::array::from_fn(|k| granted & (1 << k) != 0);
                engine.commit_planned(plan, &flags[..addrs.len()], &mut self.tcdm);
            }
            drained |= !engine.is_busy();
        }
        let beats = dma_buf
            .iter()
            .take(lead)
            .take_while(|&&addr| !denied || self.interconnect.won(MasterId::Dma, addr))
            .count();
        self.dma.commit_beats(beats, &mut self.tcdm, &mut self.ext);
        if requests > 0 {
            self.busy_cycles += 1;
        }
        self.dma_buf = dma_buf;
        self.cycle += 1;
        drained
    }

    /// Advances the cluster by up to `max_cycles` cycles through the
    /// burst fast path, returning the cycles actually advanced (at
    /// least 1 unless `max_cycles` is 0).
    ///
    /// The burst stops early at *observable events* — an engine
    /// retiring its last command, a DMA descriptor completing, the DMA
    /// queue draining, and, while an offload waits on an engine's
    /// staged slot, that engine retiring a command — so pollers (the
    /// tile pipeline's watermarks, [`Cluster::run_to_completion`], the
    /// offload paths) observe exactly the same state transitions as
    /// with per-cycle stepping. Between events the work is dispatched
    /// to the cheapest exact path:
    ///
    /// * all idle → the cycle counter jumps in one step;
    /// * one engine, DMA idle → [`NtxEngine::burst_sole`] (batched
    ///   conflict-free MAC streaks, per-cycle fallback otherwise);
    /// * DMA only → [`ntx_mem::DmaEngine::burst_sole`] (whole-row
    ///   slices, clipped at granted slot runs under a binding port);
    /// * multiple masters → allocation-free cycles on the mask arbiter
    ///   ([`Interconnect::request`]/[`Interconnect::resolve`]): each
    ///   request sets its master's bit in its bank's mask, each bank's
    ///   winner is one `trailing_zeros` above its round-robin pointer,
    ///   and a cycle without a denial skips the per-access grant
    ///   checks.
    ///
    /// With [`ClusterConfig::fast_path`] disabled this is exactly one
    /// reference [`Cluster::step`]. Results and counters are
    /// bit-identical in all modes.
    pub fn run_burst(&mut self, max_cycles: u64) -> u64 {
        if max_cycles == 0 {
            return 0;
        }
        if !self.config.fast_path {
            self.step();
            return 1;
        }
        let busy: usize = self.engines.iter().filter(|e| e.is_busy()).count();
        let dma_active = !self.dma.is_idle();
        match (busy, dma_active) {
            (0, false) => {
                // Idle cycles carry no state changes; skip them in bulk.
                self.cycle = self.cycle.saturating_add(max_cycles);
                max_cycles
            }
            (1, false) => {
                let i = self
                    .engines
                    .iter()
                    .position(|e| e.is_busy())
                    .expect("one engine is busy");
                let engine = &mut self.engines[i];
                let out = engine.burst_sole(
                    &mut self.tcdm,
                    &mut self.interconnect,
                    MasterId::Ntx(i),
                    max_cycles,
                    self.watch == Some(i),
                );
                self.cycle += out.cycles;
                self.busy_cycles += out.accessed_cycles;
                out.cycles
            }
            (0, true) => {
                // A port that can actually bind clips the row slices at
                // granted slot runs; otherwise the schedule is
                // indistinguishable from the ideal memory.
                let port = self.config.ext_port.filter(|p| {
                    p.throttles() || p.words_per_cycle() < self.config.dma_words_per_cycle
                });
                let b = self.dma.burst_sole(
                    &mut self.tcdm,
                    &mut self.ext,
                    &mut self.interconnect,
                    port,
                    self.cycle,
                    max_cycles,
                );
                self.cycle += b.cycles;
                self.busy_cycles += b.active_cycles;
                self.ext_wait_cycles += b.cycles - b.active_cycles;
                b.cycles
            }
            _ => self.run_contended(max_cycles, dma_active),
        }
    }

    /// The multi-master regime of [`Cluster::run_burst`]: live cycles
    /// on the mask arbiter until an observable event or `max_cycles`.
    fn run_contended(&mut self, max_cycles: u64, dma_active: bool) -> u64 {
        let busy = self
            .engines
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, e)| m | u64::from(e.is_busy()) << i);
        let dma_done = self.dma.completed();
        let watched = self
            .watch
            .map(|i| (i, self.engines[i].commands_completed()));
        let mut cycles = 0;
        while cycles < max_cycles {
            let drained = self.fast_cycle(busy);
            cycles += 1;
            if drained
                || self.dma.completed() != dma_done
                || self.dma.is_idle() == dma_active
                || watched.is_some_and(|(i, done)| self.engines[i].commands_completed() != done)
            {
                break;
            }
        }
        cycles
    }

    /// Steps the cluster `n` cycles (burst-accelerated when
    /// [`ClusterConfig::fast_path`] is enabled; identical outcome
    /// either way).
    pub fn run_for(&mut self, n: u64) {
        let mut left = n;
        while left > 0 {
            left -= self.run_burst(left);
        }
    }

    /// True when every engine and the DMA are idle.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.dma.is_idle() && self.engines.iter().all(|e| !e.is_busy())
    }

    /// True while any NTX engine still has work (command running or
    /// staged), regardless of DMA state. The scale-out scheduler polls
    /// this to decide when a tile's compute phase has drained while its
    /// stores are still in flight.
    #[must_use]
    pub fn engines_busy(&self) -> bool {
        self.engines.iter().any(NtxEngine::is_busy)
    }

    /// Runs until idle; returns the number of cycles stepped.
    ///
    /// # Panics
    ///
    /// Panics after 10^9 cycles as a hang guard.
    pub fn run_to_completion(&mut self) -> u64 {
        let start = self.cycle;
        while !self.is_idle() {
            self.run_burst(u64::MAX);
            assert!(
                self.cycle - start < 1_000_000_000,
                "cluster failed to drain within 1e9 cycles"
            );
        }
        self.cycle - start
    }

    // --- offloading (driver path) ---

    /// Offloads a command to engine `index`, charging the full §II-E
    /// register-write sequence (29 writes) at the core's clock. The
    /// cluster keeps stepping during the writes, so other engines and
    /// the DMA continue working — this is exactly the overlap the
    /// offloading scheme is designed for.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn offload(&mut self, index: usize, config: &NtxConfig) {
        self.offload_with_writes(index, config, 29);
    }

    /// Offload accounting only `writes` register updates (a driver that
    /// reuses the staged configuration and only changes what differs,
    /// as §II-E recommends).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn offload_with_writes(&mut self, index: usize, config: &NtxConfig, writes: u64) {
        assert!(index < self.engines.len(), "engine index out of range");
        self.run_for(writes * self.config.offload_write_cycles);
        self.offload_writes += writes;
        // While the double buffer is full, the core retries every
        // cycle: the retry succeeds the cycle the engine frees its slot.
        while self.engines[index].offload(config) == EngineStatus::Backpressure {
            self.wait_for_slot(index);
        }
    }

    /// Runs until engine `index` retires its current command — the
    /// cycle its staged slot frees, when an offload's per-cycle retry
    /// would first succeed.
    fn wait_for_slot(&mut self, index: usize) {
        let retired = self.engines[index].commands_completed();
        self.watch = Some(index);
        while self.engines[index].commands_completed() == retired {
            self.run_burst(u64::MAX);
        }
        self.watch = None;
    }

    /// Broadcast-offloads the same command to every engine (the §II-E
    /// broadcast alias): one register-write sequence, all engines start.
    pub fn offload_broadcast(&mut self, config: &NtxConfig) {
        self.run_for(29 * self.config.offload_write_cycles);
        self.offload_writes += 29;
        for i in 0..self.engines.len() {
            while self.engines[i].offload(config) == EngineStatus::Backpressure {
                self.wait_for_slot(i);
            }
        }
    }

    /// Read-only access to engine `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn engine(&self, index: usize) -> &NtxEngine {
        &self.engines[index]
    }

    /// Number of NTX engines.
    #[must_use]
    pub fn num_engines(&self) -> usize {
        self.engines.len()
    }

    // --- DMA ---

    /// Enqueues a DMA descriptor (driver path).
    pub fn dma_push(&mut self, desc: DmaDescriptor) {
        self.dma.push(desc);
    }

    /// True when the DMA queue is drained.
    #[must_use]
    pub fn dma_idle(&self) -> bool {
        self.dma.is_idle()
    }

    /// Number of DMA descriptors retired since construction (used by
    /// the double-buffering scheduler as a completion watermark).
    #[must_use]
    pub fn dma_completed(&self) -> u64 {
        self.dma.completed()
    }

    // --- host data access (test-bench, no simulated cycles) ---

    /// Preloads `values` into the TCDM at byte address `addr`.
    pub fn write_tcdm_f32(&mut self, addr: u32, values: &[f32]) {
        self.tcdm.poke_f32_from(addr, values);
    }

    /// Reads `out.len()` floats from the TCDM at byte address `addr`
    /// into a caller buffer — the allocation-free readback used by the
    /// scale-out executor's result assembly.
    pub fn read_tcdm_into(&self, addr: u32, out: &mut [f32]) {
        self.tcdm.peek_f32_into(addr, out);
    }

    /// Reads `n` floats from the TCDM at byte address `addr`.
    #[must_use]
    pub fn read_tcdm_f32(&self, addr: u32, n: usize) -> Vec<f32> {
        let mut out = vec![0f32; n];
        self.read_tcdm_into(addr, &mut out);
        out
    }

    /// Mutable access to the external memory (preloading kernels' input
    /// data and reading back results).
    pub fn ext_mem(&mut self) -> &mut ExtMemory {
        &mut self.ext
    }

    // --- measurement ---

    /// Snapshots every performance counter.
    #[must_use]
    pub fn perf(&self) -> PerfSnapshot {
        let mut s = PerfSnapshot {
            cycles: self.cycle,
            ntx_busy_cycles: self.busy_cycles,
            tcdm_requests: self.interconnect.requests(),
            tcdm_conflicts: self.interconnect.conflicts(),
            dma_bytes: self.dma.bytes_moved(),
            dma_busy_cycles: self.dma.busy_cycles(),
            ext_bytes_read: self.ext.bytes_read(),
            ext_bytes_written: self.ext.bytes_written(),
            ext_wait_cycles: self.ext_wait_cycles,
            ext_remote_bytes: self.ext_remote_bytes,
            ext_remote_wait_cycles: self.ext_remote_wait_cycles,
            fault_stall_cycles: self.fault_stall_cycles,
            tcdm_reads: self.tcdm.reads(),
            tcdm_writes: self.tcdm.writes(),
            ..Default::default()
        };
        for e in &self.engines {
            s.flops += e.flops();
            s.ntx_active_cycles += e.active_cycles();
            s.ntx_stall_cycles += e.stall_cycles();
            s.commands_completed += e.commands_completed();
        }
        s
    }

    /// Total configuration-register writes issued by the offload paths.
    #[must_use]
    pub fn offload_writes(&self) -> u64 {
        self.offload_writes
    }

    /// Clears all performance counters (cycle counter keeps running).
    pub fn reset_counters(&mut self) {
        self.busy_cycles = 0;
        self.offload_writes = 0;
        self.ext_wait_cycles = 0;
        self.ext_remote_bytes = 0;
        self.ext_remote_wait_cycles = 0;
        self.fault_stall_cycles = 0;
        self.interconnect.reset_counters();
        self.dma.reset_counters();
        self.ext.reset_counters();
        self.tcdm.reset_counters();
        for e in &mut self.engines {
            e.reset_counters();
        }
    }

    // --- RISC-V program execution ---

    /// Loads a program image into L2 at `offset` (byte address relative
    /// to [`map::L2_BASE`]).
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds the L2 size.
    pub fn load_program(&mut self, offset: u32, words: &[u32]) {
        let l2 = self.l2_mut();
        for (i, &w) in words.iter().enumerate() {
            let a = offset as usize + 4 * i;
            l2[a..a + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// The L2 store, allocated (zeroed) on first use.
    fn l2_mut(&mut self) -> &mut [u8] {
        if self.l2.is_empty() {
            self.l2 = vec![0; self.config.l2_bytes as usize];
        }
        &mut self.l2
    }

    /// Runs an interpreted RV32IMC core against this cluster until it
    /// traps or `max_core_steps` instructions retire. The cluster steps
    /// [`ClusterConfig::core_clock_divider`] NTX cycles per core
    /// instruction, modelling the half-rate core clock of §III-A.
    pub fn run_program(&mut self, cpu: &mut Cpu, max_core_steps: u64) -> Option<Trap> {
        for _ in 0..max_core_steps {
            if let Err(trap) = cpu.step(self) {
                return Some(trap);
            }
            self.run_for(self.config.core_clock_divider);
        }
        None
    }

    fn engine_mmio_write(&mut self, index: usize, offset: u32, value: u32) -> Result<(), BusError> {
        loop {
            match self.engines[index].write_reg(offset, value) {
                Ok(EngineStatus::Accepted) => return Ok(()),
                Ok(EngineStatus::Backpressure) => self.step(), // bus stall
                Err(_) => {
                    return Err(BusError::Device {
                        addr: map::NTX_BASE + index as u32 * NTX_REGFILE_BYTES + offset,
                    })
                }
            }
        }
    }
}

/// Errors map to [`BusError::Device`]; NTX windows and DMA registers
/// require word-aligned word accesses like the RTL.
impl Bus for Cluster {
    fn read(&mut self, addr: u32, size: AccessSize) -> Result<u32, BusError> {
        let tcdm_size = self.config.tcdm.bytes;
        match addr {
            a if a < tcdm_size => {
                let mut v = 0u32;
                for i in 0..size.bytes() {
                    v |= u32::from(self.tcdm.read_u8(a + i)) << (8 * i);
                }
                Ok(v)
            }
            a if (map::NTX_BASE..map::NTX_BROADCAST).contains(&a) => {
                let index = ((a - map::NTX_BASE) / NTX_REGFILE_BYTES) as usize;
                let offset = (a - map::NTX_BASE) % NTX_REGFILE_BYTES;
                if index >= self.engines.len() || size != AccessSize::Word {
                    return Err(BusError::Unmapped { addr });
                }
                self.engines[index]
                    .read_reg(offset)
                    .map_err(|_| BusError::Device { addr })
            }
            a if (map::DMA_BASE..map::DMA_BASE + map::DMA_SIZE).contains(&a) => {
                if size != AccessSize::Word {
                    return Err(BusError::Misaligned {
                        addr,
                        size: size.bytes(),
                    });
                }
                let s = &self.dma_stage;
                Ok(match a - map::DMA_BASE {
                    map::DMA_EXT_LO => s.ext_lo,
                    map::DMA_EXT_HI => s.ext_hi,
                    map::DMA_TCDM => s.tcdm_addr,
                    map::DMA_ROW_BYTES => s.row_bytes,
                    map::DMA_ROWS => s.rows,
                    map::DMA_EXT_STRIDE => s.ext_stride,
                    map::DMA_TCDM_STRIDE => s.tcdm_stride,
                    map::DMA_STATUS => self.dma.pending() as u32,
                    _ => 0,
                })
            }
            a if a >= map::L2_BASE => {
                let off = (a - map::L2_BASE) as usize;
                if off + size.bytes() as usize > self.config.l2_bytes as usize {
                    return Err(BusError::Unmapped { addr });
                }
                // An unallocated L2 reads as the zeros it would hold.
                let mut v = 0u32;
                if !self.l2.is_empty() {
                    for i in 0..size.bytes() as usize {
                        v |= u32::from(self.l2[off + i]) << (8 * i);
                    }
                }
                Ok(v)
            }
            _ => Err(BusError::Unmapped { addr }),
        }
    }

    fn write(&mut self, addr: u32, size: AccessSize, value: u32) -> Result<(), BusError> {
        let tcdm_size = self.config.tcdm.bytes;
        match addr {
            a if a < tcdm_size => {
                for i in 0..size.bytes() {
                    self.tcdm.write_u8(a + i, (value >> (8 * i)) as u8);
                }
                Ok(())
            }
            a if (map::NTX_BASE..map::NTX_BROADCAST).contains(&a) => {
                let index = ((a - map::NTX_BASE) / NTX_REGFILE_BYTES) as usize;
                let offset = (a - map::NTX_BASE) % NTX_REGFILE_BYTES;
                if index >= self.engines.len() || size != AccessSize::Word {
                    return Err(BusError::Unmapped { addr });
                }
                self.engine_mmio_write(index, offset, value)
            }
            a if (map::NTX_BROADCAST..map::NTX_BROADCAST + NTX_REGFILE_BYTES).contains(&a) => {
                let offset = a - map::NTX_BROADCAST;
                if size != AccessSize::Word {
                    return Err(BusError::Unmapped { addr });
                }
                for i in 0..self.engines.len() {
                    self.engine_mmio_write(i, offset, value)?;
                }
                Ok(())
            }
            a if (map::DMA_BASE..map::DMA_BASE + map::DMA_SIZE).contains(&a) => {
                if size != AccessSize::Word {
                    return Err(BusError::Misaligned {
                        addr,
                        size: size.bytes(),
                    });
                }
                let off = a - map::DMA_BASE;
                match off {
                    map::DMA_EXT_LO => self.dma_stage.ext_lo = value,
                    map::DMA_EXT_HI => self.dma_stage.ext_hi = value,
                    map::DMA_TCDM => self.dma_stage.tcdm_addr = value,
                    map::DMA_ROW_BYTES => self.dma_stage.row_bytes = value,
                    map::DMA_ROWS => self.dma_stage.rows = value,
                    map::DMA_EXT_STRIDE => self.dma_stage.ext_stride = value,
                    map::DMA_TCDM_STRIDE => self.dma_stage.tcdm_stride = value,
                    map::DMA_START => {
                        let s = self.dma_stage;
                        let dir = if value & 1 == 0 {
                            DmaDirection::ExtToTcdm
                        } else {
                            DmaDirection::TcdmToExt
                        };
                        let desc = DmaDescriptor {
                            ext_addr: (u64::from(s.ext_hi) << 32) | u64::from(s.ext_lo),
                            tcdm_addr: s.tcdm_addr,
                            row_bytes: s.row_bytes,
                            rows: s.rows.max(1),
                            ext_stride: u64::from(s.ext_stride),
                            tcdm_stride: s.tcdm_stride,
                            dir,
                        };
                        // A descriptor the engine would refuse is the
                        // program's error, not the simulator's.
                        if desc.validate().is_err() {
                            return Err(BusError::Device { addr });
                        }
                        self.dma.push(desc);
                    }
                    _ => return Err(BusError::Device { addr }),
                }
                Ok(())
            }
            a if a >= map::L2_BASE => {
                let off = (a - map::L2_BASE) as usize;
                if off + size.bytes() as usize > self.config.l2_bytes as usize {
                    return Err(BusError::Unmapped { addr });
                }
                let l2 = self.l2_mut();
                for i in 0..size.bytes() as usize {
                    l2[off + i] = (value >> (8 * i)) as u8;
                }
                Ok(())
            }
            _ => Err(BusError::Unmapped { addr }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntx_isa::{AguConfig, Command, LoopNest, OperandSelect, RegOffset};

    /// The worker-pool farm moves whole clusters (with any attached
    /// HMC/mesh ports) onto worker threads; `Cluster` must stay `Send`.
    #[test]
    fn cluster_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Cluster>();
    }

    fn mac_cfg(x: u32, y: u32, out: u32, n: u32) -> NtxConfig {
        NtxConfig::builder()
            .command(Command::Mac {
                operand: OperandSelect::Memory,
            })
            .loops(LoopNest::vector(n))
            .agu(0, AguConfig::stream(x, 4))
            .agu(1, AguConfig::stream(y, 4))
            .agu(2, AguConfig::fixed(out))
            .build()
            .expect("valid")
    }

    #[test]
    fn single_engine_dot_product() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.write_tcdm_f32(0, &[1.0, 2.0, 3.0]);
        cluster.write_tcdm_f32(0x100, &[1.0, 1.0, 1.0]);
        cluster.offload(0, &mac_cfg(0, 0x100, 0x200, 3));
        cluster.run_to_completion();
        assert_eq!(cluster.read_tcdm_f32(0x200, 1)[0], 6.0);
    }

    #[test]
    fn eight_engines_in_parallel() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        let n = 64u32;
        for e in 0..8u32 {
            let base = e * 0x400;
            let xs: Vec<f32> = (0..n).map(|i| (i + e) as f32).collect();
            let ys: Vec<f32> = (0..n).map(|_| 2.0).collect();
            cluster.write_tcdm_f32(base, &xs);
            cluster.write_tcdm_f32(base + 0x200, &ys);
        }
        for e in 0..8 {
            let base = e as u32 * 0x400;
            cluster.offload_with_writes(e, &mac_cfg(base, base + 0x200, base + 0x3fc, n), 4);
        }
        cluster.run_to_completion();
        for e in 0..8u32 {
            let expect: f32 = (0..n).map(|i| (i + e) as f32 * 2.0).sum();
            assert_eq!(
                cluster.read_tcdm_f32(e * 0x400 + 0x3fc, 1)[0],
                expect,
                "engine {e}"
            );
        }
        let perf = cluster.perf();
        assert_eq!(perf.flops, 8 * u64::from(n) * 2);
        assert_eq!(perf.commands_completed, 8);
        // With 8 engines streaming, some conflicts must have occurred.
        assert!(perf.tcdm_requests > 0);
    }

    #[test]
    fn dma_and_compute_overlap() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.write_tcdm_f32(0, &[1.0; 32]);
        cluster.write_tcdm_f32(0x100, &[3.0; 32]);
        cluster.ext_mem().write_f32_slice(0x8000, &[9.0; 256]);
        cluster.dma_push(DmaDescriptor::linear(
            0x8000,
            0x4000,
            1024,
            DmaDirection::ExtToTcdm,
        ));
        cluster.offload_with_writes(0, &mac_cfg(0, 0x100, 0x200, 32), 1);
        cluster.run_to_completion();
        assert_eq!(cluster.read_tcdm_f32(0x200, 1)[0], 96.0);
        assert_eq!(cluster.read_tcdm_f32(0x4000, 1)[0], 9.0);
        let perf = cluster.perf();
        assert_eq!(perf.dma_bytes, 1024);
        assert!(perf.ext_bytes_read >= 1024);
    }

    #[test]
    fn peak_numbers_match_table_1() {
        let c = ClusterConfig::default();
        assert!((c.peak_flops() - 20.0e9).abs() < 1.0);
        assert!((c.peak_bandwidth() - 5.0e9).abs() < 1.0);
    }

    #[test]
    fn offload_costs_cycles() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        let c0 = cluster.cycle();
        cluster.offload(0, &mac_cfg(0, 0x100, 0x200, 1));
        // 29 writes at 2 cycles each.
        assert_eq!(cluster.cycle() - c0, 58);
        assert_eq!(cluster.offload_writes(), 29);
    }

    #[test]
    fn broadcast_reaches_all_engines() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.write_tcdm_f32(0, &[2.0, 2.0]);
        cluster.write_tcdm_f32(0x100, &[5.0, 5.0]);
        cluster.offload_broadcast(&mac_cfg(0, 0x100, 0x200, 2));
        cluster.run_to_completion();
        // All engines computed the same dot product into the same cell.
        assert_eq!(cluster.read_tcdm_f32(0x200, 1)[0], 20.0);
        let perf = cluster.perf();
        assert_eq!(perf.commands_completed, 8);
    }

    #[test]
    fn mmio_bus_tcdm_and_l2() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.write(0x40, AccessSize::Word, 0x1234_5678).unwrap();
        assert_eq!(cluster.read(0x40, AccessSize::Word).unwrap(), 0x1234_5678);
        assert_eq!(cluster.read(0x41, AccessSize::Byte).unwrap(), 0x56);
        cluster
            .write(map::L2_BASE + 8, AccessSize::Word, 0xabcd_0123)
            .unwrap();
        assert_eq!(
            cluster.read(map::L2_BASE + 8, AccessSize::Word).unwrap(),
            0xabcd_0123
        );
        assert!(cluster.read(0x4000_0000, AccessSize::Word).is_err());
    }

    #[test]
    fn l2_is_allocated_on_first_write() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        assert_eq!(
            cluster.l2.capacity(),
            0,
            "a fresh cluster holds no L2 bytes"
        );
        let top = map::L2_BASE + cluster.config.l2_bytes - 4;
        assert_eq!(cluster.read(top, AccessSize::Word).unwrap(), 0);
        assert_eq!(cluster.l2.capacity(), 0, "a read allocates nothing");
        cluster.write(top, AccessSize::Word, 0xdead_beef).unwrap();
        assert_eq!(cluster.read(top, AccessSize::Word).unwrap(), 0xdead_beef);
        assert_eq!(cluster.read(top + 1, AccessSize::Half).unwrap(), 0xadbe);
        let end = top + 4;
        for mut c in [Cluster::new(ClusterConfig::default()), cluster] {
            assert!(matches!(
                c.read(end, AccessSize::Word),
                Err(BusError::Unmapped { .. })
            ));
            assert!(matches!(
                c.write(end - 2, AccessSize::Word, 1),
                Err(BusError::Unmapped { .. })
            ));
        }
    }

    #[test]
    fn mmio_ntx_window_drives_engine() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.write_tcdm_f32(0, &[4.0, 4.0]);
        cluster.write_tcdm_f32(0x100, &[0.5, 0.5]);
        let cfg = mac_cfg(0, 0x100, 0x200, 2);
        let mut image = ntx_isa::RegFile::new();
        image.load_config(&cfg);
        let base = map::NTX_BASE;
        for off in (0..NTX_REGFILE_BYTES).step_by(4) {
            if off == RegOffset::COMMAND || off == RegOffset::STATUS {
                continue;
            }
            let v = image.read(off, false).unwrap();
            cluster.write(base + off, AccessSize::Word, v).unwrap();
        }
        cluster
            .write(
                base + RegOffset::COMMAND,
                AccessSize::Word,
                cfg.command.encode(),
            )
            .unwrap();
        assert_eq!(
            cluster
                .read(base + RegOffset::STATUS, AccessSize::Word)
                .unwrap(),
            1
        );
        cluster.run_to_completion();
        assert_eq!(cluster.read_tcdm_f32(0x200, 1)[0], 4.0);
    }

    #[test]
    fn mmio_dma_descriptor_block() {
        // Any 64-bit address a program writes is valid: 2^40 costs one
        // page, and from 2^64 - 4 the first row straddles the top of
        // the address space and the second starts past it, at 4.
        let data = [1.5, 2.5, 3.5, 4.5];
        let b = map::DMA_BASE;
        // Stages two 8-byte rows between `ext_addr` and TCDM 0x300.
        let stage = |cluster: &mut Cluster, ext_addr: u64| {
            for (reg, value) in [
                (map::DMA_EXT_LO, ext_addr as u32),
                (map::DMA_EXT_HI, (ext_addr >> 32) as u32),
                (map::DMA_TCDM, 0x300),
                (map::DMA_ROW_BYTES, 8),
                (map::DMA_ROWS, 2),
                (map::DMA_EXT_STRIDE, 8),
                (map::DMA_TCDM_STRIDE, 8),
            ] {
                cluster.write(b + reg, AccessSize::Word, value).unwrap();
            }
        };
        for ext in [0x100, 1 << 40, u64::MAX - 3] {
            let mut cluster = Cluster::new(ClusterConfig::default());
            cluster.ext_mem().write_f32_slice(ext, &data);
            // Moves the staged rows and runs the transfer out.
            let dma = |cluster: &mut Cluster, ext_addr: u64, to_ext: bool| {
                stage(cluster, ext_addr);
                cluster
                    .write(b + map::DMA_START, AccessSize::Word, u32::from(to_ext))
                    .unwrap();
                assert_eq!(
                    cluster.read(b + map::DMA_STATUS, AccessSize::Word).unwrap(),
                    1
                );
                cluster.run_to_completion();
            };
            dma(&mut cluster, ext, false);
            assert_eq!(cluster.read_tcdm_f32(0x300, 4), data);
            let back = ext.wrapping_add(16);
            dma(&mut cluster, back, true);
            assert_eq!(cluster.ext_mem().read_f32_slice(back, 4), data);
            assert!(
                cluster.ext_mem().resident_bytes() <= 2 * 64 * 1024,
                "ext {ext:#x}: {} bytes resident",
                cluster.ext_mem().resident_bytes()
            );
        }
        // A malformed descriptor is a device error on the store that
        // starts it: nothing is queued, and a well-formed descriptor
        // after it still round-trips.
        for (reg, bad) in [
            (map::DMA_ROW_BYTES, 0),
            (map::DMA_ROW_BYTES, 6),
            (map::DMA_TCDM, 2),
            (map::DMA_EXT_STRIDE, 2),
        ] {
            let mut cluster = Cluster::new(ClusterConfig::default());
            cluster.ext_mem().write_f32_slice(0x100, &data);
            stage(&mut cluster, 0x100);
            cluster.write(b + reg, AccessSize::Word, bad).unwrap();
            assert_eq!(
                cluster.write(b + map::DMA_START, AccessSize::Word, 0),
                Err(BusError::Device {
                    addr: b + map::DMA_START
                }),
                "register {reg:#x} = {bad}"
            );
            assert!(cluster.dma_idle());
            stage(&mut cluster, 0x100);
            cluster
                .write(b + map::DMA_START, AccessSize::Word, 0)
                .unwrap();
            cluster.run_to_completion();
            assert_eq!(cluster.read_tcdm_f32(0x300, 4), data);
            stage(&mut cluster, 0x200);
            cluster
                .write(b + map::DMA_START, AccessSize::Word, 1)
                .unwrap();
            cluster.run_to_completion();
            assert_eq!(cluster.ext_mem().read_f32_slice(0x200, 4), data);
        }
    }

    #[test]
    fn shared_hmc_port_stretches_timing_but_not_data() {
        use ntx_mem::hmc::{HmcConfig, HmcSubsystem};
        // 8 GB/s LoB split 16 ways = 0.1 words/cycle per port: a hard
        // throttle against the 1-word AXI port.
        let sub = HmcSubsystem::new(
            HmcConfig::default().with_interconnect_bits(64),
            16,
            1.25e9,
            1,
        );
        let run = |ext_port| {
            let mut cluster = Cluster::new(ClusterConfig {
                ext_port,
                ..ClusterConfig::default()
            });
            cluster.write_tcdm_f32(0, &[1.0; 32]);
            cluster.write_tcdm_f32(0x100, &[3.0; 32]);
            cluster.ext_mem().write_f32_slice(0x8000, &[9.0; 256]);
            cluster.dma_push(DmaDescriptor::linear(
                0x8000,
                0x4000,
                1024,
                DmaDirection::ExtToTcdm,
            ));
            cluster.offload_with_writes(0, &mac_cfg(0, 0x100, 0x200, 32), 1);
            cluster.run_to_completion();
            let data = (
                cluster.read_tcdm_f32(0x200, 1)[0],
                cluster.read_tcdm_f32(0x4000, 256),
            );
            (data, cluster.cycle(), cluster.perf())
        };
        let (ideal_data, ideal_cycles, ideal_perf) = run(None);
        let (contended_data, contended_cycles, contended_perf) = run(Some(sub.port(3)));
        assert_eq!(ideal_data, contended_data, "contention must not touch data");
        assert!(
            contended_cycles > 2 * ideal_cycles,
            "0.1 words/cycle must stretch the DMA-bound run ({contended_cycles} vs {ideal_cycles})"
        );
        assert_eq!(ideal_perf.ext_wait_cycles, 0);
        assert!(contended_perf.ext_wait_cycles > 0);
        // Traffic is identical either way — only its timing moved.
        assert_eq!(ideal_perf.dma_bytes, contended_perf.dma_bytes);
        assert_eq!(ideal_perf.ext_bytes_read, contended_perf.ext_bytes_read);
        assert_eq!(ideal_perf.flops, contended_perf.flops);
    }

    #[test]
    fn conflict_probability_is_plausible_under_streaming() {
        // 8 engines streaming disjoint regions: conflicts happen but
        // round-robin keeps the system fair; the measured probability
        // should be in the same regime as the paper's 13 %.
        let mut cluster = Cluster::new(ClusterConfig::default());
        let n = 512u32;
        for e in 0..8u32 {
            let base = e * 0x1800;
            cluster.write_tcdm_f32(base, &vec![1.0; n as usize]);
            cluster.write_tcdm_f32(base + 0x800, &vec![1.0; n as usize]);
        }
        for e in 0..8 {
            let base = e as u32 * 0x1800;
            cluster.offload_with_writes(e, &mac_cfg(base, base + 0x800, base + 0x17fc, n), 1);
        }
        cluster.run_to_completion();
        let p = cluster.perf().conflict_probability();
        assert!(p > 0.0 && p < 0.5, "conflict probability {p} out of regime");
    }
}
