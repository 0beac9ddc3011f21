//! The execution engine of one NTX co-processor (Fig. 2).
//!
//! Couples the ISA-level descriptors (loops, AGUs, commands) to the FPU
//! datapath and walks the offloaded loop nest at one innermost iteration
//! per cycle. The engine interacts with the cluster through a
//! two-phase-per-cycle protocol:
//!
//! 1. [`NtxEngine::desired_accesses`] lists the TCDM accesses of the
//!    current iteration (operand reads, accumulator-init read, store
//!    write);
//! 2. the cluster arbitrates all masters and calls
//!    [`NtxEngine::commit`] with the grant flags — all granted executes
//!    the iteration, any denial is a banking-conflict stall.
//!
//! Command offloading uses the double-buffered register interface of
//! §II-E: one command executes while the next is staged; a command
//! write while the buffer is full reports
//! [`EngineStatus::Backpressure`], which stalls the writing core.

use ntx_fpu::{FpuDatapath, FpuOp, SPILL_WORDS};
use ntx_isa::{
    AccuInit, Agu, Command, ConfigError, LoopCounters, NtxConfig, RegFile, RegOffset, StoreSource,
    WriteEffect,
};
use ntx_mem::{Interconnect, MasterId, Tcdm};

/// Outcome of a register write as seen by the offloading core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    /// The write was accepted.
    Accepted,
    /// The command buffer is full; the core must retry (bus stall).
    Backpressure,
}

/// The TCDM accesses of one engine cycle — a fixed-capacity inline list
/// (at most init read, x read, y read, store write), replacing the
/// per-cycle `Vec` the hot loop used to allocate.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessList {
    addrs: [u32; 4],
    write_mask: u8,
    len: u8,
}

impl AccessList {
    fn push(&mut self, addr: u32, write: bool) {
        self.addrs[self.len as usize] = addr;
        self.write_mask |= u8::from(write) << self.len;
        self.len += 1;
    }

    /// Number of accesses this cycle.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the engine requests nothing this cycle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The requested byte addresses, in the fixed order *init read, x
    /// read, y read, store write*.
    #[must_use]
    pub fn addrs(&self) -> &[u32] {
        &self.addrs[..self.len as usize]
    }

    /// Iterates `(address, is_write)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        (0..self.len as usize).map(|i| (self.addrs[i], self.write_mask & (1 << i) != 0))
    }
}

/// One engine cycle planned once: the access list plus the event flags
/// both arbitration and commit need, so the hot loop derives them a
/// single time per cycle instead of re-walking the loop-counter state
/// in `desired_accesses` *and* `commit`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CyclePlan {
    list: AccessList,
    needs_init: bool,
    needs_x: bool,
    needs_y: bool,
    /// `counters.at_store()` — store fires after this iteration.
    at_store: bool,
    /// Reduction accumulator (re-)initialisation fires this iteration.
    reduction_init: bool,
}

impl CyclePlan {
    /// The TCDM accesses of the planned cycle.
    #[must_use]
    pub fn accesses(&self) -> &AccessList {
        &self.list
    }
}

/// Outcome of an engine burst (see [`NtxEngine::burst_sole`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BurstOutcome {
    /// Cycles the burst advanced.
    pub cycles: u64,
    /// Cycles in which the engine issued at least one TCDM request
    /// (what the cluster's busy counter observes).
    pub accessed_cycles: u64,
}

/// Minimum pure-MAC run length worth entering the batched streak loop.
const MIN_STREAK: u32 = 2;
/// Elements per batched streak chunk (stack buffers).
const STREAK_CHUNK: usize = 64;

#[derive(Debug, Clone)]
struct Execution {
    config: NtxConfig,
    /// The command's datapath operation, TCDM reads per element, flops
    /// per element and reduction flag, derived once for the hot loop.
    op: FpuOp,
    reads: u32,
    flops: u64,
    reduction: bool,
    counters: LoopCounters,
    agus: [Agu; 3],
    /// Operand latches (the depth-2 FIFOs of Fig. 2): a granted read is
    /// kept across stall cycles so only missing operands are re-
    /// requested — this is what lets two same-bank streams make
    /// progress at half rate instead of deadlocking.
    latch_x: Option<f32>,
    latch_y: Option<f32>,
    latch_init: Option<f32>,
    /// Latched wide-spill image for [`AccuInit::Wide`] restores — the
    /// full accumulator state read through AGU 2 as one multi-word
    /// burst, kept across stall cycles like the scalar latches.
    latch_init_wide: Option<[u32; SPILL_WORDS]>,
    /// Init/store events are periodic in the flat iteration index (the
    /// loop counters are a mixed-radix encoding of it): `at_init` fires
    /// every `prod(bounds[..init_level])` iterations, `at_store` on the
    /// last iteration of every `prod(bounds[..store_level])`-long
    /// period. These countdowns make the per-cycle event checks O(1)
    /// instead of re-scanning the counter cascade.
    init_countdown: u64,
    init_period: u64,
    store_countdown: u64,
    store_period: u64,
}

impl Execution {
    /// True while the accumulator-init value for the current iteration
    /// still has to be fetched from the TCDM.
    #[inline]
    fn init_fetch_pending(&self) -> bool {
        match self.config.accu_init {
            AccuInit::Zero => false,
            AccuInit::Memory => self.latch_init.is_none(),
            AccuInit::Wide => self.latch_init_wide.is_none(),
        }
    }

    /// Fetches and latches the init operand after a granted init read:
    /// the rounded `f32` for [`AccuInit::Memory`], the full spill image
    /// for [`AccuInit::Wide`].
    fn latch_init_fetch(&mut self, tcdm: &mut Tcdm) {
        match self.config.accu_init {
            AccuInit::Wide => {
                self.latch_init_wide = Some(read_spill(tcdm, self.agus[2].address()));
            }
            _ => self.latch_init = Some(tcdm.read_f32(self.agus[2].address())),
        }
    }

    fn new(config: NtxConfig) -> Self {
        let bounds = config.loops.bounds();
        let period =
            |level: usize| -> u64 { bounds[..level].iter().map(|&b| u64::from(b)).product() };
        let init_period = period(config.loops.init_level());
        let store_period = period(config.loops.store_level());
        Self {
            config,
            op: config.command.fpu_op(),
            reads: config.command.reads_per_element(),
            flops: config.command.flops_per_element(),
            reduction: config.command.is_reduction(),
            counters: LoopCounters::new(config.loops),
            agus: [
                Agu::new(config.agus[0]),
                Agu::new(config.agus[1]),
                Agu::new(config.agus[2]),
            ],
            latch_x: None,
            latch_y: None,
            latch_init: None,
            latch_init_wide: None,
            init_countdown: 0,
            init_period,
            store_countdown: store_period - 1,
            store_period,
        }
    }

    /// `counters.at_init()`, tracked incrementally.
    #[inline]
    fn at_init(&self) -> bool {
        self.init_countdown == 0
    }

    /// `counters.at_store()`, tracked incrementally.
    #[inline]
    fn at_store(&self) -> bool {
        self.store_countdown == 0
    }

    /// Advances the event countdowns by one executed iteration.
    #[inline]
    fn tick_events(&mut self) {
        self.init_countdown = match self.init_countdown {
            0 => self.init_period - 1,
            n => n - 1,
        };
        self.store_countdown = match self.store_countdown {
            0 => self.store_period - 1,
            n => n - 1,
        };
        debug_assert_eq!(self.at_init(), self.counters.at_init());
        debug_assert_eq!(self.at_store(), self.counters.at_store());
    }
}

/// One NTX co-processor: register interface, controller, loop/AGU state
/// and FPU.
#[derive(Debug, Clone)]
pub struct NtxEngine {
    regfile: RegFile,
    current: Option<Execution>,
    staged: Option<NtxConfig>,
    fpu: FpuDatapath,
    // Counters.
    flops: u64,
    active_cycles: u64,
    stall_cycles: u64,
    commands_completed: u64,
}

impl Default for NtxEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl NtxEngine {
    /// Creates an idle engine.
    #[must_use]
    pub fn new() -> Self {
        Self {
            regfile: RegFile::new(),
            current: None,
            staged: None,
            fpu: FpuDatapath::new(),
            flops: 0,
            active_cycles: 0,
            stall_cycles: 0,
            commands_completed: 0,
        }
    }

    /// Switches this engine's FPU to the pre-overhaul reference
    /// accumulator (see [`FpuDatapath::use_reference_accumulator`]);
    /// used by clusters with the fast path disabled so the baseline is
    /// the seed implementation end to end.
    pub fn use_reference_fpu(&mut self) {
        self.fpu.use_reference_accumulator();
    }

    /// True while a command is executing or staged.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.current.is_some() || self.staged.is_some()
    }

    /// Writes a configuration register (the §II-E offload path).
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] for bad offsets or an invalid committed
    /// configuration.
    pub fn write_reg(&mut self, offset: u32, value: u32) -> Result<EngineStatus, ConfigError> {
        if offset == RegOffset::COMMAND && self.staged.is_some() && self.current.is_some() {
            return Ok(EngineStatus::Backpressure);
        }
        match self.regfile.write(offset, value)? {
            WriteEffect::Staged => Ok(EngineStatus::Accepted),
            WriteEffect::Commit(cfg) => {
                self.accept_command(*cfg);
                Ok(EngineStatus::Accepted)
            }
        }
    }

    /// Reads a configuration register; the status register reflects the
    /// live busy state.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError::RegisterOffsetOutOfRange`].
    pub fn read_reg(&self, offset: u32) -> Result<u32, ConfigError> {
        self.regfile.read(offset, self.is_busy())
    }

    /// Offloads a full configuration through the driver path (bypasses
    /// the register write sequence; the cluster accounts the cycles).
    /// Returns `Backpressure` if both command slots are occupied.
    pub fn offload(&mut self, config: &NtxConfig) -> EngineStatus {
        if self.staged.is_some() && self.current.is_some() {
            return EngineStatus::Backpressure;
        }
        self.regfile.load_config(config);
        self.accept_command(*config);
        EngineStatus::Accepted
    }

    fn accept_command(&mut self, config: NtxConfig) {
        if self.current.is_none() {
            self.fpu.set_register(config.register);
            self.current = Some(Execution::new(config));
        } else {
            debug_assert!(self.staged.is_none(), "caller checked backpressure");
            self.staged = Some(config);
        }
    }

    /// Plans the current iteration: accesses plus the event flags the
    /// commit path needs, derived in one pass over the loop state.
    #[must_use]
    pub fn plan_cycle(&self) -> CyclePlan {
        let mut plan = CyclePlan::default();
        let Some(exec) = &self.current else {
            return plan;
        };
        plan.reduction_init = exec.reduction && exec.at_init();
        plan.at_store = exec.at_store();
        plan.needs_init = plan.reduction_init && exec.init_fetch_pending();
        plan.needs_x = exec.reads >= 1 && exec.latch_x.is_none();
        plan.needs_y = exec.reads >= 2 && exec.latch_y.is_none();
        if plan.needs_init {
            plan.list.push(exec.agus[2].address(), false);
        }
        if plan.needs_x {
            plan.list.push(exec.agus[0].address(), false);
        }
        if plan.needs_y {
            plan.list.push(exec.agus[1].address(), false);
        }
        if plan.at_store {
            plan.list.push(exec.agus[2].address(), true);
        }
        plan
    }

    /// TCDM accesses needed by the current iteration this cycle, in the
    /// fixed order *init read, x read, y read, store write*.
    /// Already-latched operands are not re-requested. Empty when idle.
    #[must_use]
    pub fn desired_accesses(&self) -> AccessList {
        self.plan_cycle().list
    }

    /// Consumes this cycle's grants: granted reads are latched; when all
    /// operands are present and the store grant (if needed) arrived, the
    /// iteration executes. Anything missing is a conflict-stall cycle
    /// and the missing accesses are retried next cycle.
    /// `granted` must parallel [`Self::desired_accesses`] — a
    /// mismatched length is a caller bug and trips a debug assertion.
    ///
    /// This is the *reference* commit: it re-derives every event flag
    /// from the loop-counter cascade and always runs the operand-latch
    /// protocol, exactly as the pre-burst simulator did. The burst fast
    /// path uses [`NtxEngine::commit_planned`], whose outcome must be —
    /// and is, by the differential proptests — bit-identical.
    pub fn commit(&mut self, granted: &[bool], tcdm: &mut Tcdm) {
        let Some(exec) = &mut self.current else {
            debug_assert!(
                granted.is_empty(),
                "grants offered to an idle engine (got {})",
                granted.len()
            );
            return;
        };
        let cmd = exec.config.command;
        let reads = cmd.reads_per_element();
        let needs_init = cmd.is_reduction() && exec.counters.at_init() && exec.init_fetch_pending();
        let needs_x = reads >= 1 && exec.latch_x.is_none();
        let needs_y = reads >= 2 && exec.latch_y.is_none();
        let store_needed = exec.counters.at_store();
        debug_assert_eq!(
            granted.len(),
            usize::from(needs_init)
                + usize::from(needs_x)
                + usize::from(needs_y)
                + usize::from(store_needed),
            "grant slice must parallel desired_accesses"
        );
        let mut gi = 0;
        let mut take = |flag: bool| {
            if flag {
                let g = granted.get(gi).copied().unwrap_or(false);
                gi += 1;
                g
            } else {
                false
            }
        };
        // Latch granted reads (same order as desired_accesses).
        if take(needs_init) {
            exec.latch_init_fetch(tcdm);
        }
        if take(needs_x) {
            exec.latch_x = Some(tcdm.read_f32(exec.agus[0].address()));
        }
        if take(needs_y) {
            exec.latch_y = Some(tcdm.read_f32(exec.agus[1].address()));
        }
        let store_granted = take(store_needed);
        // Ready when nothing is missing any more.
        let init_pending =
            cmd.is_reduction() && exec.counters.at_init() && exec.init_fetch_pending();
        let reads_ready = !init_pending
            && (reads < 1 || exec.latch_x.is_some())
            && (reads < 2 || exec.latch_y.is_some());
        if !reads_ready || (store_needed && !store_granted) {
            self.stall_cycles += 1;
            return;
        }
        // Accumulator (re-)initialisation at the init level.
        if cmd.is_reduction() && exec.counters.at_init() {
            apply_accu_init(&mut self.fpu, exec, tcdm);
        }
        let x = exec.latch_x.take().unwrap_or(0.0);
        let y = if reads >= 2 {
            exec.latch_y.take().expect("checked by reads_ready")
        } else {
            self.fpu.register()
        };
        exec.latch_init = None;
        exec.latch_init_wide = None;
        // Execute.
        let index = exec.counters.index_counter();
        let out = self.fpu.execute(cmd.fpu_op(), x, y, index);
        self.flops += cmd.flops_per_element();
        self.active_cycles += 1;
        // Write-back.
        if store_needed {
            let addr = exec.agus[2].address();
            match cmd.store_source() {
                StoreSource::Element => {
                    tcdm.write_f32(addr, out.unwrap_or(0.0));
                }
                StoreSource::Accumulator => {
                    if exec.config.wide_store {
                        write_spill(tcdm, addr, &self.fpu.store_accumulator_wide());
                    } else {
                        tcdm.write_f32(addr, self.fpu.store_accumulator());
                    }
                }
                StoreSource::CompareValue => {
                    let v = match cmd {
                        Command::Min => self.fpu.store_min(),
                        _ => self.fpu.store_max(),
                    };
                    tcdm.write_f32(addr, v);
                }
                StoreSource::CompareIndex => {
                    let idx = match cmd {
                        Command::ArgMin => self.fpu.argmin(),
                        _ => self.fpu.argmax(),
                    };
                    tcdm.write_u32(addr, idx.unwrap_or(u32::MAX));
                }
            }
        }
        // Advance the cascade and the AGUs.
        match exec.counters.advance() {
            Some(level) => {
                for agu in &mut exec.agus {
                    agu.advance(level);
                }
                exec.tick_events();
            }
            None => {
                self.current = None;
                self.commands_completed += 1;
                if let Some(next) = self.staged.take() {
                    self.fpu.set_register(next.register);
                    self.current = Some(Execution::new(next));
                }
            }
        }
    }

    /// [`NtxEngine::commit`] with the cycle plan supplied by the caller
    /// (the hot loop plans once for arbitration and reuses it here).
    /// `plan` must be this cycle's [`NtxEngine::plan_cycle`].
    pub fn commit_planned(&mut self, plan: &CyclePlan, granted: &[bool], tcdm: &mut Tcdm) {
        if self.current.is_none() {
            debug_assert!(
                granted.is_empty(),
                "grants offered to an idle engine (got {})",
                granted.len()
            );
            return;
        }
        debug_assert_eq!(
            granted.len(),
            plan.list.len(),
            "grant slice must parallel desired_accesses"
        );
        if granted.iter().all(|&g| g) {
            self.commit_all_granted(plan, tcdm);
            return;
        }
        // Partial grants: latch what was granted, retry the rest.
        let exec = self.current.as_mut().expect("checked above");
        let reads = exec.reads;
        let mut gi = 0;
        let mut take = |flag: bool| {
            if flag {
                let g = granted.get(gi).copied().unwrap_or(false);
                gi += 1;
                g
            } else {
                false
            }
        };
        if take(plan.needs_init) {
            exec.latch_init_fetch(tcdm);
        }
        if take(plan.needs_x) {
            exec.latch_x = Some(tcdm.read_f32(exec.agus[0].address()));
        }
        if take(plan.needs_y) {
            exec.latch_y = Some(tcdm.read_f32(exec.agus[1].address()));
        }
        let store_granted = take(plan.at_store);
        // Ready when nothing is missing any more.
        let init_pending = exec.reduction && exec.at_init() && exec.init_fetch_pending();
        let reads_ready = !init_pending
            && (reads < 1 || exec.latch_x.is_some())
            && (reads < 2 || exec.latch_y.is_some());
        if !reads_ready || (plan.at_store && !store_granted) {
            self.stall_cycles += 1;
            return;
        }
        // Accumulator (re-)initialisation at the init level.
        if plan.reduction_init {
            apply_accu_init(&mut self.fpu, exec, tcdm);
        }
        let x = exec.latch_x.take().unwrap_or(0.0);
        let y = if reads >= 2 {
            exec.latch_y.take().expect("checked by reads_ready")
        } else {
            self.fpu.register()
        };
        exec.latch_init = None;
        exec.latch_init_wide = None;
        self.finish_iteration(x, y, plan.at_store, tcdm);
    }

    /// The iteration when every requested access was granted — the
    /// burst fast path's common case: operands stream straight from the
    /// TCDM into the datapath, skipping the latch protocol and the
    /// grant-slice walk entirely.
    #[inline]
    pub fn commit_all_granted(&mut self, plan: &CyclePlan, tcdm: &mut Tcdm) {
        let Some(exec) = &mut self.current else {
            return;
        };
        let reads = exec.reads;
        if plan.reduction_init {
            apply_accu_init(&mut self.fpu, exec, tcdm);
        }
        let exec = self.current.as_mut().expect("checked above");
        let x = match exec.latch_x.take() {
            Some(v) => v,
            None if reads >= 1 => tcdm.read_f32(exec.agus[0].address()),
            None => 0.0,
        };
        let y = if reads >= 2 {
            match exec.latch_y.take() {
                Some(v) => v,
                None => tcdm.read_f32(exec.agus[1].address()),
            }
        } else {
            self.fpu.register()
        };
        exec.latch_init = None;
        exec.latch_init_wide = None;
        self.finish_iteration(x, y, plan.at_store, tcdm);
    }

    /// Executes the ready iteration and advances the machine — shared
    /// tail of the planned commit paths.
    #[inline]
    fn finish_iteration(&mut self, x: f32, y: f32, at_store: bool, tcdm: &mut Tcdm) {
        let exec = self.current.as_mut().expect("iteration in flight");
        let cmd = exec.config.command;
        let index = exec.counters.index_counter();
        let out = self.fpu.execute(exec.op, x, y, index);
        self.flops += exec.flops;
        self.active_cycles += 1;
        if at_store {
            let addr = exec.agus[2].address();
            match cmd.store_source() {
                StoreSource::Element => {
                    tcdm.write_f32(addr, out.unwrap_or(0.0));
                }
                StoreSource::Accumulator => {
                    if exec.config.wide_store {
                        write_spill(tcdm, addr, &self.fpu.store_accumulator_wide());
                    } else {
                        tcdm.write_f32(addr, self.fpu.store_accumulator());
                    }
                }
                StoreSource::CompareValue => {
                    let v = match cmd {
                        Command::Min => self.fpu.store_min(),
                        _ => self.fpu.store_max(),
                    };
                    tcdm.write_f32(addr, v);
                }
                StoreSource::CompareIndex => {
                    let idx = match cmd {
                        Command::ArgMin => self.fpu.argmin(),
                        _ => self.fpu.argmax(),
                    };
                    tcdm.write_u32(addr, idx.unwrap_or(u32::MAX));
                }
            }
        }
        match exec.counters.advance() {
            Some(level) => {
                for agu in &mut exec.agus {
                    agu.advance(level);
                }
                exec.tick_events();
            }
            None => {
                self.current = None;
                self.commands_completed += 1;
                if let Some(next) = self.staged.take() {
                    self.fpu.set_register(next.register);
                    self.current = Some(Execution::new(next));
                }
            }
        }
    }

    /// Runs this engine as the *sole* TCDM master for up to
    /// `max_cycles` cycles — the burst fast path of the cluster
    /// simulator. Returns the cycles advanced and how many of them
    /// issued TCDM requests; the burst ends early when the engine
    /// retires its last command (current and staged).
    ///
    /// Bit-exact with the per-cycle `desired_accesses`/`arbitrate`/
    /// `commit` protocol: with a single master, arbitration is
    /// deterministic (the first same-bank request wins), so steady-state
    /// MAC streams whose remaining iterations are provably conflict-free
    /// — precomputed from the level-0 AGU strides and the bank count —
    /// are executed as batched TCDM slices fed straight into the FPU,
    /// while loop boundaries, init/store events, latched operands and
    /// potential same-bank conflicts fall back to the cycle-accurate
    /// path. All counters (engine, TCDM, interconnect, round-robin
    /// state) advance by exactly what per-cycle stepping would produce.
    /// With `stop_at_retire` the burst also ends at the cycle the
    /// current command retires, freeing the staged slot.
    pub fn burst_sole(
        &mut self,
        tcdm: &mut Tcdm,
        interconnect: &mut Interconnect,
        master: MasterId,
        max_cycles: u64,
        stop_at_retire: bool,
    ) -> BurstOutcome {
        let mut out = BurstOutcome::default();
        let retired = self.commands_completed;
        while out.cycles < max_cycles && self.current.is_some() {
            let streak = self.streak_len(tcdm, max_cycles - out.cycles);
            if streak >= MIN_STREAK {
                self.run_streak(tcdm, interconnect, master, streak);
                out.cycles += u64::from(streak);
                out.accessed_cycles += u64::from(streak);
                continue;
            }
            // Cycle-accurate fallback (events, conflicts, odd commands).
            let plan = self.plan_cycle();
            let list = plan.accesses();
            let mut granted = [false; 4];
            interconnect.arbitrate_sole(master, list.addrs(), &mut granted[..list.len()]);
            let accessed = !list.is_empty();
            self.commit_planned(&plan, &granted[..plan.accesses().len()], tcdm);
            out.cycles += 1;
            out.accessed_cycles += u64::from(accessed);
            if stop_at_retire && self.commands_completed != retired {
                break;
            }
        }
        out
    }

    /// Length of the provably conflict-free pure-MAC run the burst may
    /// execute in one batch: steady-state (no latches, no init/store
    /// events, level-0 advances only) with either a register operand
    /// (single stream, never self-conflicting) or two memory streams
    /// whose bank distance is invariant (equal level-0 bank rotation)
    /// and non-zero.
    fn streak_len(&self, tcdm: &Tcdm, cap: u64) -> u32 {
        let Some(exec) = &self.current else {
            return 0;
        };
        let op = exec.config.command.fpu_op();
        if op != FpuOp::Mac
            || exec.latch_x.is_some()
            || exec.latch_y.is_some()
            || exec.latch_init.is_some()
            || exec.latch_init_wide.is_some()
        {
            return 0;
        }
        let run = exec.counters.level0_run_len();
        if run < MIN_STREAK {
            return 0;
        }
        let reads = exec.config.command.reads_per_element();
        if reads == 2 {
            let banks = tcdm.config().banks;
            let sx = exec.agus[0].stride(0);
            let sy = exec.agus[1].stride(0);
            let period = 4 * banks as i64;
            if (i64::from(sx) - i64::from(sy)).rem_euclid(period) != 0 {
                return 0; // bank distance varies: conflicts not precomputable
            }
            let cfg = tcdm.config();
            if cfg.bank_of(exec.agus[0].address()) == cfg.bank_of(exec.agus[1].address()) {
                return 0; // would self-conflict every cycle
            }
        }
        run.min(cap.min(u64::from(u32::MAX)) as u32)
    }

    /// Executes a precomputed conflict-free MAC streak of `n`
    /// iterations as batched slice reads feeding the FPU directly.
    fn run_streak(
        &mut self,
        tcdm: &mut Tcdm,
        interconnect: &mut Interconnect,
        master: MasterId,
        n: u32,
    ) {
        let exec = self.current.as_mut().expect("checked by streak_len");
        let reads = exec.config.command.reads_per_element();
        let x0 = exec.agus[0].address();
        let sx = exec.agus[0].stride(0);
        let mut xs = [0f32; STREAK_CHUNK];
        let mut ys = [0f32; STREAK_CHUNK];
        let mut done = 0u32;
        if reads == 2 {
            let y0 = exec.agus[1].address();
            let sy = exec.agus[1].stride(0);
            while done < n {
                let m = ((n - done) as usize).min(STREAK_CHUNK);
                fetch_stream(
                    tcdm,
                    x0.wrapping_add(sx.wrapping_mul(done as i32) as u32),
                    sx,
                    &mut xs[..m],
                );
                fetch_stream(
                    tcdm,
                    y0.wrapping_add(sy.wrapping_mul(done as i32) as u32),
                    sy,
                    &mut ys[..m],
                );
                self.fpu.mac_slices(&xs[..m], &ys[..m]);
                done += m as u32;
            }
            interconnect.grant_stream(master, y0, sy, n);
        } else {
            while done < n {
                let m = ((n - done) as usize).min(STREAK_CHUNK);
                fetch_stream(
                    tcdm,
                    x0.wrapping_add(sx.wrapping_mul(done as i32) as u32),
                    sx,
                    &mut xs[..m],
                );
                self.fpu.mac_register_slice(&xs[..m]);
                done += m as u32;
            }
        }
        interconnect.grant_stream(master, x0, sx, n);
        // Advance the nest and all three AGUs by n level-0 iterations.
        exec.counters.advance_level0_by(n);
        debug_assert!(exec.init_countdown >= u64::from(n) && exec.store_countdown >= u64::from(n));
        exec.init_countdown -= u64::from(n);
        exec.store_countdown -= u64::from(n);
        for agu in &mut exec.agus {
            agu.advance_by(0, n);
        }
        self.flops += u64::from(n) * exec.config.command.flops_per_element();
        self.active_cycles += u64::from(n);
    }

    /// Flops retired by this engine.
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Cycles in which an iteration executed.
    #[must_use]
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// Cycles lost to banking-conflict stalls.
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Commands retired.
    #[must_use]
    pub fn commands_completed(&self) -> u64 {
        self.commands_completed
    }

    /// Read access to the FPU (precision experiments).
    #[must_use]
    pub fn fpu(&self) -> &FpuDatapath {
        &self.fpu
    }

    /// Resets the performance counters (not the execution state).
    pub fn reset_counters(&mut self) {
        self.flops = 0;
        self.active_cycles = 0;
        self.stall_cycles = 0;
        self.commands_completed = 0;
    }
}

/// Applies the accumulator (re-)initialisation of the current init
/// event: zero, rounded-`f32` load, or full wide-spill restore. Reads
/// from the operand latch when one is held (the stall-retry paths) and
/// straight from the TCDM otherwise (the all-granted fast path); both
/// cost the same TCDM read total per init event.
fn apply_accu_init(fpu: &mut FpuDatapath, exec: &Execution, tcdm: &mut Tcdm) {
    match exec.config.accu_init {
        AccuInit::Zero => fpu.init_accumulator(None),
        AccuInit::Memory => {
            let v = match exec.latch_init {
                Some(v) => v,
                None => tcdm.read_f32(exec.agus[2].address()),
            };
            fpu.init_accumulator(Some(v));
        }
        AccuInit::Wide => {
            let words = match exec.latch_init_wide {
                Some(w) => w,
                None => read_spill(tcdm, exec.agus[2].address()),
            };
            fpu.init_accumulator_wide(&words);
        }
    }
}

/// Reads one wide-accumulator spill image (a single arbitration event,
/// [`SPILL_WORDS`] counted TCDM reads).
fn read_spill(tcdm: &mut Tcdm, base: u32) -> [u32; SPILL_WORDS] {
    let mut words = [0u32; SPILL_WORDS];
    for (i, w) in words.iter_mut().enumerate() {
        *w = tcdm.read_u32(base + 4 * i as u32);
    }
    words
}

/// Writes one wide-accumulator spill image (a single arbitration event,
/// [`SPILL_WORDS`] counted TCDM writes).
fn write_spill(tcdm: &mut Tcdm, base: u32, words: &[u32; SPILL_WORDS]) {
    for (i, &w) in words.iter().enumerate() {
        tcdm.write_u32(base + 4 * i as u32, w);
    }
}

/// Reads `out.len()` elements of a strided stream (counted), using the
/// batched slice accessor for the contiguous stride-4 common case.
fn fetch_stream(tcdm: &mut Tcdm, base: u32, stride: i32, out: &mut [f32]) {
    if stride == 4 {
        tcdm.read_f32_into(base, out);
    } else {
        let mut a = base;
        for o in out.iter_mut() {
            *o = tcdm.read_f32(a);
            a = a.wrapping_add(stride as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntx_isa::{AguConfig, LoopNest, OperandSelect};

    fn mac() -> Command {
        Command::Mac {
            operand: OperandSelect::Memory,
        }
    }

    fn run_engine(engine: &mut NtxEngine, tcdm: &mut Tcdm, max_cycles: u64) -> u64 {
        let mut cycles = 0;
        while engine.is_busy() {
            let n = engine.desired_accesses().len();
            engine.commit(&vec![true; n], tcdm);
            cycles += 1;
            assert!(cycles <= max_cycles, "engine did not finish");
        }
        cycles
    }

    #[test]
    fn dot_product() {
        let mut tcdm = Tcdm::default();
        for i in 0..8u32 {
            tcdm.write_f32(4 * i, (i + 1) as f32);
            tcdm.write_f32(0x100 + 4 * i, 1.0);
        }
        let cfg = NtxConfig::builder()
            .command(mac())
            .loops(LoopNest::vector(8))
            .agu(0, AguConfig::stream(0, 4))
            .agu(1, AguConfig::stream(0x100, 4))
            .agu(2, AguConfig::fixed(0x200))
            .build()
            .unwrap();
        let mut engine = NtxEngine::new();
        assert_eq!(engine.offload(&cfg), EngineStatus::Accepted);
        let cycles = run_engine(&mut engine, &mut tcdm, 100);
        assert_eq!(cycles, 8); // one iteration per cycle
        assert_eq!(tcdm.read_f32(0x200), 36.0);
        assert_eq!(engine.flops(), 16);
        assert_eq!(engine.commands_completed(), 1);
    }

    #[test]
    fn axpy_with_register_operand() {
        // y = a*x + y via MacReg with memory accumulator init.
        let mut tcdm = Tcdm::default();
        for i in 0..4u32 {
            tcdm.write_f32(4 * i, (i + 1) as f32); // x
            tcdm.write_f32(0x100 + 4 * i, 10.0); // y
        }
        let cfg = NtxConfig::builder()
            .command(Command::Mac {
                operand: OperandSelect::Register,
            })
            .register(2.0)
            .loops(LoopNest::nested(&[1, 4]).with_levels(1, 1))
            .agu(0, AguConfig::stream(0, 4))
            .agu(2, AguConfig::new(0x100, [0, 4, 0, 0, 0]))
            .accu_init(ntx_isa::AccuInit::Memory)
            .build()
            .unwrap();
        let mut engine = NtxEngine::new();
        engine.offload(&cfg);
        run_engine(&mut engine, &mut tcdm, 100);
        for i in 0..4u32 {
            assert_eq!(
                tcdm.read_f32(0x100 + 4 * i),
                10.0 + 2.0 * (i + 1) as f32,
                "element {i}"
            );
        }
    }

    #[test]
    fn elementwise_relu() {
        let mut tcdm = Tcdm::default();
        let input = [-1.0f32, 2.0, -3.0, 4.0];
        for (i, &v) in input.iter().enumerate() {
            tcdm.write_f32(4 * i as u32, v);
        }
        let cfg = NtxConfig::builder()
            .command(Command::Relu)
            .loops(LoopNest::elementwise(4))
            .agu(0, AguConfig::stream(0, 4))
            .agu(2, AguConfig::stream(0x100, 4))
            .build()
            .unwrap();
        let mut engine = NtxEngine::new();
        engine.offload(&cfg);
        run_engine(&mut engine, &mut tcdm, 100);
        let got: Vec<f32> = (0..4).map(|i| tcdm.read_f32(0x100 + 4 * i)).collect();
        assert_eq!(got, vec![0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn argmax_writes_index_bits() {
        let mut tcdm = Tcdm::default();
        for (i, &v) in [0.5f32, 9.0, 3.0].iter().enumerate() {
            tcdm.write_f32(4 * i as u32, v);
        }
        let cfg = NtxConfig::builder()
            .command(Command::ArgMax)
            .loops(LoopNest::vector(3))
            .agu(0, AguConfig::stream(0, 4))
            .agu(2, AguConfig::fixed(0x80))
            .build()
            .unwrap();
        let mut engine = NtxEngine::new();
        engine.offload(&cfg);
        run_engine(&mut engine, &mut tcdm, 100);
        assert_eq!(tcdm.read_u32(0x80), 1);
    }

    #[test]
    fn memset_via_set() {
        let mut tcdm = Tcdm::default();
        let cfg = NtxConfig::builder()
            .command(Command::Set)
            .register(7.5)
            .loops(LoopNest::elementwise(5))
            .agu(2, AguConfig::stream(0x40, 4))
            .build()
            .unwrap();
        let mut engine = NtxEngine::new();
        engine.offload(&cfg);
        run_engine(&mut engine, &mut tcdm, 100);
        for i in 0..5 {
            assert_eq!(tcdm.read_f32(0x40 + 4 * i), 7.5);
        }
        assert_eq!(engine.flops(), 0);
    }

    #[test]
    fn stall_on_denied_grant() {
        let mut tcdm = Tcdm::default();
        let cfg = NtxConfig::builder()
            .command(mac())
            .loops(LoopNest::vector(2))
            .agu(0, AguConfig::stream(0, 4))
            .agu(1, AguConfig::stream(0x100, 4))
            .agu(2, AguConfig::fixed(0x200))
            .build()
            .unwrap();
        let mut engine = NtxEngine::new();
        engine.offload(&cfg);
        // Deny the first cycle entirely.
        let n = engine.desired_accesses().len();
        engine.commit(&vec![false; n], &mut tcdm);
        assert_eq!(engine.stall_cycles(), 1);
        assert_eq!(engine.active_cycles(), 0);
        // Partial grants also stall (all-or-nothing iteration issue).
        let mut grants = vec![true; n];
        grants[0] = false;
        engine.commit(&grants, &mut tcdm);
        assert_eq!(engine.stall_cycles(), 2);
        run_engine(&mut engine, &mut tcdm, 100);
        assert_eq!(engine.active_cycles(), 2);
    }

    #[test]
    fn double_buffering_accepts_one_staged_command() {
        let mut tcdm = Tcdm::default();
        let cfg = NtxConfig::builder()
            .command(mac())
            .loops(LoopNest::vector(4))
            .agu(0, AguConfig::stream(0, 4))
            .agu(1, AguConfig::stream(0x100, 4))
            .agu(2, AguConfig::fixed(0x200))
            .build()
            .unwrap();
        let mut engine = NtxEngine::new();
        assert_eq!(engine.offload(&cfg), EngineStatus::Accepted);
        assert_eq!(engine.offload(&cfg), EngineStatus::Accepted); // staged
        assert_eq!(engine.offload(&cfg), EngineStatus::Backpressure);
        // Drain both commands.
        let mut cycles = 0;
        while engine.is_busy() {
            let n = engine.desired_accesses().len();
            engine.commit(&vec![true; n], &mut tcdm);
            cycles += 1;
            assert!(cycles < 100);
        }
        assert_eq!(engine.commands_completed(), 2);
    }

    #[test]
    fn burst_sole_matches_per_cycle_protocol() {
        use ntx_mem::{BankRequest, Interconnect};
        let configs = [
            // Conflict-free streak: dot product over distinct banks.
            NtxConfig::builder()
                .command(mac())
                .loops(LoopNest::vector(100))
                .agu(0, AguConfig::stream(0, 4))
                .agu(1, AguConfig::stream(0x804, 4))
                .agu(2, AguConfig::fixed(0x200))
                .build()
                .unwrap(),
            // Same-bank x/y: self-conflicts every cycle (no streak).
            NtxConfig::builder()
                .command(mac())
                .loops(LoopNest::vector(20))
                .agu(0, AguConfig::stream(0, 4))
                .agu(1, AguConfig::stream(0x800, 4))
                .agu(2, AguConfig::fixed(0x200))
                .build()
                .unwrap(),
            // Register-operand MAC with memory accumulator init.
            NtxConfig::builder()
                .command(Command::Mac {
                    operand: OperandSelect::Register,
                })
                .register(1.5)
                .loops(LoopNest::nested(&[16, 4]).with_levels(1, 1))
                .agu(0, AguConfig::stream(0x40, 4))
                .agu(2, AguConfig::new(0x900, [0, 4, 0, 0, 0]))
                .accu_init(AccuInit::Memory)
                .build()
                .unwrap(),
            // Elementwise store cadence (no streak, store every cycle).
            NtxConfig::builder()
                .command(Command::Relu)
                .loops(LoopNest::elementwise(30))
                .agu(0, AguConfig::stream(0, 4))
                .agu(2, AguConfig::stream(0xc00, 4))
                .build()
                .unwrap(),
            // Strided walk with unequal rotations (streak rejected).
            NtxConfig::builder()
                .command(mac())
                .loops(LoopNest::nested(&[9, 5]).with_levels(2, 2))
                .agu(0, AguConfig::new(0, [12, 4, 0, 0, 0]))
                .agu(1, AguConfig::new(0x600, [4, -32, 0, 0, 0]))
                .agu(2, AguConfig::new(0xa00, [0, 0, 4, 0, 0]))
                .build()
                .unwrap(),
            // Wide spill/restore per row (split-K protocol shape).
            NtxConfig::builder()
                .command(mac())
                .loops(LoopNest::nested(&[12, 3]).with_levels(1, 1))
                .agu(0, AguConfig::stream(0, 4))
                .agu(1, AguConfig::stream(0x404, 4))
                .agu(2, AguConfig::new(0x1000, [0, 88, 0, 0, 0]))
                .accu_init(AccuInit::Wide)
                .wide_store(true)
                .build()
                .unwrap(),
        ];
        let image: Vec<f32> = (0..2048).map(|i| ((i * 13 % 31) as f32) - 15.0).collect();
        let mut ref_tcdm = Tcdm::default();
        let mut fast_tcdm = Tcdm::default();
        ref_tcdm.poke_f32_from(0, &image);
        fast_tcdm.poke_f32_from(0, &image);
        let mut ref_ic = Interconnect::new(32);
        let mut fast_ic = Interconnect::new(32);
        let mut reference = NtxEngine::new();
        let mut fast = NtxEngine::new();
        let me = MasterId::Ntx(0);
        for cfg in &configs {
            reference.offload(cfg);
            fast.offload(cfg);
            // Reference: full desired/arbitrate/commit cycles.
            let mut ref_cycles = 0u64;
            while reference.is_busy() {
                let list = reference.desired_accesses();
                let reqs: Vec<BankRequest> = list
                    .addrs()
                    .iter()
                    .map(|&addr| BankRequest { master: me, addr })
                    .collect();
                let grants = ref_ic.arbitrate(&reqs);
                reference.commit(&grants, &mut ref_tcdm);
                ref_cycles += 1;
                assert!(ref_cycles < 10_000);
            }
            // Fast path: burst with a small cap to exercise resumption.
            let mut cycles = 0u64;
            while fast.is_busy() {
                let out = fast.burst_sole(&mut fast_tcdm, &mut fast_ic, me, 37, false);
                assert!(out.cycles > 0);
                cycles += out.cycles;
                assert!(cycles < 10_000);
            }
            assert_eq!(cycles, ref_cycles, "cycles for {:?}", cfg.command);
            assert_eq!(fast.flops(), reference.flops());
            assert_eq!(fast.active_cycles(), reference.active_cycles());
            assert_eq!(fast.stall_cycles(), reference.stall_cycles());
            assert_eq!(fast.commands_completed(), reference.commands_completed());
            assert_eq!(fast_ic.requests(), ref_ic.requests());
            assert_eq!(fast_ic.grants(), ref_ic.grants());
            assert_eq!(fast_ic.conflicts(), ref_ic.conflicts());
            assert_eq!(
                (fast_tcdm.reads(), fast_tcdm.writes()),
                (ref_tcdm.reads(), ref_tcdm.writes()),
                "tcdm counters for {:?}",
                cfg.command
            );
            for a in (0..8192u32).step_by(4) {
                assert_eq!(
                    fast_tcdm.peek_u32(a),
                    ref_tcdm.peek_u32(a),
                    "tcdm word {a:#x} after {:?}",
                    cfg.command
                );
            }
        }
    }

    #[test]
    fn wide_spill_resumes_reductions_bit_exactly() {
        // An 8-element dot product whose running sum transiently holds
        // 9e14 + 3 at the pass boundary: any f32 rounding there loses
        // the small terms, so only the wide-chained split can match the
        // unsplit oracle (which cancels back down to exactly 6.0).
        let xs = [3.0e7f32, 1.0, 0.25, 0.5, -3.0e7, 2.0, 0.125, 4.0];
        let ys = [3.0e7f32, 1.0, 4.0, 2.0, 3.0e7, 0.5, 8.0, 0.25];
        let mut tcdm = Tcdm::default();
        tcdm.poke_f32_from(0, &xs);
        tcdm.poke_f32_from(0x100, &ys);
        let pass = |lo: u32, init: AccuInit, wide: bool, c_addr: u32| {
            NtxConfig::builder()
                .command(mac())
                .loops(LoopNest::vector(4))
                .agu(0, AguConfig::stream(16 * lo, 4))
                .agu(1, AguConfig::stream(0x100 + 16 * lo, 4))
                .agu(2, AguConfig::fixed(c_addr))
                .accu_init(init)
                .wide_store(wide)
                .build()
                .unwrap()
        };
        // Oracle: the unsplit reduction.
        let mut engine = NtxEngine::new();
        engine.offload(
            &NtxConfig::builder()
                .command(mac())
                .loops(LoopNest::vector(8))
                .agu(0, AguConfig::stream(0, 4))
                .agu(1, AguConfig::stream(0x100, 4))
                .agu(2, AguConfig::fixed(0x600))
                .build()
                .unwrap(),
        );
        run_engine(&mut engine, &mut tcdm, 100);
        // Split into two passes chained through the wide spill image;
        // the final pass stores the rounded f32 over the image base.
        let mut wide = NtxEngine::new();
        wide.offload(&pass(0, AccuInit::Zero, true, 0x700));
        run_engine(&mut wide, &mut tcdm, 100);
        wide.offload(&pass(1, AccuInit::Wide, false, 0x700));
        run_engine(&mut wide, &mut tcdm, 100);
        // Split chained through the rounded f32 (read-modify-write).
        let mut lossy = NtxEngine::new();
        lossy.offload(&pass(0, AccuInit::Zero, false, 0x780));
        run_engine(&mut lossy, &mut tcdm, 100);
        lossy.offload(&pass(1, AccuInit::Memory, false, 0x780));
        run_engine(&mut lossy, &mut tcdm, 100);
        let unsplit = tcdm.read_u32(0x600);
        assert_eq!(f32::from_bits(unsplit), 6.0, "exact sum");
        assert_eq!(tcdm.read_u32(0x700), unsplit, "wide-chained split differs");
        assert_ne!(tcdm.read_u32(0x780), unsplit, "f32 chaining must round");
    }

    #[test]
    fn register_interface_offload_matches_driver() {
        // Program the engine through raw register writes like the core.
        let mut tcdm = Tcdm::default();
        for i in 0..4u32 {
            tcdm.write_f32(4 * i, 2.0);
            tcdm.write_f32(0x100 + 4 * i, 3.0);
        }
        let cfg = NtxConfig::builder()
            .command(mac())
            .loops(LoopNest::vector(4))
            .agu(0, AguConfig::stream(0, 4))
            .agu(1, AguConfig::stream(0x100, 4))
            .agu(2, AguConfig::fixed(0x200))
            .build()
            .unwrap();
        let mut image = RegFile::new();
        image.load_config(&cfg);
        let mut engine = NtxEngine::new();
        for off in (0..ntx_isa::NTX_REGFILE_BYTES).step_by(4) {
            if off == RegOffset::COMMAND || off == RegOffset::STATUS {
                continue;
            }
            let v = image.read(off, false).unwrap();
            assert_eq!(engine.write_reg(off, v).unwrap(), EngineStatus::Accepted);
        }
        assert_eq!(engine.read_reg(RegOffset::STATUS).unwrap(), 0);
        engine
            .write_reg(RegOffset::COMMAND, cfg.command.encode())
            .unwrap();
        assert_eq!(engine.read_reg(RegOffset::STATUS).unwrap(), 1);
        run_engine(&mut engine, &mut tcdm, 100);
        assert_eq!(tcdm.read_f32(0x200), 24.0);
    }
}
