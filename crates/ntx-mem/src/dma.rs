//! The cluster DMA engine.
//!
//! §II-A: *"An additional DMA engine allows the transfer of two-
//! dimensional data planes between the TCDM and the HMC's memory
//! space."* §II-E: the cores use it for double buffering so NTX compute
//! and data movement overlap.
//!
//! The engine drains a queue of 2-D descriptors, moving one 32-bit word
//! per granted TCDM access. The AXI port runs 64 bit wide at half the
//! NTX clock (§III-A), i.e. one word per NTX cycle — 5 GB/s at
//! 1.25 GHz — which is exactly the TCDM-side request rate, so a single
//! [`words_per_cycle`](DmaEngine::words_per_cycle) parameter models the
//! port width (2 for the 128-bit, 4 for the 256-bit variant of §III-C).

use crate::ext_mem::ExtMemory;
use crate::hmc::HmcPort;
use crate::interconnect::{Interconnect, MasterId};
use crate::tcdm::Tcdm;
use std::collections::VecDeque;

/// Outcome of one [`DmaEngine::burst_sole_throttled`] call.
///
/// The caller needs both counts because they diverge under a binding
/// bandwidth budget: `cycles` advances the cluster clock, while
/// `active_cycles` (cycles with at least one TCDM request) advances
/// the cluster's busy counter; the difference is the cycles the engine
/// sat waiting for an external-memory slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThrottledBurst {
    /// Cycles consumed (including zero-grant wait cycles).
    pub cycles: u64,
    /// Cycles in which the engine issued at least one TCDM request.
    pub active_cycles: u64,
}

/// Transfer direction of a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaDirection {
    /// External memory → TCDM (input tile load).
    ExtToTcdm,
    /// TCDM → external memory (result tile store).
    TcdmToExt,
}

/// A two-dimensional DMA transfer descriptor.
///
/// Moves `rows` rows of `row_bytes` bytes each; consecutive rows are
/// `ext_stride` bytes apart on the external side and `tcdm_stride`
/// bytes apart in the TCDM. A 1-D transfer is a descriptor with
/// `rows == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaDescriptor {
    /// External-memory base address.
    pub ext_addr: u64,
    /// TCDM base address.
    pub tcdm_addr: u32,
    /// Bytes per row (must be a positive multiple of 4).
    pub row_bytes: u32,
    /// Number of rows (must be positive).
    pub rows: u32,
    /// External-side distance between row starts, in bytes.
    pub ext_stride: u64,
    /// TCDM-side distance between row starts, in bytes.
    pub tcdm_stride: u32,
    /// Transfer direction.
    pub dir: DmaDirection,
}

impl DmaDescriptor {
    /// Convenience 1-D descriptor.
    #[must_use]
    pub fn linear(ext_addr: u64, tcdm_addr: u32, bytes: u32, dir: DmaDirection) -> Self {
        Self {
            ext_addr,
            tcdm_addr,
            row_bytes: bytes,
            rows: 1,
            ext_stride: u64::from(bytes),
            tcdm_stride: bytes,
            dir,
        }
    }

    /// Checks the descriptor rules [`DmaEngine::push`] enforces: at
    /// least one row, row bytes a positive multiple of 4, word-aligned
    /// addresses and strides.
    ///
    /// # Errors
    ///
    /// Returns the violated rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.rows == 0 {
            return Err("descriptor needs at least one row");
        }
        if self.row_bytes == 0 || !self.row_bytes.is_multiple_of(4) {
            return Err("row bytes must be a positive multiple of 4");
        }
        if !self.ext_addr.is_multiple_of(4) || !self.tcdm_addr.is_multiple_of(4) {
            return Err("DMA addresses must be word aligned");
        }
        if !self.ext_stride.is_multiple_of(4) || !self.tcdm_stride.is_multiple_of(4) {
            return Err("DMA strides must be word aligned");
        }
        Ok(())
    }

    /// Total payload bytes of the transfer.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.row_bytes) * u64::from(self.rows)
    }

    fn total_words(&self) -> u64 {
        self.total_bytes() / 4
    }

    /// The ext and TCDM addresses of word `word`. Both wrap, as the
    /// engine's incremental cursor does, so any descriptor a program
    /// can write is well defined.
    fn word_addrs(&self, word: u64) -> (u64, u32) {
        let wpr = u64::from(self.row_bytes / 4);
        let row = word / wpr;
        let col = word % wpr;
        (
            self.ext_addr
                .wrapping_add(row.wrapping_mul(self.ext_stride))
                .wrapping_add(col * 4),
            self.tcdm_addr
                .wrapping_add((row as u32).wrapping_mul(self.tcdm_stride))
                .wrapping_add(col as u32 * 4),
        )
    }
}

/// The DMA engine: descriptor queue plus transfer state machine.
///
/// Per simulated cycle the cluster asks for the TCDM addresses the DMA
/// wants ([`DmaEngine::desired_accesses`]), arbitrates them against the
/// NTX/core masters, and calls [`DmaEngine::commit`] with the grant
/// flags. [`DmaEngine::run_to_completion`] is the stand-alone variant
/// used by tests and coarse models, where every access is granted.
///
/// # Example
///
/// ```
/// use ntx_mem::{DmaDescriptor, DmaDirection, DmaEngine, ExtMemory, Tcdm};
///
/// let mut dma = DmaEngine::new(1);
/// let mut tcdm = Tcdm::default();
/// let mut ext = ExtMemory::new();
/// ext.write_f32_slice(0x100, &[1.0, 2.0, 3.0, 4.0]);
/// dma.push(DmaDescriptor::linear(0x100, 0x40, 16, DmaDirection::ExtToTcdm));
/// let cycles = dma.run_to_completion(&mut tcdm, &mut ext);
/// assert_eq!(cycles, 4); // one word per cycle
/// assert_eq!(tcdm.read_f32(0x44), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct DmaEngine {
    queue: VecDeque<DmaDescriptor>,
    current_word: u64,
    words_per_cycle: u32,
    bytes_moved: u64,
    busy_cycles: u64,
    completed: u64,
    /// Reusable word buffer for the burst fast path's row batches.
    scratch: Vec<u32>,
    /// Incremental cursor over the head descriptor (external address,
    /// TCDM address, column of `current_word`), so the per-cycle hot
    /// loop advances by additions instead of re-deriving row/column
    /// with 64-bit divisions.
    cur_ea: u64,
    cur_ta: u32,
    cur_col: u64,
}

impl DmaEngine {
    /// Creates an engine moving up to `words_per_cycle` 32-bit words per
    /// cycle (1 = the paper's 64-bit AXI port at half clock).
    ///
    /// # Panics
    ///
    /// Panics if `words_per_cycle` is zero.
    #[must_use]
    pub fn new(words_per_cycle: u32) -> Self {
        assert!(words_per_cycle > 0, "DMA must move at least one word");
        Self {
            queue: VecDeque::new(),
            current_word: 0,
            words_per_cycle,
            bytes_moved: 0,
            busy_cycles: 0,
            completed: 0,
            scratch: Vec::new(),
            cur_ea: 0,
            cur_ta: 0,
            cur_col: 0,
        }
    }

    /// Port width in words per cycle.
    #[must_use]
    pub fn words_per_cycle(&self) -> u32 {
        self.words_per_cycle
    }

    /// Enqueues a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor breaks a rule of
    /// [`DmaDescriptor::validate`] (zero rows, zero or unaligned row
    /// bytes, unaligned addresses or strides).
    pub fn push(&mut self, desc: DmaDescriptor) {
        if let Err(rule) = desc.validate() {
            panic!("{rule}");
        }
        self.queue.push_back(desc);
        if self.queue.len() == 1 {
            self.sync_cursor();
        }
    }

    /// Re-derives the incremental cursor from `current_word` (after a
    /// descriptor change or a bulk advance).
    fn sync_cursor(&mut self) {
        if let Some(desc) = self.queue.front() {
            let wpr = u64::from(desc.row_bytes / 4);
            self.cur_col = self.current_word % wpr;
            let (ea, ta) = desc.word_addrs(self.current_word);
            self.cur_ea = ea;
            self.cur_ta = ta;
        }
    }

    /// True when no descriptor is pending or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of descriptors waiting (including the active one).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// TCDM word addresses the engine wants to access this cycle, up to
    /// the port width (fewer near the end of a descriptor; descriptors
    /// do not overlap within a cycle, matching the RTL's serialisation).
    #[must_use]
    pub fn desired_accesses(&self) -> Vec<u32> {
        let mut v = Vec::new();
        self.desired_accesses_into(&mut v);
        v
    }

    /// Allocation-free variant of [`DmaEngine::desired_accesses`]: the
    /// addresses are appended to a cleared caller buffer, which the hot
    /// loop reuses across cycles.
    pub fn desired_accesses_into(&self, out: &mut Vec<u32>) {
        out.clear();
        let Some(desc) = self.queue.front() else {
            return;
        };
        let remaining = desc.total_words() - self.current_word;
        let n = u64::from(self.words_per_cycle).min(remaining);
        debug_assert_eq!(self.cur_ta, desc.word_addrs(self.current_word).1);
        for i in 0..n {
            out.push(if i == 0 {
                self.cur_ta
            } else {
                desc.word_addrs(self.current_word + i).1
            });
        }
    }

    /// Performs the granted transfers for this cycle. `granted[i]`
    /// corresponds to `desired_accesses()[i]`; a prefix-contiguity rule
    /// applies (a denied word blocks the ones behind it, preserving
    /// order). Returns the number of words moved.
    pub fn commit(&mut self, granted: &[bool], tcdm: &mut Tcdm, ext: &mut ExtMemory) -> u32 {
        let beats = granted.iter().take_while(|&&g| g).count();
        self.commit_beats(beats, tcdm, ext)
    }

    /// [`DmaEngine::commit`] given the number of leading granted words
    /// (`beats` must not exceed this cycle's desired accesses).
    pub fn commit_beats(&mut self, beats: usize, tcdm: &mut Tcdm, ext: &mut ExtMemory) -> u32 {
        let Some(desc) = self.queue.front().copied() else {
            return 0;
        };
        let wpr = u64::from(desc.row_bytes / 4);
        for _ in 0..beats {
            let (ea, ta) = (self.cur_ea, self.cur_ta);
            debug_assert_eq!((ea, ta), desc.word_addrs(self.current_word));
            match desc.dir {
                DmaDirection::ExtToTcdm => {
                    let w = ext.read_u32(ea);
                    tcdm.write_u32(ta, w);
                }
                DmaDirection::TcdmToExt => {
                    let w = tcdm.read_u32(ta);
                    ext.write_u32(ea, w);
                }
            }
            self.current_word += 1;
            self.cur_col += 1;
            if self.cur_col == wpr {
                // Next row start.
                self.cur_col = 0;
                self.cur_ea = self
                    .cur_ea
                    .wrapping_add(desc.ext_stride)
                    .wrapping_sub(u64::from(desc.row_bytes))
                    .wrapping_add(4);
                self.cur_ta = self
                    .cur_ta
                    .wrapping_add(desc.tcdm_stride)
                    .wrapping_sub(desc.row_bytes)
                    .wrapping_add(4);
            } else {
                self.cur_ea = self.cur_ea.wrapping_add(4);
                self.cur_ta = self.cur_ta.wrapping_add(4);
            }
        }
        if beats > 0 {
            self.busy_cycles += 1;
            self.bytes_moved += beats as u64 * 4;
        }
        if self.current_word == desc.total_words() {
            self.queue.pop_front();
            self.current_word = 0;
            self.completed += 1;
            self.sync_cursor();
        }
        beats as u32
    }

    /// Drains the head descriptor as the *sole* TCDM master for up to
    /// `max_cycles` cycles, stopping at the descriptor boundary so
    /// completion-watermark pollers observe the same transition points
    /// as with per-cycle stepping. Returns the cycles consumed (0 when
    /// idle).
    ///
    /// Bit-exact with the per-cycle `desired_accesses`/`arbitrate`/
    /// `commit` protocol: with a single master every access is granted
    /// (one word per bank per cycle), so rows are moved as whole batched
    /// slices, with all counters — TCDM/external traffic, interconnect
    /// requests/grants and round-robin state, DMA busy cycles and bytes
    /// — advanced by exactly what the cycle-accurate path would produce.
    pub fn burst_sole(
        &mut self,
        tcdm: &mut Tcdm,
        ext: &mut ExtMemory,
        interconnect: &mut Interconnect,
        max_cycles: u64,
    ) -> u64 {
        let Some(desc) = self.queue.front().copied() else {
            return 0;
        };
        let total = desc.total_words();
        let wpr = u64::from(desc.row_bytes / 4);
        let mut cycles = 0u64;
        if self.words_per_cycle == 1 {
            // One word per cycle: a row run of L words is exactly L
            // conflict-free cycles — move it as one slice.
            while self.current_word < total && cycles < max_cycles {
                let col = self.current_word % wpr;
                let run = (wpr - col)
                    .min(total - self.current_word)
                    .min(max_cycles - cycles) as usize;
                let (ea, ta) = desc.word_addrs(self.current_word);
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.resize(run, 0);
                match desc.dir {
                    DmaDirection::ExtToTcdm => {
                        ext.read_words_into(ea, &mut scratch[..run]);
                        tcdm.write_words_from(ta, &scratch[..run]);
                    }
                    DmaDirection::TcdmToExt => {
                        tcdm.read_words_into(ta, &mut scratch[..run]);
                        ext.write_words_from(ea, &scratch[..run]);
                    }
                }
                self.scratch = scratch;
                interconnect.grant_stream(MasterId::Dma, ta, 4, run as u32);
                self.current_word += run as u64;
                cycles += run as u64;
                self.busy_cycles += run as u64;
                self.bytes_moved += 4 * run as u64;
            }
            if self.current_word == total {
                self.queue.pop_front();
                self.current_word = 0;
                self.completed += 1;
            }
            self.sync_cursor();
        } else {
            // Wider ports can straddle a row boundary within one cycle
            // (two non-consecutive words may share a bank); run the
            // cycle-accurate protocol with reused buffers instead.
            let before = self.completed;
            let mut addrs: Vec<u32> = Vec::with_capacity(self.words_per_cycle as usize);
            let mut grants: Vec<bool> = vec![false; self.words_per_cycle as usize];
            while self.completed == before && cycles < max_cycles {
                self.desired_accesses_into(&mut addrs);
                interconnect.arbitrate_sole(MasterId::Dma, &addrs, &mut grants[..addrs.len()]);
                let n = addrs.len();
                self.commit(&grants[..n], tcdm, ext);
                cycles += 1;
            }
        }
        cycles
    }

    /// Drains the head descriptor as the sole TCDM master while every
    /// external-memory beat draws from the shared HMC slot budget of
    /// `port` — the contended-aware variant of
    /// [`DmaEngine::burst_sole`]. `start_cycle` anchors the grant
    /// schedule to the cluster clock; the burst stops at the
    /// descriptor boundary or after `max_cycles`, whichever comes
    /// first.
    ///
    /// Bit-exact with the clipped per-cycle protocol (truncate the
    /// desired accesses to the cycle's granted slot count, arbitrate,
    /// commit): whole-row slices are still moved in batches, but each
    /// batch clips at the run of consecutive granted cycles, and
    /// zero-grant cycles advance time without issuing TCDM requests or
    /// touching any traffic counter.
    pub fn burst_sole_throttled(
        &mut self,
        tcdm: &mut Tcdm,
        ext: &mut ExtMemory,
        interconnect: &mut Interconnect,
        port: HmcPort,
        start_cycle: u64,
        max_cycles: u64,
    ) -> ThrottledBurst {
        let Some(desc) = self.queue.front().copied() else {
            return ThrottledBurst::default();
        };
        let total = desc.total_words();
        let wpr = u64::from(desc.row_bytes / 4);
        let mut out = ThrottledBurst::default();
        if self.words_per_cycle == 1 {
            while self.current_word < total && out.cycles < max_cycles {
                let t = start_cycle + out.cycles;
                if port.granted(t) == 0 {
                    // No slot this cycle: the beat stays pending, no
                    // TCDM request is issued.
                    out.cycles += 1;
                    continue;
                }
                // Extend the batch over consecutive granted cycles,
                // clipped at the row run (one conflict-free word per
                // granted cycle, exactly as the per-cycle protocol).
                let col = self.current_word % wpr;
                let cap = (wpr - col)
                    .min(total - self.current_word)
                    .min(max_cycles - out.cycles);
                let mut run = 1u64;
                while run < cap && port.granted(t + run) > 0 {
                    run += 1;
                }
                let run = run as usize;
                let (ea, ta) = desc.word_addrs(self.current_word);
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.resize(run, 0);
                match desc.dir {
                    DmaDirection::ExtToTcdm => {
                        ext.read_words_into(ea, &mut scratch[..run]);
                        tcdm.write_words_from(ta, &scratch[..run]);
                    }
                    DmaDirection::TcdmToExt => {
                        tcdm.read_words_into(ta, &mut scratch[..run]);
                        ext.write_words_from(ea, &scratch[..run]);
                    }
                }
                self.scratch = scratch;
                interconnect.grant_stream(MasterId::Dma, ta, 4, run as u32);
                self.current_word += run as u64;
                out.cycles += run as u64;
                out.active_cycles += run as u64;
                self.busy_cycles += run as u64;
                self.bytes_moved += 4 * run as u64;
            }
            if self.current_word == total {
                self.queue.pop_front();
                self.current_word = 0;
                self.completed += 1;
            }
            self.sync_cursor();
        } else {
            // Wider ports run the cycle-accurate protocol with the
            // desired list clipped to the cycle's slot grant.
            let before = self.completed;
            let mut addrs: Vec<u32> = Vec::with_capacity(self.words_per_cycle as usize);
            let mut grants: Vec<bool> = vec![false; self.words_per_cycle as usize];
            while self.completed == before && out.cycles < max_cycles {
                let t = start_cycle + out.cycles;
                let allow = port.granted(t).min(self.words_per_cycle) as usize;
                self.desired_accesses_into(&mut addrs);
                addrs.truncate(allow);
                if addrs.is_empty() {
                    out.cycles += 1;
                    continue;
                }
                interconnect.arbitrate_sole(MasterId::Dma, &addrs, &mut grants[..addrs.len()]);
                let n = addrs.len();
                self.commit(&grants[..n], tcdm, ext);
                out.cycles += 1;
                out.active_cycles += 1;
            }
        }
        out
    }

    /// Drains the whole queue assuming every TCDM access is granted.
    /// Returns the number of cycles consumed.
    pub fn run_to_completion(&mut self, tcdm: &mut Tcdm, ext: &mut ExtMemory) -> u64 {
        let mut cycles = 0;
        while !self.is_idle() {
            let desired = self.desired_accesses();
            let grants = vec![true; desired.len()];
            self.commit(&grants, tcdm, ext);
            cycles += 1;
        }
        cycles
    }

    /// Total payload bytes moved (both directions).
    #[must_use]
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Cycles in which at least one word moved.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Descriptors fully retired.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Resets the statistics counters (not the queue).
    pub fn reset_counters(&mut self) {
        self.bytes_moved = 0;
        self.busy_cycles = 0;
        self.completed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_transfer_roundtrip() {
        let mut dma = DmaEngine::new(1);
        let mut tcdm = Tcdm::default();
        let mut ext = ExtMemory::new();
        ext.write_f32_slice(0, &[1.0, 2.0, 3.0]);
        dma.push(DmaDescriptor::linear(0, 0x100, 12, DmaDirection::ExtToTcdm));
        dma.run_to_completion(&mut tcdm, &mut ext);
        assert_eq!(tcdm.read_f32(0x100), 1.0);
        assert_eq!(tcdm.read_f32(0x108), 3.0);
        // And back out to a different location.
        dma.push(DmaDescriptor::linear(
            0x40,
            0x100,
            12,
            DmaDirection::TcdmToExt,
        ));
        dma.run_to_completion(&mut tcdm, &mut ext);
        assert_eq!(ext.read_f32_slice(0x40, 3), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn two_dimensional_strided_transfer() {
        // Copy a 2x3-word tile out of a 5-word-wide external image.
        let mut dma = DmaEngine::new(1);
        let mut tcdm = Tcdm::default();
        let mut ext = ExtMemory::new();
        #[rustfmt::skip]
        ext.write_f32_slice(0, &[
            1.0, 2.0, 3.0, 4.0, 5.0,
            6.0, 7.0, 8.0, 9.0, 10.0,
        ]);
        dma.push(DmaDescriptor {
            ext_addr: 4, // start at column 1
            tcdm_addr: 0,
            row_bytes: 12, // 3 words
            rows: 2,
            ext_stride: 20,  // 5 words
            tcdm_stride: 12, // packed
            dir: DmaDirection::ExtToTcdm,
        });
        dma.run_to_completion(&mut tcdm, &mut ext);
        let got: Vec<f32> = (0..6).map(|i| tcdm.read_f32(4 * i)).collect();
        assert_eq!(got, vec![2.0, 3.0, 4.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn bandwidth_is_one_word_per_cycle() {
        let mut dma = DmaEngine::new(1);
        let mut tcdm = Tcdm::default();
        let mut ext = ExtMemory::new();
        dma.push(DmaDescriptor::linear(0, 0, 400, DmaDirection::ExtToTcdm));
        let cycles = dma.run_to_completion(&mut tcdm, &mut ext);
        assert_eq!(cycles, 100);
        assert_eq!(dma.bytes_moved(), 400);
    }

    #[test]
    fn wider_port_halves_cycles() {
        let mut dma = DmaEngine::new(2);
        let mut tcdm = Tcdm::default();
        let mut ext = ExtMemory::new();
        dma.push(DmaDescriptor::linear(0, 0, 400, DmaDirection::ExtToTcdm));
        let cycles = dma.run_to_completion(&mut tcdm, &mut ext);
        assert_eq!(cycles, 50);
    }

    #[test]
    fn denied_grant_preserves_order() {
        let mut dma = DmaEngine::new(2);
        let mut tcdm = Tcdm::default();
        let mut ext = ExtMemory::new();
        ext.write_f32_slice(0, &[1.0, 2.0, 3.0, 4.0]);
        dma.push(DmaDescriptor::linear(0, 0, 16, DmaDirection::ExtToTcdm));
        // First beat granted, second denied: only one word moves.
        let desired = dma.desired_accesses();
        assert_eq!(desired.len(), 2);
        assert_eq!(dma.commit(&[true, false], &mut tcdm, &mut ext), 1);
        // Denied first beat: nothing moves even if the second was granted.
        assert_eq!(dma.commit(&[false, true], &mut tcdm, &mut ext), 0);
        // Finish.
        while !dma.is_idle() {
            let n = dma.desired_accesses().len();
            dma.commit(&vec![true; n], &mut tcdm, &mut ext);
        }
        let got: Vec<f32> = (0..4).map(|i| tcdm.read_f32(4 * i)).collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn queue_processes_in_order() {
        let mut dma = DmaEngine::new(1);
        let mut tcdm = Tcdm::default();
        let mut ext = ExtMemory::new();
        ext.write_f32(0, 1.0);
        ext.write_f32(4, 2.0);
        dma.push(DmaDescriptor::linear(0, 0x10, 4, DmaDirection::ExtToTcdm));
        dma.push(DmaDescriptor::linear(4, 0x20, 4, DmaDirection::ExtToTcdm));
        assert_eq!(dma.pending(), 2);
        dma.run_to_completion(&mut tcdm, &mut ext);
        assert_eq!(dma.completed(), 2);
        assert_eq!(tcdm.read_f32(0x10), 1.0);
        assert_eq!(tcdm.read_f32(0x20), 2.0);
    }

    #[test]
    fn burst_matches_per_cycle_protocol() {
        for wpc in [1u32, 2] {
            // Reference: the cycle-accurate desired/arbitrate/commit loop.
            let mut dma_ref = DmaEngine::new(wpc);
            let mut tcdm_ref = Tcdm::default();
            let mut ext_ref = ExtMemory::new();
            let mut ic_ref = Interconnect::new(32);
            // Burst path.
            let mut dma = DmaEngine::new(wpc);
            let mut tcdm = Tcdm::default();
            let mut ext = ExtMemory::new();
            let mut ic = Interconnect::new(32);
            let image: Vec<f32> = (0..64).map(|i| i as f32).collect();
            for e in [&mut ext_ref, &mut ext] {
                e.write_f32_slice(0, &image);
                e.reset_counters();
            }
            let descs = [
                DmaDescriptor {
                    ext_addr: 4,
                    tcdm_addr: 0x100,
                    row_bytes: 20,
                    rows: 3,
                    ext_stride: 28,
                    tcdm_stride: 20,
                    dir: DmaDirection::ExtToTcdm,
                },
                DmaDescriptor::linear(0x400, 0x100, 40, DmaDirection::TcdmToExt),
            ];
            for d in descs {
                dma_ref.push(d);
                dma.push(d);
            }
            let mut ref_cycles = 0u64;
            while !dma_ref.is_idle() {
                let addrs = dma_ref.desired_accesses();
                let reqs: Vec<crate::BankRequest> = addrs
                    .iter()
                    .map(|&addr| crate::BankRequest {
                        master: MasterId::Dma,
                        addr,
                    })
                    .collect();
                let grants = ic_ref.arbitrate(&reqs);
                dma_ref.commit(&grants, &mut tcdm_ref, &mut ext_ref);
                ref_cycles += 1;
            }
            let mut cycles = 0u64;
            while !dma.is_idle() {
                let c = dma.burst_sole(&mut tcdm, &mut ext, &mut ic, u64::MAX);
                assert!(c > 0, "burst must make progress");
                cycles += c;
            }
            assert_eq!(cycles, ref_cycles, "wpc {wpc}");
            assert_eq!(dma.bytes_moved(), dma_ref.bytes_moved());
            assert_eq!(dma.busy_cycles(), dma_ref.busy_cycles());
            assert_eq!(dma.completed(), dma_ref.completed());
            assert_eq!(ic.requests(), ic_ref.requests());
            assert_eq!(ic.grants(), ic_ref.grants());
            assert_eq!(ic.conflicts(), ic_ref.conflicts());
            assert_eq!(
                (tcdm.reads(), tcdm.writes()),
                (tcdm_ref.reads(), tcdm_ref.writes())
            );
            assert_eq!(ext.bytes_read(), ext_ref.bytes_read());
            assert_eq!(ext.bytes_written(), ext_ref.bytes_written());
            for a in (0..0x200u32).step_by(4) {
                assert_eq!(tcdm.peek_u32(a), tcdm_ref.peek_u32(a), "tcdm @{a:#x}");
            }
            assert_eq!(
                ext.read_f32_slice(0x400, 10),
                ext_ref.read_f32_slice(0x400, 10)
            );
        }
    }

    #[test]
    #[should_panic(expected = "word aligned")]
    fn unaligned_descriptor_rejected() {
        let mut dma = DmaEngine::new(1);
        dma.push(DmaDescriptor::linear(2, 0, 4, DmaDirection::ExtToTcdm));
    }

    /// A port whose shared budget binds hard: 8 GB/s LoB at 1.25 GHz
    /// is 1.6 words/cycle, split across `ports` streaming clusters.
    fn tight_port(ports: u32, index: u32, wpc: u32) -> HmcPort {
        let cfg = crate::hmc::HmcConfig::default().with_interconnect_bits(64);
        crate::hmc::HmcSubsystem::new(cfg, ports, 1.25e9, wpc).port(index)
    }

    #[test]
    fn throttled_burst_matches_clipped_per_cycle_protocol() {
        for wpc in [1u32, 2] {
            let port = tight_port(4, 1, wpc);
            assert!(port.throttles());
            // Reference: the cycle-accurate protocol with the desired
            // list truncated to the cycle's granted slot count.
            let mut dma_ref = DmaEngine::new(wpc);
            let mut tcdm_ref = Tcdm::default();
            let mut ext_ref = ExtMemory::new();
            let mut ic_ref = Interconnect::new(32);
            // Throttled burst path.
            let mut dma = DmaEngine::new(wpc);
            let mut tcdm = Tcdm::default();
            let mut ext = ExtMemory::new();
            let mut ic = Interconnect::new(32);
            let image: Vec<f32> = (0..64).map(|i| i as f32 - 17.0).collect();
            for e in [&mut ext_ref, &mut ext] {
                e.write_f32_slice(0, &image);
                e.reset_counters();
            }
            let descs = [
                DmaDescriptor {
                    ext_addr: 4,
                    tcdm_addr: 0x100,
                    row_bytes: 20,
                    rows: 3,
                    ext_stride: 28,
                    tcdm_stride: 20,
                    dir: DmaDirection::ExtToTcdm,
                },
                DmaDescriptor::linear(0x400, 0x100, 40, DmaDirection::TcdmToExt),
            ];
            for d in descs {
                dma_ref.push(d);
                dma.push(d);
            }
            let mut ref_cycles = 0u64;
            while !dma_ref.is_idle() {
                let allow = port.granted(ref_cycles).min(wpc) as usize;
                let mut addrs = dma_ref.desired_accesses();
                addrs.truncate(allow);
                let reqs: Vec<crate::BankRequest> = addrs
                    .iter()
                    .map(|&addr| crate::BankRequest {
                        master: MasterId::Dma,
                        addr,
                    })
                    .collect();
                let grants = ic_ref.arbitrate(&reqs);
                dma_ref.commit(&grants, &mut tcdm_ref, &mut ext_ref);
                ref_cycles += 1;
            }
            let mut cycles = 0u64;
            while !dma.is_idle() {
                // Small max_cycles chunks exercise resume-mid-starve.
                let b = dma.burst_sole_throttled(&mut tcdm, &mut ext, &mut ic, port, cycles, 7);
                assert!(b.cycles > 0, "burst must consume cycles");
                assert!(b.active_cycles <= b.cycles);
                cycles += b.cycles;
            }
            assert_eq!(cycles, ref_cycles, "wpc {wpc}");
            assert_eq!(dma.bytes_moved(), dma_ref.bytes_moved());
            assert_eq!(dma.busy_cycles(), dma_ref.busy_cycles());
            assert_eq!(dma.completed(), dma_ref.completed());
            assert_eq!(ic.requests(), ic_ref.requests());
            assert_eq!(ic.grants(), ic_ref.grants());
            assert_eq!(ic.conflicts(), ic_ref.conflicts());
            assert_eq!(ext.bytes_read(), ext_ref.bytes_read());
            assert_eq!(ext.bytes_written(), ext_ref.bytes_written());
            for a in (0..0x200u32).step_by(4) {
                assert_eq!(tcdm.peek_u32(a), tcdm_ref.peek_u32(a), "tcdm @{a:#x}");
            }
            assert_eq!(
                ext.read_f32_slice(0x400, 10),
                ext_ref.read_f32_slice(0x400, 10)
            );
        }
    }

    #[test]
    fn identical_streams_share_the_budget_fairly() {
        // 4 engines streaming identical descriptors against one tight
        // subsystem: each must finish in ~4x the uncontended time, and
        // within one rotation period of each other.
        let ports = 4u32;
        let words = 400u32;
        let cfg = crate::hmc::HmcConfig::default().with_interconnect_bits(64);
        let mut sub = crate::hmc::HmcSubsystem::new(cfg, ports, 1.25e9, 1);
        let share = sub.shared_words_per_cycle() / f64::from(ports);
        let expected = f64::from(words) / share;
        let mut finish = Vec::new();
        for i in 0..ports {
            let port = sub.port(i);
            let mut dma = DmaEngine::new(1);
            let mut tcdm = Tcdm::default();
            let mut ic = Interconnect::new(32);
            sub.mem(i).write_f32_slice(0, &vec![1.0; words as usize]);
            dma.push(DmaDescriptor::linear(
                0,
                0,
                4 * words,
                DmaDirection::ExtToTcdm,
            ));
            let mut cycles = 0u64;
            while !dma.is_idle() {
                cycles += dma
                    .burst_sole_throttled(&mut tcdm, sub.mem(i), &mut ic, port, cycles, u64::MAX)
                    .cycles;
            }
            assert_eq!(dma.bytes_moved(), u64::from(4 * words));
            finish.push(cycles);
        }
        let min = *finish.iter().min().unwrap();
        let max = *finish.iter().max().unwrap();
        assert!(
            u32::try_from(max - min).unwrap() <= ports,
            "fair share drifted: {finish:?}"
        );
        for (i, &c) in finish.iter().enumerate() {
            let ratio = c as f64 / expected;
            assert!(
                (0.99..=1.01).contains(&ratio),
                "port {i} finished in {c} cycles, expected ~{expected:.0}"
            );
        }
    }
}
