//! The tightly-coupled data memory (TCDM).
//!
//! §II-A: *"Both operate on shared 64 kB TCDM. [...] The memory is
//! divided into 32 banks that are connected to the processors via an
//! interconnect offering single-cycle access latency."*
//!
//! Storage is word-interleaved: consecutive 32-bit words map to
//! consecutive banks, which is what spreads the streaming accesses of
//! the NTX AGUs across the banks.

/// Geometry of the TCDM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcdmConfig {
    /// Total capacity in bytes (paper: 64 kB; [12] used 128 kB).
    pub bytes: u32,
    /// Number of banks (paper: 32).
    pub banks: u32,
}

impl Default for TcdmConfig {
    fn default() -> Self {
        Self {
            bytes: 64 * 1024,
            banks: 32,
        }
    }
}

impl TcdmConfig {
    /// Bank index serving the word at byte address `addr`.
    #[must_use]
    pub fn bank_of(&self, addr: u32) -> u32 {
        (addr / 4) % self.banks
    }
}

/// The TCDM storage array with access counters.
///
/// Addresses wrap at the memory size, matching the address decoder of
/// the cluster (the upper bits select the TCDM region; the lower bits
/// index into it).
///
/// # Example
///
/// ```
/// use ntx_mem::Tcdm;
///
/// let mut tcdm = Tcdm::default();
/// tcdm.write_f32(0x40, 3.25);
/// assert_eq!(tcdm.read_f32(0x40), 3.25);
/// assert_eq!(tcdm.config().bank_of(0x40), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Tcdm {
    config: TcdmConfig,
    data: Vec<u8>,
    /// `bytes - 1` when the capacity is a power of two (the common
    /// geometries), letting the hot-loop address wrap be a mask instead
    /// of a division; 0 otherwise.
    wrap_mask: u32,
    reads: u64,
    writes: u64,
}

impl Default for Tcdm {
    fn default() -> Self {
        Self::new(TcdmConfig::default())
    }
}

impl Tcdm {
    /// Allocates a zero-initialised TCDM.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero, not a multiple of `4 * banks`, or
    /// if `banks` is zero.
    #[must_use]
    pub fn new(config: TcdmConfig) -> Self {
        assert!(config.banks > 0, "TCDM needs at least one bank");
        assert!(
            config.bytes > 0 && config.bytes.is_multiple_of(4 * config.banks),
            "TCDM size must be a positive multiple of 4*banks"
        );
        Self {
            config,
            data: vec![0; config.bytes as usize],
            wrap_mask: if config.bytes.is_power_of_two() {
                config.bytes - 1
            } else {
                0
            },
            reads: 0,
            writes: 0,
        }
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> TcdmConfig {
        self.config
    }

    #[inline]
    fn wrap(&self, addr: u32) -> u32 {
        if self.wrap_mask != 0 {
            addr & self.wrap_mask
        } else {
            addr % self.config.bytes
        }
    }

    #[inline]
    fn index(&self, addr: u32) -> usize {
        self.wrap(addr) as usize
    }

    /// Reads the 32-bit word at `addr` (little endian, counter-visible).
    #[inline]
    pub fn read_u32(&mut self, addr: u32) -> u32 {
        self.reads += 1;
        self.peek_u32(addr)
    }

    /// Writes the 32-bit word at `addr`.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.writes += 1;
        let i = self.index(addr & !3);
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads an `f32` at `addr`.
    #[inline]
    pub fn read_f32(&mut self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` at `addr`.
    #[inline]
    pub fn write_f32(&mut self, addr: u32, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Reads a byte (used by the RISC-V core's `lb`/`lbu`).
    pub fn read_u8(&mut self, addr: u32) -> u8 {
        self.reads += 1;
        self.data[self.index(addr)]
    }

    /// Writes a byte (used by the RISC-V core's `sb`).
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.writes += 1;
        let i = self.index(addr);
        self.data[i] = value;
    }

    /// Copies `out.len()` consecutive values starting at `addr` out of
    /// the memory, wrapping at capacity — the shared body of every
    /// batched read accessor (`dec` decodes one little-endian word).
    fn copy_out<T>(&self, addr: u32, out: &mut [T], dec: impl Fn([u8; 4]) -> T) {
        let bytes = self.config.bytes;
        let mut a = self.wrap(addr & !3);
        let mut i = 0;
        while i < out.len() {
            let run = (((bytes - a) / 4) as usize).min(out.len() - i);
            let src = &self.data[a as usize..a as usize + 4 * run];
            for (o, w) in out[i..i + run].iter_mut().zip(src.chunks_exact(4)) {
                *o = dec([w[0], w[1], w[2], w[3]]);
            }
            i += run;
            a = 0;
        }
    }

    /// Copies `values` as consecutive words starting at `addr` into the
    /// memory, wrapping at capacity (`enc` encodes one value).
    fn copy_in<T: Copy>(&mut self, addr: u32, values: &[T], enc: impl Fn(T) -> [u8; 4]) {
        let bytes = self.config.bytes;
        let mut a = self.wrap(addr & !3);
        let mut i = 0;
        while i < values.len() {
            let run = (((bytes - a) / 4) as usize).min(values.len() - i);
            let dst = &mut self.data[a as usize..a as usize + 4 * run];
            for (w, &v) in dst.chunks_exact_mut(4).zip(&values[i..i + run]) {
                w.copy_from_slice(&enc(v));
            }
            i += run;
            a = 0;
        }
    }

    /// Batched, counted read of `out.len()` consecutive words — one
    /// slice copy instead of per-word [`Tcdm::read_u32`] calls; the
    /// access counters advance by the word count, exactly as the
    /// per-word path would.
    pub fn read_words_into(&mut self, addr: u32, out: &mut [u32]) {
        self.reads += out.len() as u64;
        self.copy_out(addr, out, u32::from_le_bytes);
    }

    /// Batched, counted write of consecutive words (see
    /// [`Tcdm::read_words_into`]).
    pub fn write_words_from(&mut self, addr: u32, values: &[u32]) {
        self.writes += values.len() as u64;
        self.copy_in(addr, values, u32::to_le_bytes);
    }

    /// Batched, counted read of consecutive `f32` values — the burst
    /// fast path's operand fetch.
    pub fn read_f32_into(&mut self, addr: u32, out: &mut [f32]) {
        self.reads += out.len() as u64;
        self.copy_out(addr, out, f32::from_le_bytes);
    }

    /// Non-counting batched read of consecutive `f32` values (host/test
    /// access, like [`Tcdm::peek_u32`]).
    pub fn peek_f32_into(&self, addr: u32, out: &mut [f32]) {
        self.copy_out(addr, out, f32::from_le_bytes);
    }

    /// Non-counting batched write of consecutive `f32` values (host/test
    /// preloading, like [`Tcdm::poke_u32`]).
    pub fn poke_f32_from(&mut self, addr: u32, values: &[f32]) {
        self.copy_in(addr, values, f32::to_le_bytes);
    }

    /// Non-counting debug read of a word (test harnesses, tracing).
    #[must_use]
    #[inline]
    pub fn peek_u32(&self, addr: u32) -> u32 {
        let i = self.index(addr & !3);
        let mut word = [0; 4];
        word.copy_from_slice(&self.data[i..i + 4]);
        u32::from_le_bytes(word)
    }

    /// Non-counting debug write of a word (test-bench preloading).
    pub fn poke_u32(&mut self, addr: u32, value: u32) {
        let i = self.index(addr & !3);
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Number of counted read accesses (energy model input).
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of counted write accesses (energy model input).
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Resets the access counters (e.g. between benchmark phases).
    pub fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_paper() {
        let t = Tcdm::default();
        assert_eq!(t.config().bytes, 65_536);
        assert_eq!(t.config().banks, 32);
    }

    #[test]
    fn word_interleaving() {
        let c = TcdmConfig::default();
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(4), 1);
        assert_eq!(c.bank_of(4 * 31), 31);
        assert_eq!(c.bank_of(4 * 32), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut t = Tcdm::default();
        t.write_u32(0x123 & !3, 0xdead_beef);
        assert_eq!(t.read_u32(0x120), 0xdead_beef);
        t.write_f32(0x200, -1.5);
        assert_eq!(t.read_f32(0x200), -1.5);
    }

    #[test]
    fn byte_access() {
        let mut t = Tcdm::default();
        t.write_u32(0x10, 0x0403_0201);
        assert_eq!(t.read_u8(0x10), 0x01);
        assert_eq!(t.read_u8(0x13), 0x04);
        t.write_u8(0x11, 0xff);
        assert_eq!(t.read_u32(0x10), 0x0403_ff01);
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let mut t = Tcdm::default();
        t.write_u32(0, 7);
        assert_eq!(t.read_u32(65_536), 7);
    }

    #[test]
    fn counters_track_accesses() {
        let mut t = Tcdm::default();
        t.write_u32(0, 1);
        let _ = t.read_u32(0);
        let _ = t.read_u32(4);
        assert_eq!(t.reads(), 2);
        assert_eq!(t.writes(), 1);
        let _ = t.peek_u32(0);
        t.poke_u32(0, 2);
        assert_eq!(t.reads(), 2);
        assert_eq!(t.writes(), 1);
        t.reset_counters();
        assert_eq!(t.reads(), 0);
    }

    #[test]
    fn batched_accessors_match_per_word_path() {
        let mut t = Tcdm::default();
        let values: Vec<f32> = (0..100).map(|i| i as f32 * 0.5 - 10.0).collect();
        // Counted batch write == per-word writes, including wrap-around.
        let base = 65_536 - 40; // wraps after 10 words
        t.write_words_from(
            base,
            &values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(t.writes(), 100);
        let mut out = vec![0f32; 100];
        t.read_f32_into(base, &mut out);
        assert_eq!(out, values);
        assert_eq!(t.reads(), 100);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(t.peek_u32(base.wrapping_add(4 * i as u32)), v.to_bits());
        }
        let mut words = vec![0u32; 100];
        t.read_words_into(base, &mut words);
        assert_eq!(words[3], values[3].to_bits());
        // Non-counting peek/poke round-trip.
        let before = (t.reads(), t.writes());
        t.poke_f32_from(0x100, &values[..8]);
        let mut peeked = [0f32; 8];
        t.peek_f32_into(0x100, &mut peeked);
        assert_eq!(&peeked, &values[..8]);
        assert_eq!((t.reads(), t.writes()), before);
    }

    #[test]
    #[should_panic(expected = "multiple of 4*banks")]
    fn bad_geometry_rejected() {
        let _ = Tcdm::new(TcdmConfig {
            bytes: 100,
            banks: 32,
        });
    }
}
