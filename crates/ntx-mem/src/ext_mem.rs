//! External memory behind the cluster's AXI port.
//!
//! In the paper this is the HMC memory space (DRAM vaults reached
//! through the LoB interconnect, Fig. 1); for kernels executed on a
//! stand-alone cluster it is simply "a DRAM attached to the AXI port"
//! (§III-B). The model provides byte-addressed storage with traffic
//! counters the energy model consumes; bandwidth enforcement happens in
//! the [`DmaEngine`](crate::DmaEngine), which is the only master that
//! touches it in steady state.
//!
//! The cube holds gigabytes, but a shard touches kilobytes of it at a
//! few scattered regions (the tiler's operands sit 16 MiB apart). So
//! the store is sparse: 64 KiB pages, allocated zero-filled on the
//! first write that touches them and found through a map keyed by page
//! number. Its host footprint is the number of pages written, never the
//! highest address. A page holds one full TCDM, so a tile moved in or
//! out spans at most two pages, and every bulk access resolves its page
//! once per page-contiguous run rather than once per word.

use std::collections::HashMap;
use std::fmt;

/// log2 of the page size.
const PAGE_BITS: u32 = 16;
/// Bytes per page: 64 KiB, the TCDM's capacity.
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Mask of the in-page offset bits of an address.
const OFFSET_MASK: u64 = PAGE_SIZE as u64 - 1;

type Page = Box<[u8; PAGE_SIZE]>;

/// Byte-addressed external memory with read/write traffic accounting.
///
/// The full 64-bit address space is readable and writable:
///
/// * a read of memory never written returns zeros and allocates
///   nothing;
/// * a write allocates only the 64 KiB pages it touches, so
///   [`ExtMemory::resident_bytes`] grows with the data written, not
///   with the addresses used;
/// * byte `i` of an access lands at `addr.wrapping_add(i)`, so an
///   access that runs past `u64::MAX` wraps to address 0 instead of
///   panicking;
/// * the traffic counters count every byte of every access, mapped or
///   not.
///
/// [`ExtMemory::new`] allocates nothing, so idle clusters cost only
/// the struct.
///
/// # Example
///
/// ```
/// use ntx_mem::ExtMemory;
///
/// let mut mem = ExtMemory::new();
/// mem.write_f32(0x1000, 2.5);
/// assert_eq!(mem.read_f32(0x1000), 2.5);
/// assert_eq!(mem.bytes_written(), 4);
/// // Far-apart data costs one page each, not the span between them.
/// mem.write_f32(1 << 40, 1.0);
/// assert_eq!(mem.resident_bytes(), 2 * 64 * 1024);
/// ```
#[derive(Clone, Default)]
pub struct ExtMemory {
    /// Page number → index into `pages`.
    index: HashMap<u64, usize>,
    /// The allocated pages, in allocation order.
    pages: Vec<Page>,
    /// Page number and `pages` index of the last page looked up, so a
    /// run of accesses to one page hashes once.
    last: Option<(u64, usize)>,
    bytes_read: u64,
    bytes_written: u64,
}

impl fmt::Debug for ExtMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExtMemory")
            .field("resident_pages", &self.pages.len())
            .field("bytes_read", &self.bytes_read)
            .field("bytes_written", &self.bytes_written)
            .finish()
    }
}

impl ExtMemory {
    /// Creates an empty external memory (no allocation).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The `pages` index of page `page`, or `None` if it was never
    /// written.
    fn slot(&mut self, page: u64) -> Option<usize> {
        match self.last {
            Some((p, slot)) if p == page => Some(slot),
            _ => {
                let slot = *self.index.get(&page)?;
                self.last = Some((page, slot));
                Some(slot)
            }
        }
    }

    /// The `pages` index of page `page`, allocating it zero-filled on
    /// first use.
    fn slot_or_alloc(&mut self, page: u64) -> usize {
        match self.last {
            Some((p, slot)) if p == page => slot,
            _ => {
                let pages = &mut self.pages;
                let slot = *self.index.entry(page).or_insert_with(|| {
                    let zeroed = vec![0u8; PAGE_SIZE].into_boxed_slice();
                    pages.push(zeroed.try_into().expect("page-sized buffer"));
                    pages.len() - 1
                });
                self.last = Some((page, slot));
                slot
            }
        }
    }

    /// The page holding `addr`, if it was ever written.
    fn page(&mut self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        let slot = self.slot(addr >> PAGE_BITS)?;
        Some(&self.pages[slot])
    }

    /// The page holding `addr`, allocated on first use.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let slot = self.slot_or_alloc(addr >> PAGE_BITS);
        &mut self.pages[slot]
    }

    /// Uncounted byte read, one page slice at a time.
    fn copy_out(&mut self, addr: u64, buf: &mut [u8]) {
        let mut a = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let off = (a & OFFSET_MASK) as usize;
            let (dst, tail) = rest.split_at_mut((PAGE_SIZE - off).min(rest.len()));
            match self.page(a) {
                Some(p) => dst.copy_from_slice(&p[off..off + dst.len()]),
                None => dst.fill(0),
            }
            a = a.wrapping_add(dst.len() as u64);
            rest = tail;
        }
    }

    /// Uncounted byte write, one page slice at a time.
    fn copy_in(&mut self, addr: u64, buf: &[u8]) {
        let mut a = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let off = (a & OFFSET_MASK) as usize;
            let (src, tail) = rest.split_at((PAGE_SIZE - off).min(rest.len()));
            self.page_mut(a)[off..off + src.len()].copy_from_slice(src);
            a = a.wrapping_add(src.len() as u64);
            rest = tail;
        }
    }

    /// Uncounted read of consecutive little-endian words, converted by
    /// `from_bits`: whole in-page runs are sliced straight out of their
    /// page, and only a word straddling a page edge goes bytewise.
    fn load<T: Copy>(&mut self, addr: u64, out: &mut [T], from_bits: impl Fn(u32) -> T) {
        let mut a = addr;
        let mut rest = out;
        while !rest.is_empty() {
            let off = (a & OFFSET_MASK) as usize;
            let n = ((PAGE_SIZE - off) / 4).min(rest.len());
            if n == 0 {
                let mut b = [0u8; 4];
                self.copy_out(a, &mut b);
                rest[0] = from_bits(u32::from_le_bytes(b));
                a = a.wrapping_add(4);
                rest = &mut rest[1..];
                continue;
            }
            let (dst, tail) = rest.split_at_mut(n);
            match self.page(a) {
                Some(p) => {
                    for (d, w) in dst.iter_mut().zip(p[off..off + 4 * n].chunks_exact(4)) {
                        *d = from_bits(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
                    }
                }
                None => dst.fill(from_bits(0)),
            }
            a = a.wrapping_add(4 * n as u64);
            rest = tail;
        }
    }

    /// Uncounted write of consecutive words as little-endian `to_bits`
    /// (see [`ExtMemory::load`]).
    fn store<T: Copy>(&mut self, addr: u64, values: &[T], to_bits: impl Fn(T) -> u32) {
        let mut a = addr;
        let mut rest = values;
        while !rest.is_empty() {
            let off = (a & OFFSET_MASK) as usize;
            let n = ((PAGE_SIZE - off) / 4).min(rest.len());
            if n == 0 {
                self.copy_in(a, &to_bits(rest[0]).to_le_bytes());
                a = a.wrapping_add(4);
                rest = &rest[1..];
                continue;
            }
            let (src, tail) = rest.split_at(n);
            let page = self.page_mut(a);
            for (w, &v) in page[off..off + 4 * n].chunks_exact_mut(4).zip(src) {
                w.copy_from_slice(&to_bits(v).to_le_bytes());
            }
            a = a.wrapping_add(4 * n as u64);
            rest = tail;
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        self.copy_out(addr, buf);
        self.bytes_read += buf.len() as u64;
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        self.copy_in(addr, buf);
        self.bytes_written += buf.len() as u64;
    }

    /// Reads a 32-bit word (little endian) — the DMA's per-beat path.
    pub fn read_u32(&mut self, addr: u64) -> u32 {
        self.bytes_read += 4;
        let off = (addr & OFFSET_MASK) as usize;
        if off > PAGE_SIZE - 4 {
            let mut b = [0u8; 4];
            self.copy_out(addr, &mut b);
            return u32::from_le_bytes(b);
        }
        self.page(addr).map_or(0, |p| {
            u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]])
        })
    }

    /// Writes a 32-bit word (little endian) — the DMA's per-beat path.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.bytes_written += 4;
        let off = (addr & OFFSET_MASK) as usize;
        if off > PAGE_SIZE - 4 {
            self.copy_in(addr, &value.to_le_bytes());
        } else {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        }
    }

    /// Reads an `f32`.
    pub fn read_f32(&mut self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32`.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Batched, counted read of `out.len()` consecutive words — the DMA
    /// burst path's row fetch; the traffic counter advances by the byte
    /// count, exactly as per-word reads would.
    pub fn read_words_into(&mut self, addr: u64, out: &mut [u32]) {
        self.load(addr, out, |w| w);
        self.bytes_read += 4 * out.len() as u64;
    }

    /// Batched, counted write of consecutive words (see
    /// [`ExtMemory::read_words_into`]).
    pub fn write_words_from(&mut self, addr: u64, values: &[u32]) {
        self.store(addr, values, |w| w);
        self.bytes_written += 4 * values.len() as u64;
    }

    /// Writes a whole `f32` slice starting at `addr` (counted).
    pub fn write_f32_slice(&mut self, addr: u64, values: &[f32]) {
        self.store(addr, values, f32::to_bits);
        self.bytes_written += 4 * values.len() as u64;
    }

    /// Reads `n` consecutive `f32` values starting at `addr` (counted).
    pub fn read_f32_slice(&mut self, addr: u64, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; n];
        self.read_f32_into(addr, &mut out);
        out
    }

    /// Reads consecutive `f32` values into a caller buffer (counted),
    /// avoiding the per-call `Vec` of [`ExtMemory::read_f32_slice`].
    pub fn read_f32_into(&mut self, addr: u64, out: &mut [f32]) {
        self.load(addr, out, f32::from_bits);
        self.bytes_read += 4 * out.len() as u64;
    }

    /// Host memory held by the store: allocated pages times the page
    /// size.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Total bytes read since the last counter reset (DRAM traffic).
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written since the last counter reset (DRAM traffic).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Resets the traffic counters.
    pub fn reset_counters(&mut self) {
        self.bytes_read = 0;
        self.bytes_written = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_words() {
        let mut m = ExtMemory::new();
        m.write_u32(0, 0x0102_0304);
        assert_eq!(m.read_u32(0), 0x0102_0304);
    }

    #[test]
    fn sparse_addresses_grow_on_demand() {
        let mut m = ExtMemory::new();
        m.write_f32(10_000_000, 1.0);
        assert_eq!(m.read_f32(10_000_000), 1.0);
        // Unwritten areas read as zero.
        assert_eq!(m.read_u32(5_000_000), 0);
        assert_eq!(m.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn traffic_counters() {
        let mut m = ExtMemory::new();
        m.write_bytes(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut buf = [0u8; 3];
        m.read_bytes(2, &mut buf);
        assert_eq!(buf, [3, 4, 5]);
        assert_eq!(m.bytes_written(), 8);
        assert_eq!(m.bytes_read(), 3);
        m.reset_counters();
        assert_eq!(m.bytes_written(), 0);
    }

    #[test]
    fn slice_helpers() {
        let mut m = ExtMemory::new();
        m.write_f32_slice(64, &[1.0, 2.0, 3.0]);
        assert_eq!(m.read_f32_slice(64, 3), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn unmapped_reads_are_zero_counted_and_allocate_nothing() {
        let mut m = ExtMemory::new();
        let mut bytes = [0xffu8; 5];
        m.read_bytes(1 << 33, &mut bytes);
        let mut words = [u32::MAX; 3];
        m.read_words_into(PAGE_SIZE as u64 - 4, &mut words);
        let mut floats = [1.0f32; 2];
        m.read_f32_into(u64::MAX - 3, &mut floats);
        assert_eq!(bytes, [0; 5]);
        assert_eq!(words, [0; 3]);
        assert_eq!(floats, [0.0; 2]);
        assert_eq!(m.read_u32(7), 0);
        assert_eq!(m.read_f32_slice(1 << 20, 4), vec![0.0; 4]);
        assert_eq!(m.bytes_read(), 5 + 12 + 8 + 4 + 16);
        assert_eq!(m.bytes_written(), 0);
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn runs_straddling_a_page_edge_round_trip() {
        let edge = 3 * PAGE_SIZE as u64;
        let mut m = ExtMemory::new();
        let bytes: Vec<u8> = (0..11).collect();
        m.write_bytes(edge - 5, &bytes);
        let mut back = [0u8; 11];
        m.read_bytes(edge - 5, &mut back);
        assert_eq!(back, bytes[..]);

        let words: Vec<u32> = (0..6).map(|i| 0x1111_1111 * i).collect();
        m.write_words_from(edge - 8, &words);
        let mut back = [0u32; 6];
        m.read_words_into(edge - 8, &mut back);
        assert_eq!(back, words[..]);

        let floats = [1.5f32, -2.0, 3.25, f32::MIN_POSITIVE, -0.0];
        m.write_f32_slice(edge - 12, &floats);
        assert_eq!(m.read_f32_slice(edge - 12, 5), floats);
        // Runs that start off the word grid straddle the edge mid-word.
        m.write_f32_slice(edge - 6, &floats);
        let mut back = [0f32; 5];
        m.read_f32_into(edge - 6, &mut back);
        assert_eq!(back, floats);
        m.write_words_from(edge - 2, &words);
        let mut back = [0u32; 6];
        m.read_words_into(edge - 2, &mut back);
        assert_eq!(back, words[..]);
        // Bytewise view agrees with the little-endian word view.
        assert_eq!(m.read_u32(edge - 2), words[0]);
        assert_eq!(m.resident_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn unaligned_word_across_a_page_edge() {
        let mut m = ExtMemory::new();
        for (i, addr) in [
            PAGE_SIZE as u64 - 3,
            PAGE_SIZE as u64 - 1,
            5 * PAGE_SIZE as u64 - 2,
        ]
        .into_iter()
        .enumerate()
        {
            let v = 0xdead_beef ^ i as u32;
            m.write_u32(addr, v);
            assert_eq!(m.read_u32(addr), v);
            assert_eq!(m.read_f32(addr).to_bits(), v);
            let mut b = [0u8; 4];
            m.read_bytes(addr, &mut b);
            assert_eq!(u32::from_le_bytes(b), v);
        }
        assert_eq!(m.bytes_written(), 12);
        assert_eq!(m.bytes_read(), 36);
        assert_eq!(m.resident_bytes(), 4 * PAGE_SIZE);
    }

    #[test]
    fn accesses_wrap_at_the_top_of_the_address_space() {
        let mut m = ExtMemory::new();
        m.write_words_from(u64::MAX - 3, &[0xaaaa_aaaa, 0xbbbb_bbbb]);
        assert_eq!(m.read_u32(u64::MAX - 3), 0xaaaa_aaaa);
        assert_eq!(m.read_u32(0), 0xbbbb_bbbb);
        m.write_u32(u64::MAX - 1, 0x0403_0201);
        let mut b = [0u8; 4];
        m.read_bytes(u64::MAX - 1, &mut b);
        assert_eq!(b, [1, 2, 3, 4]);
        assert_eq!(m.read_u32(0) & 0xffff, 0x0403);
        assert_eq!(m.resident_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn new_is_allocation_free() {
        let m = ExtMemory::new();
        assert_eq!(m.resident_bytes(), 0);
        assert_eq!(m.index.capacity(), 0);
        assert_eq!(m.pages.capacity(), 0);
    }
}
