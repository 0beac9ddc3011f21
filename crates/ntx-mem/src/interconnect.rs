//! The logarithmic interconnect between masters and TCDM banks.
//!
//! §II-A connects processors and co-processors to the banked TCDM
//! through a single-cycle logarithmic interconnect. When two masters
//! address the same bank in the same cycle only one is granted; the
//! other stalls and retries. §III-C: *"the practically achievable
//! compute performance is limited by the probability of a banking
//! conflict in the TCDM interconnect [...] measured to be around 13 %"*.
//!
//! [`Interconnect::arbitrate`] resolves one cycle of requests with
//! per-bank round-robin fairness and keeps the conflict statistics the
//! evaluation reports. It is the reference. The simulator's hot loop
//! arbitrates on per-bank master bitmasks instead:
//! [`Interconnect::request`] sets the master's bit in its bank's mask,
//! and [`Interconnect::resolve`] picks each bank's winner with one
//! `trailing_zeros` above the round-robin pointer. Both give the same
//! grants, statistics and pointers, cycle for cycle.

/// Identity of a master port on the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MasterId {
    /// The RISC-V core's load/store unit.
    Core,
    /// The cluster DMA engine.
    Dma,
    /// NTX co-processor `n` (0-based).
    Ntx(usize),
}

impl MasterId {
    /// Dense index used for round-robin bookkeeping.
    #[must_use]
    #[inline]
    fn dense(self) -> usize {
        match self {
            MasterId::Core => 0,
            MasterId::Dma => 1,
            MasterId::Ntx(n) => 2 + n,
        }
    }
}

/// One bank access request for the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankRequest {
    /// Requesting master.
    pub master: MasterId,
    /// Byte address of the access (the arbiter only looks at the bank).
    pub addr: u32,
}

/// Round-robin bank arbiter with conflict statistics.
///
/// # Example
///
/// ```
/// use ntx_mem::{BankRequest, Interconnect, MasterId};
///
/// let mut ic = Interconnect::new(32);
/// // Two masters hitting bank 0 in the same cycle: one wins.
/// let grants = ic.arbitrate(&[
///     BankRequest { master: MasterId::Ntx(0), addr: 0x00 },
///     BankRequest { master: MasterId::Ntx(1), addr: 0x80 }, // bank 0 too
/// ]);
/// assert_eq!(grants.iter().filter(|&&g| g).count(), 1);
/// assert_eq!(ic.conflicts(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Interconnect {
    banks: u32,
    /// `banks - 1` when the bank count is a power of two, letting the
    /// hot-loop bank decode be a shift-and-mask instead of a division;
    /// 0 otherwise.
    bank_mask: u32,
    /// Per-bank round-robin pointer over dense master indices.
    rr: Vec<usize>,
    requests: u64,
    grants: u64,
    conflicts: u64,
    /// Per-bank bitmask of the dense master indices requesting the bank
    /// in the cycle being arbitrated (mask arbiter, up to 64 banks).
    masks: Vec<u64>,
    /// Bitset of the banks with a non-empty mask.
    occupied: u64,
}

impl Interconnect {
    /// Creates an arbiter for `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    #[must_use]
    pub fn new(banks: u32) -> Self {
        assert!(banks > 0, "interconnect needs at least one bank");
        Self {
            banks,
            bank_mask: if banks.is_power_of_two() {
                banks - 1
            } else {
                0
            },
            rr: vec![0; banks as usize],
            requests: 0,
            grants: 0,
            conflicts: 0,
            masks: vec![0; banks.min(64) as usize],
            occupied: 0,
        }
    }

    #[inline]
    fn bank_of(&self, addr: u32) -> usize {
        if self.bank_mask != 0 {
            ((addr >> 2) & self.bank_mask) as usize
        } else {
            ((addr / 4) % self.banks) as usize
        }
    }

    /// Round-robin distance of dense index `d` after pointer `ptr`.
    fn rr_key(d: usize, ptr: usize) -> usize {
        if d > ptr {
            d - ptr
        } else {
            d + 1024 - ptr
        }
    }

    /// Resolves one cycle of bank requests. Returns a grant flag per
    /// request (same order). Each bank grants exactly one request; among
    /// contenders the one whose dense master index follows the bank's
    /// round-robin pointer wins, and the pointer moves past the winner.
    ///
    /// This is the *reference* arbiter: it allocates its bucket lists
    /// per call and defines the semantics the allocation-free fast-path
    /// variants (the mask arbiter of [`Interconnect::request`] and
    /// [`Interconnect::resolve`], [`Interconnect::arbitrate_sole`],
    /// [`Interconnect::grant_stream`]) must reproduce bit-exactly
    /// (grants, statistics and round-robin state alike; see the
    /// equivalence tests).
    pub fn arbitrate(&mut self, requests: &[BankRequest]) -> Vec<bool> {
        let mut granted = vec![false; requests.len()];
        // Group request indices by bank. Banks are few; a simple bucket
        // walk keeps this allocation-light relative to the sim loop.
        let mut by_bank: Vec<Vec<usize>> = vec![Vec::new(); self.banks as usize];
        for (i, req) in requests.iter().enumerate() {
            let bank = ((req.addr / 4) % self.banks) as usize;
            by_bank[bank].push(i);
        }
        for (bank, contenders) in by_bank.iter().enumerate() {
            if contenders.is_empty() {
                continue;
            }
            self.requests += contenders.len() as u64;
            // Pick the contender whose dense index follows the pointer
            // most closely (strictly after it, wrapping around).
            let ptr = self.rr[bank];
            let winner = *contenders
                .iter()
                .min_by_key(|&&i| Self::rr_key(requests[i].master.dense(), ptr))
                .expect("non-empty contenders");
            granted[winner] = true;
            self.grants += 1;
            self.conflicts += contenders.len() as u64 - 1;
            self.rr[bank] = requests[winner].master.dense();
        }
        granted
    }

    /// Registers one request of `master` with the mask arbiter (up to
    /// 64 banks and 64 masters): the master's bit joins its bank's
    /// mask. Returns `false` when the master already requested the bank
    /// this cycle: a master's later same-bank request is always denied,
    /// as under [`Interconnect::arbitrate`].
    #[inline]
    pub fn request(&mut self, master: MasterId, addr: u32) -> bool {
        let bank = self.bank_of(addr);
        debug_assert!(bank < 64 && master.dense() < 64, "mask arbiter holds 64");
        let bit = 1u64 << master.dense();
        let mask = self.masks[bank];
        self.masks[bank] = mask | bit;
        self.occupied |= 1 << bank;
        mask & bit == 0
    }

    /// Resolves the cycle's `requests` registered requests. Each
    /// requested bank grants the master whose dense index follows the
    /// bank's round-robin pointer most closely: the lowest index in the
    /// bank's master bitmask above the pointer, else the lowest overall
    /// — one `trailing_zeros`. The pointer moves to the winner and the
    /// statistics advance exactly as [`Interconnect::arbitrate`] would;
    /// the masks are empty again for the next cycle. Returns `true`
    /// when some request was denied. Query the outcome with
    /// [`Interconnect::won`].
    #[inline]
    pub fn resolve(&mut self, requests: u64) -> bool {
        let mut bits = std::mem::take(&mut self.occupied);
        let granted = u64::from(bits.count_ones());
        while bits != 0 {
            let bank = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let mask = std::mem::take(&mut self.masks[bank]);
            let above = mask & ((u64::MAX << self.rr[bank]) << 1);
            self.rr[bank] = if above != 0 {
                above.trailing_zeros()
            } else {
                mask.trailing_zeros()
            } as usize;
        }
        self.requests += requests;
        self.grants += granted;
        self.conflicts += requests - granted;
        requests != granted
    }

    /// True when `master` won the bank of `addr` in the cycle just
    /// resolved — meaningful only for banks requested in that cycle. A
    /// request [`Interconnect::request`] refused as a repeat is denied
    /// even though its master holds the bank.
    #[inline]
    #[must_use]
    pub fn won(&self, master: MasterId, addr: u32) -> bool {
        self.rr[self.bank_of(addr)] == master.dense()
    }

    /// Arbitrates one cycle in which `master` is the only requester,
    /// writing grants for `addrs` into `granted` (same length). With a
    /// single master the outcome is deterministic: the first request per
    /// bank wins, later same-bank requests are denied. Counters and
    /// round-robin state advance exactly as under
    /// [`Interconnect::arbitrate`].
    ///
    /// # Panics
    ///
    /// Panics if `granted` is shorter than `addrs`.
    #[inline]
    pub fn arbitrate_sole(&mut self, master: MasterId, addrs: &[u32], granted: &mut [bool]) {
        let dense = master.dense();
        self.requests += addrs.len() as u64;
        let mut denied = 0u64;
        for (i, &addr) in addrs.iter().enumerate() {
            let bank = self.bank_of(addr);
            let dup = addrs[..i].iter().any(|&a| self.bank_of(a) == bank);
            if dup {
                granted[i] = false;
                denied += 1;
            } else {
                granted[i] = true;
                self.grants += 1;
                self.rr[bank] = dense;
            }
        }
        self.conflicts += denied;
    }

    /// Accounts `n` single-request cycles of a strided access stream of
    /// `master` (one access per cycle at `base + t*stride_bytes`), all
    /// granted — the burst fast path's bulk update. Equivalent to `n`
    /// calls to [`Interconnect::arbitrate`] with one uncontended request
    /// each: `requests`/`grants` advance by `n` and every touched bank's
    /// round-robin pointer ends on `master`.
    pub fn grant_stream(&mut self, master: MasterId, base: u32, stride_bytes: i32, n: u32) {
        if n == 0 {
            return;
        }
        self.requests += u64::from(n);
        self.grants += u64::from(n);
        let dense = master.dense();
        // The stream's bank orbit repeats after at most `banks` steps.
        let steps = n.min(self.banks);
        let mut addr = base;
        for _ in 0..steps {
            let bank = self.bank_of(addr);
            self.rr[bank] = dense;
            addr = addr.wrapping_add(stride_bytes as u32);
        }
    }

    /// Total requests observed.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total grants issued.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total conflicts (requests denied because another master held the
    /// bank that cycle).
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Fraction of requests that were denied — the §III-C banking-
    /// conflict probability (≈0.13 on the paper's 3×3 convolution).
    #[must_use]
    pub fn conflict_probability(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.requests as f64
        }
    }

    /// Resets the statistics counters.
    pub fn reset_counters(&mut self) {
        self.requests = 0;
        self.grants = 0;
        self.conflicts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(master: MasterId, addr: u32) -> BankRequest {
        BankRequest { master, addr }
    }

    #[test]
    fn disjoint_banks_all_granted() {
        let mut ic = Interconnect::new(32);
        let grants = ic.arbitrate(&[
            req(MasterId::Ntx(0), 0x00),
            req(MasterId::Ntx(1), 0x04),
            req(MasterId::Dma, 0x08),
        ]);
        assert_eq!(grants, vec![true, true, true]);
        assert_eq!(ic.conflicts(), 0);
        assert_eq!(ic.conflict_probability(), 0.0);
    }

    #[test]
    fn same_bank_conflicts() {
        let mut ic = Interconnect::new(32);
        let grants = ic.arbitrate(&[
            req(MasterId::Ntx(0), 0x00),
            req(MasterId::Ntx(1), 0x80),
            req(MasterId::Ntx(2), 0x100),
        ]);
        assert_eq!(grants.iter().filter(|&&g| g).count(), 1);
        assert_eq!(ic.conflicts(), 2);
    }

    #[test]
    fn round_robin_rotates_winners() {
        let mut ic = Interconnect::new(32);
        let reqs = [req(MasterId::Ntx(0), 0x00), req(MasterId::Ntx(1), 0x80)];
        let g1 = ic.arbitrate(&reqs);
        let g2 = ic.arbitrate(&reqs);
        // The two cycles must grant different masters.
        assert_ne!(g1, g2);
        let g3 = ic.arbitrate(&reqs);
        assert_eq!(g1, g3);
    }

    #[test]
    fn no_starvation_under_sustained_contention() {
        let mut ic = Interconnect::new(32);
        let reqs: Vec<BankRequest> = (0..8).map(|n| req(MasterId::Ntx(n), 0x00)).collect();
        let mut wins = [0u32; 8];
        for _ in 0..80 {
            let grants = ic.arbitrate(&reqs);
            for (n, &g) in grants.iter().enumerate() {
                if g {
                    wins[n] += 1;
                }
            }
        }
        for (n, &w) in wins.iter().enumerate() {
            assert_eq!(w, 10, "master {n} should win exactly 1/8 of cycles");
        }
    }

    #[test]
    fn statistics_accumulate() {
        let mut ic = Interconnect::new(4);
        ic.arbitrate(&[req(MasterId::Core, 0), req(MasterId::Dma, 0)]);
        assert_eq!(ic.requests(), 2);
        assert_eq!(ic.grants(), 1);
        assert_eq!(ic.conflict_probability(), 0.5);
        ic.reset_counters();
        assert_eq!(ic.requests(), 0);
    }

    #[test]
    fn empty_cycle_is_free() {
        let mut ic = Interconnect::new(8);
        let grants = ic.arbitrate(&[]);
        assert!(grants.is_empty());
        assert_eq!(ic.requests(), 0);
        assert!(!ic.resolve(0));
        assert_eq!((ic.requests(), ic.grants()), (0, 0));
    }

    fn assert_same_state(a: &Interconnect, b: &Interconnect) {
        assert_eq!(a.requests(), b.requests());
        assert_eq!(a.grants(), b.grants());
        assert_eq!(a.conflicts(), b.conflicts());
        assert_eq!(a.rr, b.rr);
    }

    /// Runs one cycle through the mask arbiter, returning the grant
    /// flag of each request in order.
    fn mask_arbitrate(ic: &mut Interconnect, reqs: &[BankRequest]) -> Vec<bool> {
        let first: Vec<bool> = reqs.iter().map(|r| ic.request(r.master, r.addr)).collect();
        let denied = ic.resolve(reqs.len() as u64);
        let grants: Vec<bool> = reqs
            .iter()
            .zip(first)
            .map(|(r, f)| f && ic.won(r.master, r.addr))
            .collect();
        assert_eq!(denied, grants.iter().any(|&g| !g));
        grants
    }

    #[test]
    fn mask_arbiter_matches_reference_every_cycle() {
        // Every dense index (core, DMA, 62 engines) contends over few
        // banks, and masters repeat a bank within one cycle; grants,
        // statistics and round-robin state must match the reference
        // after every cycle, on power-of-two and odd bank counts up to
        // the 64 a bank set holds.
        let masters: Vec<MasterId> = [MasterId::Core, MasterId::Dma]
            .into_iter()
            .chain((0..62).map(MasterId::Ntx))
            .collect();
        for banks in [4u32, 32, 5, 64] {
            let mut reference = Interconnect::new(banks);
            let mut fast = Interconnect::new(banks);
            let mut s = 0x9e37_79b9_u32;
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                s
            };
            for cycle in 0..400 {
                let mut reqs = Vec::new();
                for &m in &masters {
                    // 0-3 requests each; the second often repeats the
                    // first's bank.
                    let n = next() % 4;
                    let base = 4 * (next() % (2 * banks));
                    for k in 0..n {
                        let addr = if k == 1 && next() % 2 == 0 {
                            base + 4 * banks
                        } else {
                            4 * (next() % (3 * banks))
                        };
                        reqs.push(req(m, addr));
                    }
                }
                let expect = reference.arbitrate(&reqs);
                assert_eq!(
                    mask_arbitrate(&mut fast, &reqs),
                    expect,
                    "{banks} banks, cycle {cycle}"
                );
                assert_same_state(&reference, &fast);
            }
            assert!(fast.conflicts() > 0 && fast.grants() > 0);
        }
        // One master hitting one bank twice: the first request wins.
        let mut ic = Interconnect::new(32);
        let reqs = [req(MasterId::Ntx(3), 0x80), req(MasterId::Ntx(3), 0x00)];
        assert_eq!(mask_arbitrate(&mut ic, &reqs), vec![true, false]);
        assert_eq!((ic.requests(), ic.grants(), ic.conflicts()), (2, 1, 1));
    }

    #[test]
    fn arbitrate_sole_matches_reference() {
        let mut reference = Interconnect::new(32);
        let mut fast = Interconnect::new(32);
        // x and y hit the same bank; store hits another: the first
        // same-bank request wins, the duplicate is denied.
        let addrs = [0x00u32, 0x80, 0x04, 0x84];
        let reqs: Vec<BankRequest> = addrs.iter().map(|&a| req(MasterId::Ntx(3), a)).collect();
        let expect = reference.arbitrate(&reqs);
        let mut granted = [false; 4];
        fast.arbitrate_sole(MasterId::Ntx(3), &addrs, &mut granted);
        assert_eq!(granted.to_vec(), expect);
        assert_same_state(&reference, &fast);
    }

    #[test]
    fn grant_stream_matches_cycle_by_cycle_grants() {
        let mut reference = Interconnect::new(32);
        let mut fast = Interconnect::new(32);
        let (base, stride, n) = (0x40u32, 12i32, 100u32);
        let mut addr = base;
        for _ in 0..n {
            let g = reference.arbitrate(&[req(MasterId::Ntx(5), addr)]);
            assert_eq!(g, vec![true]);
            addr = addr.wrapping_add(stride as u32);
        }
        fast.grant_stream(MasterId::Ntx(5), base, stride, n);
        assert_same_state(&reference, &fast);
        // Short streams touch fewer banks than the orbit period.
        let mut reference = Interconnect::new(32);
        let mut fast = Interconnect::new(32);
        reference.arbitrate(&[req(MasterId::Dma, 8)]);
        fast.grant_stream(MasterId::Dma, 8, -4, 1);
        assert_same_state(&reference, &fast);
    }
}
