//! Property-based tests of the cluster simulator.
//!
//! Oracle: a plain-Rust interpretation of the offloaded command — the
//! loop nest walked in software over a shadow copy of the TCDM. The
//! simulator must produce bit-identical memory contents regardless of
//! arbitration, stalls and scheduling.

use ntx_fpu::WideAccumulator;
use ntx_isa::{
    AccuInit, AguConfig, Command, LoopCounters, LoopNest, NtxConfig, OperandSelect, SPILL_BYTES,
};
use ntx_mem::{DmaDescriptor, DmaDirection, HmcConfig, HmcSubsystem};
use ntx_sim::{Cluster, ClusterConfig};
use proptest::prelude::*;

/// A software golden model of one NTX command over a word-addressed
/// memory image.
fn golden_execute(cfg: &NtxConfig, mem: &mut Vec<f32>) {
    let rd = |mem: &Vec<f32>, addr: u32| mem[(addr / 4) as usize % mem.len()];
    let mut counters = LoopCounters::new(cfg.loops);
    let mut agus = [
        ntx_isa::Agu::new(cfg.agus[0]),
        ntx_isa::Agu::new(cfg.agus[1]),
        ntx_isa::Agu::new(cfg.agus[2]),
    ];
    let mut acc = WideAccumulator::new();
    loop {
        if cfg.command.is_reduction() && counters.at_init() {
            acc.clear();
            if cfg.accu_init == AccuInit::Memory {
                acc.add_value(rd(mem, agus[2].address()));
            }
        }
        let reads = cfg.command.reads_per_element();
        let x = if reads >= 1 {
            rd(mem, agus[0].address())
        } else {
            0.0
        };
        let y = if reads >= 2 {
            rd(mem, agus[1].address())
        } else {
            cfg.register
        };
        let out = match cfg.command {
            Command::Mac { .. } => {
                acc.add_product(x, y);
                None
            }
            Command::Add { .. } => Some(x + y),
            Command::Mul { .. } => Some(x * y),
            Command::Relu => Some(if x > 0.0 { x } else { 0.0 }),
            Command::Copy => Some(x),
            Command::Set => Some(cfg.register),
            _ => None,
        };
        if counters.at_store() {
            let addr = (agus[2].address() / 4) as usize % mem.len();
            match cfg.command {
                Command::Mac { .. } => mem[addr] = acc.round(),
                _ => mem[addr] = out.unwrap_or(0.0),
            }
        }
        match counters.advance() {
            Some(level) => {
                for a in &mut agus {
                    a.advance(level);
                }
            }
            None => break,
        }
    }
}

/// Commands covered by the golden model above.
fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Mac {
            operand: OperandSelect::Memory
        }),
        Just(Command::Mac {
            operand: OperandSelect::Register
        }),
        Just(Command::Add {
            operand: OperandSelect::Memory
        }),
        Just(Command::Mul {
            operand: OperandSelect::Register
        }),
        Just(Command::Relu),
        Just(Command::Copy),
        Just(Command::Set),
    ]
}

/// Small loop nests with levels consistent with the command class.
fn arb_case() -> impl Strategy<Value = (Command, LoopNest, [AguConfig; 3], f32, bool)> {
    (
        arb_command(),
        prop::collection::vec(1u32..5, 1..=3),
        1usize..=2,
        prop::array::uniform3((0u32..64, prop::array::uniform5(-8i32..8))),
        -4i32..4,
        any::<bool>(),
    )
        .prop_map(|(cmd, counts, store, agu_raw, reg, mem_init)| {
            let depth = counts.len();
            let store_level = if cmd.is_reduction() {
                store.min(depth)
            } else {
                0
            };
            let nest = LoopNest::nested(&counts).with_levels(store.min(depth), store_level);
            let agus =
                agu_raw.map(|(base, strides)| AguConfig::new(base * 4, strides.map(|s| s * 4)));
            (cmd, nest, agus, reg as f32 * 0.5, mem_init)
        })
}

/// Builds the config of an [`arb_case`].
fn case_config(
    (cmd, nest, agus, reg, mem_init): &(Command, LoopNest, [AguConfig; 3], f32, bool),
) -> NtxConfig {
    let mut builder = NtxConfig::builder();
    builder.command(*cmd).loops(*nest).register(*reg).accu_init(
        if *mem_init && cmd.is_reduction() {
            AccuInit::Memory
        } else {
            AccuInit::Zero
        },
    );
    for (i, a) in agus.iter().enumerate() {
        builder.agu(i, *a);
    }
    builder.build().expect("valid by construction")
}

/// Commands for the fast-path differential: the random nests of
/// [`arb_case`], split-K passes that restore and spill the wide
/// accumulator through AGU 2, and AXPY-shaped memory-init reductions
/// whose init read and store hit the same AGU 2 address in one
/// iteration. Bases are random, so engines overlap and race.
fn arb_config() -> impl Strategy<Value = NtxConfig> {
    prop_oneof![
        arb_case().prop_map(|c| case_config(&c)),
        (
            1u32..6,
            1u32..4,
            0u32..2048,
            0u32..2048,
            0u32..2048,
            any::<bool>()
        )
            .prop_map(|(k, n, x, y, z, restore)| {
                NtxConfig::builder()
                    .command(Command::Mac {
                        operand: OperandSelect::Memory,
                    })
                    .loops(LoopNest::nested(&[k, n]).with_levels(1, 1))
                    .agu(0, AguConfig::stream(4 * x, 4))
                    .agu(1, AguConfig::new(4 * y, [4, 4, 0, 0, 0]))
                    .agu(2, AguConfig::new(4 * z, [0, SPILL_BYTES as i32, 0, 0, 0]))
                    .accu_init(if restore {
                        AccuInit::Wide
                    } else {
                        AccuInit::Zero
                    })
                    .wide_store(true)
                    .build()
                    .expect("valid split-K pass")
            }),
        (1u32..12, 0u32..4096, 0u32..4096, -4i32..4).prop_map(|(n, x, y, a)| {
            NtxConfig::builder()
                .command(Command::Mac {
                    operand: OperandSelect::Register,
                })
                .register(a as f32 * 0.5)
                .loops(LoopNest::nested(&[1, n]).with_levels(1, 1))
                .agu(0, AguConfig::stream(4 * x, 4))
                .agu(2, AguConfig::new(4 * y, [0, 4, 0, 0, 0]))
                .accu_init(AccuInit::Memory)
                .build()
                .expect("valid axpy")
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any single offloaded command, the simulated TCDM ends up
    /// bit-identical to the software golden model, no matter how the
    /// arbitration interleaves the accesses.
    #[test]
    fn engine_matches_golden_model((cmd, nest, agus, reg, mem_init) in arb_case()) {
        let mut cluster = Cluster::new(ClusterConfig::default());
        // A deterministic pattern covering the whole TCDM, so address
        // wrap-around behaves identically in both models.
        let words = 16_384usize;
        let image: Vec<f32> = (0..words).map(|i| ((i * 37 % 29) as f32) - 14.0).collect();
        cluster.write_tcdm_f32(0, &image);
        let mut builder = NtxConfig::builder();
        builder
            .command(cmd)
            .loops(nest)
            .register(reg)
            .accu_init(if mem_init && cmd.is_reduction() {
                AccuInit::Memory
            } else {
                AccuInit::Zero
            });
        for (i, a) in agus.iter().enumerate() {
            builder.agu(i, *a);
        }
        let cfg = builder.build().expect("valid by construction");
        // Golden model over a shadow image.
        let mut shadow = image.clone();
        golden_execute(&cfg, &mut shadow);
        // Simulate.
        cluster.offload_with_writes(0, &cfg, 1);
        cluster.run_to_completion();
        let got = cluster.read_tcdm_f32(0, words);
        for (i, (g, e)) in got.iter().zip(&shadow).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "word {} differs: sim {} vs golden {} (cmd {:?})",
                i,
                g,
                e,
                cfg.command
            );
        }
    }

    /// Executing the same command on a contended cluster (all 8 engines
    /// running copies over disjoint regions) yields the same per-engine
    /// results as running it alone: arbitration affects timing, never
    /// values.
    #[test]
    fn contention_does_not_change_results(n in 1u32..40, seed in any::<u32>()) {
        let mut lone = Cluster::new(ClusterConfig::default());
        let mut busy = Cluster::new(ClusterConfig::default());
        let mut s = seed | 1;
        let data: Vec<f32> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                (s as f32 / u32::MAX as f32) - 0.5
            })
            .collect();
        let region = 0x1800u32;
        let make = |base: u32| {
            NtxConfig::builder()
                .command(Command::Mac {
                    operand: OperandSelect::Memory,
                })
                .loops(LoopNest::vector(n))
                .agu(0, AguConfig::stream(base, 4))
                .agu(1, AguConfig::stream(base + 0x800, 4))
                .agu(2, AguConfig::fixed(base + 0x1000))
                .build()
                .unwrap()
        };
        for e in 0..8u32 {
            busy.write_tcdm_f32(e * region, &data);
            busy.write_tcdm_f32(e * region + 0x800, &data);
        }
        lone.write_tcdm_f32(0, &data);
        lone.write_tcdm_f32(0x800, &data);
        lone.offload_with_writes(0, &make(0), 1);
        lone.run_to_completion();
        for e in 0..8 {
            busy.offload_with_writes(e, &make(e as u32 * region), 1);
        }
        busy.run_to_completion();
        let expect = lone.read_tcdm_f32(0x1000, 1)[0];
        for e in 0..8u32 {
            let got = busy.read_tcdm_f32(e * region + 0x1000, 1)[0];
            prop_assert_eq!(got.to_bits(), expect.to_bits(), "engine {}", e);
        }
        // And the contended run must have seen some conflicts for
        // non-trivial lengths — the arbitration was actually exercised.
        if n > 8 {
            prop_assert!(busy.perf().tcdm_requests > 0);
        }
    }

    /// The burst fast path is bit-identical to pure per-cycle stepping:
    /// for random command mixes on 1–8 engines (strided walks,
    /// reductions, elementwise store cadences, register operands,
    /// memory accumulator init, split-K wide restores and spills), some
    /// engines with a second command staged behind the first and a
    /// third offload that waits for the staged slot, DMA traffic in
    /// either direction, and a second offload wave after the drain —
    /// where a diverged round-robin pointer would show — both modes
    /// must agree on the final TCDM and external images, the cycle
    /// counter, and every performance counter, stall and conflict
    /// counts included.
    #[test]
    fn fast_path_matches_per_cycle_reference(
        work in prop::collection::vec((arb_config(), arb_config(), any::<bool>()), 1..=8),
        dma in 0u8..4,
        second_wave in any::<bool>(),
    ) {
        let words = 16_384usize;
        let drive = |fast_path: bool| {
            let mut c = Cluster::new(ClusterConfig { fast_path, ..ClusterConfig::default() });
            let image: Vec<f32> = (0..words).map(|i| ((i * 41 % 23) as f32) - 11.0).collect();
            let ext_image: Vec<f32> = (0..256).map(|i| (i as f32) * 0.25 - 32.0).collect();
            c.write_tcdm_f32(0, &image);
            c.ext_mem().write_f32_slice(0x4000, &ext_image);
            c.ext_mem().reset_counters();
            let push_dma = |c: &mut Cluster| {
                if dma & 1 != 0 {
                    c.dma_push(DmaDescriptor::linear(0x4000, 0xa000, 512, DmaDirection::ExtToTcdm));
                }
                if dma & 2 != 0 {
                    c.dma_push(DmaDescriptor {
                        ext_addr: 0x8000,
                        tcdm_addr: 0xa200,
                        row_bytes: 32,
                        rows: 4,
                        ext_stride: 48,
                        tcdm_stride: 32,
                        dir: DmaDirection::TcdmToExt,
                    });
                }
            };
            push_dma(&mut c);
            for (engine, (first, second, staged)) in work.iter().enumerate() {
                c.offload_with_writes(engine, first, 2);
                if *staged {
                    c.offload_with_writes(engine, second, 2);
                    c.offload_with_writes(engine, first, 2);
                }
            }
            c.run_to_completion();
            if second_wave {
                push_dma(&mut c);
                for (engine, (first, _, _)) in work.iter().enumerate() {
                    c.offload_with_writes(engine, first, 1);
                }
                c.run_to_completion();
            }
            // Run a little further: idle bursting must also agree.
            c.run_for(100);
            let tcdm = c.read_tcdm_f32(0, words);
            let ext = c.ext_mem().read_f32_slice(0x8000, 64);
            (c.cycle(), c.perf(), tcdm, ext)
        };
        let (fc, fp, ft, fe) = drive(true);
        let (sc, sp, st, se) = drive(false);
        prop_assert_eq!(fc, sc, "cycle counters diverged");
        prop_assert_eq!(fp, sp, "performance counters diverged");
        for (i, (g, e)) in ft.iter().zip(&st).enumerate() {
            prop_assert_eq!(g.to_bits(), e.to_bits(), "TCDM word {} differs", i);
        }
        prop_assert_eq!(fe, se, "external memory diverged");
    }

    /// Under a binding shared-HMC slot schedule the burst fast path
    /// (throttled whole-row DMA bursts, clipped per-cycle stepping)
    /// stays bit-identical to the pure per-cycle reference — cycle
    /// counter, every performance counter, TCDM and external images.
    /// And against the *ideal* private memory, contention only ever
    /// changes timing: data is bit-identical, cycles never shrink.
    #[test]
    fn throttled_fast_path_matches_reference_and_ideal_data(
        cases in prop::collection::vec(arb_case(), 1..3),
        ports in 2u32..48,
        index in 0u32..48,
    ) {
        let port = HmcSubsystem::new(
            HmcConfig::default().with_interconnect_bits(64),
            ports,
            1.25e9,
            1,
        )
        .port(index % ports);
        let drive = |fast_path: bool, ext_port: Option<ntx_mem::HmcPort>| {
            let mut c = Cluster::new(ClusterConfig {
                fast_path,
                ext_port,
                ..ClusterConfig::default()
            });
            let words = 16_384usize;
            let image: Vec<f32> = (0..words).map(|i| ((i * 41 % 23) as f32) - 11.0).collect();
            let ext_image: Vec<f32> = (0..256).map(|i| (i as f32) * 0.25 - 32.0).collect();
            c.write_tcdm_f32(0, &image);
            c.ext_mem().write_f32_slice(0x4000, &ext_image);
            c.ext_mem().reset_counters();
            // Input DMA, compute, output DMA — the double-buffered
            // shape whose ext beats the shared schedule throttles.
            c.dma_push(DmaDescriptor::linear(0x4000, 0xa000, 512, DmaDirection::ExtToTcdm));
            for (engine, (cmd, nest, agus, reg, mem_init)) in cases.iter().enumerate() {
                let mut builder = NtxConfig::builder();
                builder
                    .command(*cmd)
                    .loops(*nest)
                    .register(*reg)
                    .accu_init(if *mem_init && cmd.is_reduction() {
                        AccuInit::Memory
                    } else {
                        AccuInit::Zero
                    });
                for (i, a) in agus.iter().enumerate() {
                    builder.agu(i, *a);
                }
                let cfg = builder.build().expect("valid by construction");
                c.offload_with_writes(engine, &cfg, 2);
            }
            c.dma_push(DmaDescriptor {
                ext_addr: 0x8000,
                tcdm_addr: 0xa200,
                row_bytes: 32,
                rows: 4,
                ext_stride: 48,
                tcdm_stride: 32,
                dir: DmaDirection::TcdmToExt,
            });
            c.run_to_completion();
            c.run_for(50);
            let tcdm = c.read_tcdm_f32(0, words);
            let dma_tile = c.read_tcdm_f32(0xa000, 128);
            let ext = c.ext_mem().read_f32_slice(0x8000, 64);
            (c.cycle(), c.perf(), tcdm, dma_tile, ext)
        };
        let (fc, fp, ft, fd, fe) = drive(true, Some(port));
        let (sc, sp, st, sd, se) = drive(false, Some(port));
        prop_assert_eq!(fc, sc, "cycle counters diverged under throttling");
        prop_assert_eq!(fp, sp, "performance counters diverged under throttling");
        for (i, (g, e)) in ft.iter().zip(&st).enumerate() {
            prop_assert_eq!(g.to_bits(), e.to_bits(), "TCDM word {} differs", i);
        }
        prop_assert_eq!(fd, sd);
        prop_assert_eq!(fe, se, "external memory diverged under throttling");
        // Ideal-memory oracle: contention never speeds anything up and
        // never touches what the DMA moved. (The random engine mixes
        // here may race *each other* on overlapping TCDM words, so
        // only the DMA-transferred regions are timing-invariant; the
        // scheduler-level proptests assert full output bit-identity on
        // race-free kernels.)
        let (ic, ip, _it, id, ie) = drive(true, None);
        prop_assert!(fc >= ic, "contention must not speed anything up");
        prop_assert!(fp.ext_wait_cycles >= ip.ext_wait_cycles);
        prop_assert_eq!(ip.ext_wait_cycles, 0, "ideal memory never waits");
        for (i, (g, e)) in fd.iter().zip(&id).enumerate() {
            prop_assert_eq!(g.to_bits(), e.to_bits(), "contended DMA tile word {} differs from ideal", i);
        }
        prop_assert_eq!(fe, ie, "contended external data differs from ideal");
        prop_assert_eq!(fp.dma_bytes, ip.dma_bytes, "traffic volume must not change");
    }
}
