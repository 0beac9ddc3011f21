//! RV32IMC control-core substrate.
//!
//! The NTX cluster pairs its co-processors with *"a small 32 bit RISC-V
//! processor core (RV32IMC)"* (§II-A, the RI5CY core of \[18\]) that
//! performs address calculation, programs the DMA, and offloads NTX
//! commands through memory-mapped registers (§II-E). This crate is a
//! from-scratch instruction-accurate interpreter of that core:
//!
//! * [`Cpu`] — RV32I base ISA, the M multiply/divide extension and the C
//!   compressed extension, with cycle/instret counters;
//! * [`Bus`] — the memory interface the cluster implements to map TCDM,
//!   NTX register windows, DMA registers and the L2 program memory;
//! * [`Assembler`] — a label-aware programmatic assembler used to write
//!   control programs in tests and examples without an external
//!   toolchain;
//! * [`Ram`] — a simple flat memory for stand-alone core tests.
//!
//! # Example
//!
//! ```
//! use ntx_riscv::{reg, Assembler, Cpu, Ram, Trap};
//!
//! // sum = 1 + 2 + ... + 10, then ebreak.
//! let mut asm = Assembler::new(0);
//! let done = asm.new_label();
//! let head = asm.new_label();
//! asm.li(reg::T0, 10);
//! asm.li(reg::T1, 0);
//! asm.bind(head);
//! asm.beq(reg::T0, reg::ZERO, done);
//! asm.add(reg::T1, reg::T1, reg::T0);
//! asm.addi(reg::T0, reg::T0, -1);
//! asm.jump(head);
//! asm.bind(done);
//! asm.ebreak();
//!
//! let mut ram = Ram::new(4096);
//! ram.load_words(0, &asm.assemble()?);
//! let mut cpu = Cpu::new(0);
//! let trap = cpu.run(&mut ram, 10_000);
//! assert_eq!(trap, Some(Trap::Ebreak));
//! assert_eq!(cpu.reg(reg::T1), 55);
//! # Ok::<(), ntx_riscv::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod bus;
mod cpu;
mod instr;
pub mod reg;

pub use asm::{AsmError, Assembler, Label};
pub use bus::{AccessSize, Bus, BusError, Ram};
pub use cpu::{Cpu, Trap};
pub use instr::{decode, expand_compressed, Instr};
