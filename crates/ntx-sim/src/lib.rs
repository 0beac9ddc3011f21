//! Cycle-approximate simulator of one NTX processing cluster.
//!
//! Binds together the substrates of the companion crates into the
//! cluster of Fig. 1/2 of the paper: eight [`NtxEngine`] co-processors
//! and a DMA engine sharing a 32-bank TCDM through an arbitrating
//! interconnect, plus an RV32IMC control core (either the interpreted
//! [`ntx_riscv::Cpu`] through the cluster's [`Bus`](ntx_riscv::Bus)
//! implementation, or the lightweight host-driver API used by the
//! kernel library).
//!
//! The model advances in NTX clock cycles (1.25 GHz in the 22FDX
//! implementation). Per cycle every active engine issues the TCDM
//! accesses of its current innermost iteration; the interconnect grants
//! one access per bank; an engine whose accesses are not all granted
//! stalls and retries — reproducing the banking-conflict behaviour that
//! §III-C measures at ≈13 % and that limits practical throughput to
//! ≈17.4 Gflop/s.
//!
//! # Example
//!
//! ```
//! use ntx_sim::{Cluster, ClusterConfig};
//! use ntx_isa::{AguConfig, Command, LoopNest, NtxConfig, OperandSelect};
//!
//! let mut cluster = Cluster::new(ClusterConfig::default());
//! cluster.write_tcdm_f32(0x000, &[1.0, 2.0, 3.0, 4.0]);
//! cluster.write_tcdm_f32(0x100, &[4.0, 3.0, 2.0, 1.0]);
//! let cfg = NtxConfig::builder()
//!     .command(Command::Mac { operand: OperandSelect::Memory })
//!     .loops(LoopNest::vector(4))
//!     .agu(0, AguConfig::stream(0x000, 4))
//!     .agu(1, AguConfig::stream(0x100, 4))
//!     .agu(2, AguConfig::fixed(0x200))
//!     .build()?;
//! cluster.offload(0, &cfg);
//! cluster.run_to_completion();
//! assert_eq!(cluster.read_tcdm_f32(0x200, 1)[0], 20.0);
//! # Ok::<(), ntx_isa::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod fault;
mod mmio;
mod ntx_engine;
mod perf;

pub use cluster::{Cluster, ClusterConfig, MAX_DRAIN_CYCLES};
pub use fault::{ClusterKill, FaultPlan, LinkFault, StallSpec};
pub use mmio::map;
pub use ntx_engine::{AccessList, BurstOutcome, EngineStatus, NtxEngine};
pub use perf::PerfSnapshot;
