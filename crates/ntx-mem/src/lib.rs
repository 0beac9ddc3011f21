//! Memory system of the NTX processing cluster.
//!
//! Models the storage hierarchy of Fig. 1 of the paper, from the inside
//! out:
//!
//! * [`Tcdm`] — the 64 kB tightly-coupled data memory, organised as 32
//!   word-interleaved banks with single-cycle access latency (§II-A);
//! * [`Interconnect`] — the logarithmic interconnect arbitrating the
//!   NTX/DMA/core masters onto the banks, one grant per bank per cycle
//!   with round-robin fairness; banking conflicts stall the losing
//!   master (§III-C measures their probability at ≈13 %);
//! * [`DmaEngine`] — the cluster DMA moving two-dimensional planes
//!   between TCDM and external memory through the 64-bit AXI port at
//!   half the NTX clock (5 GB/s peak, §II-A/§III-C);
//! * [`ExtMemory`] — the byte-addressed memory behind the AXI port (the
//!   HMC's DRAM vaults in the paper) with traffic counters, stored as
//!   sparse 64 KiB pages so the whole 64-bit space costs only what is
//!   written;
//! * [`hmc`] — the Hybrid Memory Cube: organisation parameters for the
//!   system-level models, plus the [`HmcSubsystem`]/[`HmcPort`]
//!   per-cycle bandwidth schedule that multi-cluster simulations draw
//!   their external-memory slots from (selected via [`MemoryModel`]);
//!   it schedules bandwidth only, each cluster keeps its own
//!   [`ExtMemory`];
//! * [`mesh`] — the multi-cube scale-out substrate: an [`HmcMesh`] of
//!   per-cube schedules with home-cube data placement and a
//!   serial-link hop model for remote traffic. One shared cube is a
//!   1-cube mesh.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dma;
mod ext_mem;
pub mod hmc;
mod interconnect;
pub mod mesh;
mod tcdm;

pub use dma::{DmaBurst, DmaDescriptor, DmaDirection, DmaEngine};
pub use ext_mem::ExtMemory;
pub use hmc::{HmcConfig, HmcPort, HmcSubsystem, MemoryModel};
pub use interconnect::{BankRequest, Interconnect, MasterId};
pub use mesh::{HmcMesh, MeshConfig};
pub use tcdm::{Tcdm, TcdmConfig};
