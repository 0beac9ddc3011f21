//! DNN workload models for the Table II training-efficiency study.
//!
//! The paper evaluates NTX configurations on six convolutional networks
//! — AlexNet, GoogLeNet, Inception-v3, ResNet-34/50/152 — reporting the
//! energy efficiency of one full-precision training pass. This crate
//! provides layer-exact descriptions of those networks
//! ([`networks`]), per-layer compute/parameter/activation accounting
//! ([`Layer`]), and the training-pass cost model ([`TrainingModel`]) that
//! the system-level evaluation in `ntx-model` consumes.
//!
//! # Example
//!
//! ```
//! use ntx_dnn::networks;
//!
//! let net = networks::alexnet();
//! // AlexNet forward pass ≈ 0.7 GMAC.
//! let gmacs = net.total_macs() as f64 / 1e9;
//! assert!(gmacs > 0.5 && gmacs < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
mod layer;
pub mod networks;
mod training;

pub use compile::{Pass, StepOp, TrainingStep};
pub use layer::{ConvLayer, FcLayer, Layer, Network, PoolLayer};
pub use training::{TrainingCost, TrainingModel};
