//! Training-pass cost model (§III-D).
//!
//! Table II reports energy efficiency *"with respect to training
//! different DNNs"* at full fp32 precision. Following the model of the
//! companion TC article [12], one training step per sample costs:
//!
//! * **compute**: 3× the forward MACs (forward, backward-by-data,
//!   backward-by-weights), at 2 flops per MAC;
//! * **DRAM traffic**: activations stream in and out of the clusters
//!   for each of the three passes, while weights (and weight gradients)
//!   amortise over the minibatch.
//!
//! The resulting per-network `flop / byte` ratio is what differentiates
//! the Table II columns: AlexNet's huge fully-connected layers make it
//! the most memory-bound network of the six, GoogLeNet and Inception
//! are the most compute-dense — exactly the ordering of the paper's
//! efficiency numbers.

use crate::layer::{Layer, Network};

/// Cost of one training step (one minibatch) of a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingCost {
    /// Total floating-point operations.
    pub flops: u64,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: u64,
}

impl TrainingCost {
    /// Operational intensity of the training step, flop/byte.
    #[must_use]
    pub fn operational_intensity(&self) -> f64 {
        if self.dram_bytes == 0 {
            f64::INFINITY
        } else {
            self.flops as f64 / self.dram_bytes as f64
        }
    }
}

/// The training cost model with its calibration constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingModel {
    /// Minibatch size (paper-era ImageNet training commonly used 64 to
    /// 256 per device; the default follows \[12\]).
    pub batch: u32,
    /// Backward/forward compute ratio (3 = fwd + bwd-data + bwd-weight).
    pub pass_factor: u32,
    /// Bytes per element (4 = fp32 end to end, the paper's headline
    /// "full floating-point precision").
    pub bytes_per_element: u32,
    /// Aggregate on-chip (TCDM) capacity available for batching one
    /// layer's activations, in elements. It bounds how many samples
    /// can share one streaming pass over the layer's weights: large
    /// fully-connected layers whose per-sample activations crowd out
    /// the TCDM must re-stream their weights — the mechanism that
    /// makes AlexNet the least efficient network of Table II.
    /// Defaults to 16 clusters × 16 K elements.
    pub tcdm_capacity_elems: u64,
}

impl Default for TrainingModel {
    fn default() -> Self {
        Self {
            batch: 64,
            pass_factor: 3,
            bytes_per_element: 4,
            tcdm_capacity_elems: 16 * 16_384,
        }
    }
}

impl TrainingModel {
    /// Number of samples that can share one weight-streaming pass of
    /// `layer` (clamped to `1..=batch`).
    #[must_use]
    pub fn weight_reuse(&self, layer: &Layer) -> u64 {
        let per_sample = layer.activations_in() + layer.activations_out();
        if per_sample == 0 {
            return u64::from(self.batch);
        }
        (self.tcdm_capacity_elems / per_sample).clamp(1, u64::from(self.batch))
    }

    /// Cost of one layer per training step.
    #[must_use]
    pub fn layer_cost(&self, layer: &Layer) -> TrainingCost {
        let b = u64::from(self.batch);
        let e = u64::from(self.bytes_per_element);
        let passes = u64::from(self.pass_factor);
        let flops = 2 * layer.macs() * passes * b;
        // Activations move once per pass. The output tensor is written
        // once; the input tensor is shared with the producing layer (and
        // with sibling branches in inception-style modules), so half of
        // its traffic is charged here and half at the producer.
        let act = (layer.activations_in() / 2 + layer.activations_out()) * e * passes * b;
        // Weights stream once per group of `weight_reuse` samples for
        // the forward and backward-by-data passes, and the gradient is
        // written back once per group in the weight-update pass.
        let weights = layer.params() * e * 3 * b.div_ceil(self.weight_reuse(layer));
        TrainingCost {
            flops,
            dram_bytes: act + weights,
        }
    }

    /// Cost of one full training step of `net`.
    #[must_use]
    pub fn network_cost(&self, net: &Network) -> TrainingCost {
        let mut flops = 0u64;
        let mut bytes = 0u64;
        for l in &net.layers {
            let c = self.layer_cost(l);
            flops += c.flops;
            bytes += c.dram_bytes;
        }
        TrainingCost {
            flops,
            dram_bytes: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvLayer, FcLayer};
    use crate::networks;

    #[test]
    fn conv_layer_cost_scales_with_batch() {
        let layer = Layer::Conv(ConvLayer::square(16, 16, 8, 8, 3, 1));
        let m1 = TrainingModel {
            batch: 1,
            ..Default::default()
        };
        let m8 = TrainingModel {
            batch: 8,
            ..Default::default()
        };
        let c1 = m1.layer_cost(&layer);
        let c8 = m8.layer_cost(&layer);
        assert_eq!(c8.flops, 8 * c1.flops);
        // Weight traffic does not scale with batch, so intensity rises.
        assert!(c8.operational_intensity() > c1.operational_intensity());
    }

    #[test]
    fn fc_layers_are_memory_bound() {
        let fc = Layer::Fc(FcLayer {
            inputs: 4096,
            outputs: 4096,
        });
        let conv = Layer::Conv(ConvLayer::square(56, 56, 64, 64, 3, 1));
        let m = TrainingModel::default();
        assert!(
            m.layer_cost(&fc).operational_intensity() < m.layer_cost(&conv).operational_intensity()
        );
    }

    #[test]
    fn training_flops_are_three_times_inference() {
        let net = networks::alexnet();
        let m = TrainingModel {
            batch: 1,
            ..Default::default()
        };
        let c = m.network_cost(&net);
        assert_eq!(c.flops, 2 * 3 * net.total_macs());
    }

    #[test]
    fn alexnet_is_most_memory_bound_at_small_batch() {
        // AlexNet's 61 M parameters dominate its traffic when the
        // batch cannot amortise them: at batch 1 it has the lowest
        // training intensity of the six networks — the mechanism behind
        // its last-place efficiency in every Table II column.
        let m = TrainingModel {
            batch: 1,
            ..Default::default()
        };
        let alex = m.network_cost(&networks::alexnet()).operational_intensity();
        for net in networks::all() {
            if net.name == "AlexNet" {
                continue;
            }
            let oi = m.network_cost(&net).operational_intensity();
            assert!(
                oi > alex,
                "{} intensity {oi:.1} should exceed AlexNet {alex:.1} at batch 1",
                net.name
            );
        }
    }

    #[test]
    fn batch_amortises_weight_traffic() {
        // Growing the minibatch amortises weight traffic and raises the
        // training intensity of every network, saturating at the
        // activation-bound limit.
        let nets = networks::all();
        for net in &nets {
            let small = TrainingModel {
                batch: 1,
                ..Default::default()
            }
            .network_cost(net)
            .operational_intensity();
            let large = TrainingModel {
                batch: 256,
                ..Default::default()
            }
            .network_cost(net)
            .operational_intensity();
            assert!(
                large > small,
                "{}: batch 256 intensity {large:.1} <= batch 1 {small:.1}",
                net.name
            );
        }
    }
}
