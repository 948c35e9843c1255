//! Memory-hierarchy model (§5.1, Fig. 5): HBM2 off-chip memory, the 2 MB
//! L2 SRAM behind an OCP-SRAM interface, and the on-chip weight /
//! iAct / oAct / instruction buffers, with double-buffered transfer
//! scheduling and per-level traffic accounting for the energy model.

use microscopiq_core::packed::PackedLayer;

/// Memory hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Off-chip bandwidth (GB/s); the paper models HBM2 at 256 GB/s.
    pub hbm_gbps: f64,
    /// L2 → buffer bandwidth over the OCP-SRAM interface (GB/s).
    pub ocp_gbps: f64,
    /// L2 capacity (bytes); the paper uses 2 MB.
    pub l2_bytes: usize,
    /// Weight-buffer capacity (bytes).
    pub weight_buffer_bytes: usize,
    /// iAct-buffer capacity (bytes).
    pub iact_buffer_bytes: usize,
    /// oAct-buffer capacity (bytes).
    pub oact_buffer_bytes: usize,
    /// Instruction-buffer capacity (bytes) — holds ReCoN configurations
    /// (permutation lists) and scale factors.
    pub instruction_buffer_bytes: usize,
    /// Clock (GHz) for cycle conversion.
    pub freq_ghz: f64,
}

impl MemoryConfig {
    /// The paper's 64×64 configuration: 2 MB L2, buffers scaled per §7.9
    /// (16/16/32 kB at 8×8, ×8 for a 64×64 array).
    pub fn paper_64x64() -> Self {
        Self {
            hbm_gbps: 256.0,
            ocp_gbps: 64.0,
            l2_bytes: 2 * 1024 * 1024,
            weight_buffer_bytes: 256 * 1024,
            iact_buffer_bytes: 128 * 1024,
            oact_buffer_bytes: 128 * 1024,
            instruction_buffer_bytes: 64 * 1024,
            freq_ghz: 1.0,
        }
    }
}

/// Traffic generated by one layer at each hierarchy level (bytes).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficBreakdown {
    /// Quantized weight payload fetched from DRAM.
    pub weight_bytes: f64,
    /// Hardware-managed metadata (Isf, identifiers, MXScales, perm lists).
    pub metadata_bytes: f64,
    /// Input activations (DRAM → iAct buffer).
    pub iact_bytes: f64,
    /// Output activations (oAct buffer → DRAM or loop-back).
    pub oact_bytes: f64,
}

impl TrafficBreakdown {
    /// Total off-chip bytes.
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.metadata_bytes + self.iact_bytes + self.oact_bytes
    }
}

/// Computes the off-chip layout traffic of a packed layer plus its
/// activation streams for a batch of `n` tokens at `act_bits` precision,
/// following the Fig. 5 two-section layout (quantized weights ‖ metadata).
pub fn layer_traffic(packed: &PackedLayer, n: usize, act_bits: u32) -> TrafficBreakdown {
    let elements = (packed.d_row() * packed.d_col()) as f64;
    let payload_bits = packed.inlier_bits() as f64 * elements;
    // Metadata per Eq. 4 terms: the EBW minus the payload budget, plus the
    // identifier bit and the amortized Isf that Eq. 4 drops.
    let ebw_exact = packed.effective_bit_width_exact();
    let metadata_bits = (ebw_exact * elements - payload_bits).max(0.0);
    TrafficBreakdown {
        weight_bytes: payload_bits / 8.0,
        metadata_bytes: metadata_bits / 8.0,
        iact_bytes: packed.d_col() as f64 * n as f64 * act_bits as f64 / 8.0,
        oact_bytes: packed.d_row() as f64 * n as f64 * act_bits as f64 / 8.0,
    }
}

/// The transfer schedule of one layer through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransferSchedule {
    /// Cycles to stage the layer's working set DRAM → L2.
    pub dram_cycles: f64,
    /// Cycles to move buffers' worth L2 → on-chip buffers over OCP.
    pub ocp_cycles: f64,
    /// Number of weight-buffer refills (tiles) the layer needs.
    pub refills: usize,
    /// Whether the full layer's weights fit in L2 at once.
    pub fits_l2: bool,
}

/// Schedules a layer's transfers: weights stream DRAM → L2 → weight
/// buffer in `refills` double-buffered chunks; the slower of the two
/// links bounds the steady-state rate.
pub fn schedule_layer(cfg: &MemoryConfig, traffic: &TrafficBreakdown) -> TransferSchedule {
    let weight_total = traffic.weight_bytes + traffic.metadata_bytes;
    let refills = (weight_total / cfg.weight_buffer_bytes as f64)
        .ceil()
        .max(1.0) as usize;
    let bytes_per_cycle_dram = cfg.hbm_gbps / cfg.freq_ghz;
    let bytes_per_cycle_ocp = cfg.ocp_gbps / cfg.freq_ghz;
    TransferSchedule {
        dram_cycles: traffic.total_bytes() / bytes_per_cycle_dram,
        ocp_cycles: weight_total / bytes_per_cycle_ocp,
        refills,
        fits_l2: weight_total <= cfg.l2_bytes as f64,
    }
}

/// Instruction-buffer occupancy for a packed layer: one ReCoN
/// configuration word (perm list + MXScale) per outlier-bearing μB plus
/// one Isf byte per macro-block (§5.2).
pub fn instruction_bytes(packed: &PackedLayer) -> usize {
    let mut bytes = 0usize;
    let loc_bits = (packed.micro_block() as u32).ilog2();
    let perm_bytes = (((packed.micro_block() as u32 / 2) * 2 * loc_bits).div_ceil(8)) as usize;
    for g in packed.iter_groups() {
        bytes += 1; // Isf
        for i in 0..g.micro_block_count() {
            if g.micro_block_has_outliers(i) {
                bytes += 1 + perm_bytes; // MXScale + permutation list
            }
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscopiq_core::config::{GroupAxis, QuantConfig};
    use microscopiq_core::solver::solve;
    use microscopiq_core::traits::LayerTensors;
    use microscopiq_linalg::{Matrix, SeededRng};

    fn packed(d_row: usize, d_col: usize, outliers: bool) -> PackedLayer {
        let mut rng = SeededRng::new(3);
        let mut w = Matrix::from_fn(d_row, d_col, |_, _| rng.normal(0.0, 0.02));
        if outliers {
            for _ in 0..(d_row * d_col / 40) {
                let r = rng.below(d_row);
                let c = rng.below(d_col);
                w[(r, c)] = rng.sign() * rng.uniform_range(0.15, 0.4);
            }
        }
        let x = Matrix::from_fn(d_col, 16, |_, _| rng.normal(0.0, 1.0));
        let layer = LayerTensors::new(w, x).unwrap();
        let cfg = QuantConfig::w2()
            .macro_block(64)
            .row_block(64)
            .group_axis(GroupAxis::OutputChannel)
            .build()
            .unwrap();
        solve(&layer, &cfg).unwrap().packed.unwrap()
    }

    #[test]
    fn traffic_tracks_ebw() {
        let clean = packed(64, 64, false);
        let dirty = packed(64, 64, true);
        let t_clean = layer_traffic(&clean, 16, 8);
        let t_dirty = layer_traffic(&dirty, 16, 8);
        // Same payload, more metadata for the outlier-bearing layer.
        assert_eq!(t_clean.weight_bytes, t_dirty.weight_bytes);
        assert!(t_dirty.metadata_bytes > t_clean.metadata_bytes);
    }

    #[test]
    fn payload_is_exactly_bb_bits_per_element() {
        let p = packed(64, 64, true);
        let t = layer_traffic(&p, 1, 8);
        assert!((t.weight_bytes - 64.0 * 64.0 * 2.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_fits_small_layer_in_l2() {
        let p = packed(64, 64, true);
        let cfg = MemoryConfig::paper_64x64();
        let s = schedule_layer(&cfg, &layer_traffic(&p, 16, 8));
        assert!(s.fits_l2);
        assert_eq!(s.refills, 1);
        assert!(s.dram_cycles > 0.0);
    }

    #[test]
    fn ocp_is_the_slower_link() {
        // §5.1: 256 GB/s HBM vs 64 GB/s OCP — the on-chip link bounds
        // weight staging.
        let p = packed(64, 64, true);
        let cfg = MemoryConfig::paper_64x64();
        let t = layer_traffic(&p, 1, 8);
        let s = schedule_layer(&cfg, &t);
        let weight_total = t.weight_bytes + t.metadata_bytes;
        assert!(s.ocp_cycles > weight_total / (cfg.hbm_gbps / cfg.freq_ghz));
    }

    #[test]
    fn instruction_buffer_holds_metadata() {
        let p = packed(64, 64, true);
        let bytes = instruction_bytes(&p);
        let cfg = MemoryConfig::paper_64x64();
        assert!(bytes > 0);
        assert!(
            bytes < cfg.instruction_buffer_bytes,
            "IB overflow: {bytes} bytes"
        );
        // Clean layers need only Isf bytes.
        let clean = packed(64, 64, false);
        assert!(instruction_bytes(&clean) < bytes);
    }

    #[test]
    fn activation_traffic_scales_with_batch() {
        let p = packed(64, 64, false);
        let t1 = layer_traffic(&p, 1, 8);
        let t16 = layer_traffic(&p, 16, 8);
        assert!((t16.iact_bytes / t1.iact_bytes - 16.0).abs() < 1e-9);
        assert!((t16.oact_bytes / t1.oact_bytes - 16.0).abs() < 1e-9);
    }
}
