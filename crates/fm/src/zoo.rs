//! The evaluated model zoo (§7.1): layer inventories and outlier profiles
//! for every model family the paper reports on.
//!
//! Real checkpoints cannot be loaded here; each spec instead
//! records the model's true architecture dimensions, a proxy scale divisor
//! that keeps pure-Rust GPTQ tractable, and an *outlier profile* calibrated
//! to the statistics in Fig. 2(a): modern FMs carry up to ~5% outliers
//! (over 0.5% adjacent outliers per layer), while OPT/BERT-era models have
//! two orders of magnitude fewer adjacent outliers.

/// Broad model class, driving workload selection in the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelClass {
    /// Dense decoder LLM.
    Llm,
    /// Vision-language model.
    Vlm,
    /// Mixture-of-experts LLM.
    Moe,
    /// Small language model.
    Slm,
    /// Convolutional network.
    Cnn,
    /// State-space model.
    Ssm,
}

/// Statistical profile of a model's weight outliers (Fig. 2(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierProfile {
    /// Target fraction of weights beyond 3σ (0.002 – 0.05 across the zoo).
    pub rate: f64,
    /// Fraction of outliers placed adjacent to another outlier along the
    /// dot-product dimension (FMs: 0.1–0.4 of outliers; OPT-era: ≈0.01).
    pub adjacency: f64,
    /// Fraction of outliers concentrated in hot input channels.
    pub channel_structure: f64,
    /// Outlier magnitude range in units of the body σ.
    pub magnitude_sigma: (f64, f64),
}

/// One weight layer to quantize: proxy-scaled dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpec {
    /// Layer role (e.g. `"attn.q_proj"`).
    pub name: &'static str,
    /// Output channels (proxy scale).
    pub d_row: usize,
    /// Input features (proxy scale).
    pub d_col: usize,
    /// How many times this shape repeats across the real model (weights the
    /// aggregate error and the accelerator workload).
    pub repeats: usize,
}

impl LayerSpec {
    /// Proxy-scale element count for one instance.
    pub fn elements(&self) -> usize {
        self.d_row * self.d_col
    }
}

/// A model to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Display name matching the paper's tables.
    pub name: &'static str,
    /// Model class.
    pub class: ModelClass,
    /// Parameter count in billions (reporting only).
    pub params_b: f64,
    /// True hidden size of the real model.
    pub hidden: usize,
    /// Number of transformer blocks (or stages) in the real model.
    pub n_blocks: usize,
    /// Proxy-scaled layers to synthesize and quantize.
    pub layers: Vec<LayerSpec>,
    /// Full-precision WikiText-2 perplexity from the paper (LLMs).
    pub fp_ppl: Option<f64>,
    /// Full-precision benchmark accuracy (%) from the paper (VLM/CNN/SSM).
    pub fp_acc: Option<f64>,
    /// Outlier statistics target.
    pub outlier_profile: OutlierProfile,
    /// Deterministic synthesis seed.
    pub seed: u64,
}

/// Proxy scale divisor applied to real hidden sizes (keeps the
/// Cholesky/GPTQ cost tractable in pure Rust while
/// preserving block-structure ratios: proxy dims stay multiples of 128).
pub const PROXY_DIVISOR: usize = 16;

fn fm_profile(rate: f64, adjacency: f64) -> OutlierProfile {
    OutlierProfile {
        rate,
        adjacency,
        channel_structure: 0.5,
        magnitude_sigma: (3.5, 40.0),
    }
}

/// OPT-era profile: outliers exist but are almost never adjacent (§3.2:
/// < 0.04% adjacent outliers, two orders of magnitude below modern FMs).
fn opt_profile(rate: f64) -> OutlierProfile {
    OutlierProfile {
        rate,
        adjacency: 0.005,
        channel_structure: 0.8,
        magnitude_sigma: (3.5, 12.0),
    }
}

fn llm_layers(hidden: usize, ffn: usize) -> Vec<LayerSpec> {
    let h = hidden / PROXY_DIVISOR;
    let f = ffn / PROXY_DIVISOR;
    vec![
        LayerSpec {
            name: "attn.qkv_proj",
            d_row: h,
            d_col: h,
            repeats: 4,
        },
        LayerSpec {
            name: "mlp.up_proj",
            d_row: f,
            d_col: h,
            repeats: 2,
        },
        LayerSpec {
            name: "mlp.down_proj",
            d_row: h,
            d_col: f,
            repeats: 1,
        },
    ]
}

/// Looks up a model by its paper-table name.
///
/// # Panics
///
/// Panics if the name is unknown; use [`all_models`] to enumerate.
pub fn model(name: &str) -> ModelSpec {
    all_models()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown model '{name}'"))
}

/// The LLM zoo of Table 2.
pub fn llm_zoo() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "OPT-6.7B",
            class: ModelClass::Llm,
            params_b: 6.7,
            hidden: 4096,
            n_blocks: 32,
            layers: llm_layers(4096, 16384),
            fp_ppl: Some(10.86),
            fp_acc: None,
            outlier_profile: opt_profile(0.008),
            seed: 0x0601,
        },
        ModelSpec {
            name: "OPT-175B",
            class: ModelClass::Llm,
            params_b: 175.0,
            hidden: 12288,
            n_blocks: 96,
            layers: llm_layers(12288, 49152),
            fp_ppl: Some(8.34),
            fp_acc: None,
            outlier_profile: opt_profile(0.010),
            seed: 0x0602,
        },
        ModelSpec {
            name: "LLaMA-2-7B",
            class: ModelClass::Llm,
            params_b: 7.0,
            hidden: 4096,
            n_blocks: 32,
            layers: llm_layers(4096, 11008),
            fp_ppl: Some(5.47),
            fp_acc: None,
            outlier_profile: fm_profile(0.010, 0.15),
            seed: 0x0701,
        },
        ModelSpec {
            name: "LLaMA-2-13B",
            class: ModelClass::Llm,
            params_b: 13.0,
            hidden: 5120,
            n_blocks: 40,
            layers: llm_layers(5120, 13824),
            fp_ppl: Some(4.83),
            fp_acc: None,
            outlier_profile: fm_profile(0.011, 0.18),
            seed: 0x0702,
        },
        ModelSpec {
            name: "LLaMA-2-70B",
            class: ModelClass::Llm,
            params_b: 70.0,
            hidden: 8192,
            n_blocks: 80,
            layers: llm_layers(8192, 28672),
            fp_ppl: Some(3.31),
            fp_acc: Some(73.58), // mean of Table 3's four benchmarks
            outlier_profile: fm_profile(0.012, 0.20),
            seed: 0x0703,
        },
        ModelSpec {
            name: "LLaMA-3-8B",
            class: ModelClass::Llm,
            params_b: 8.0,
            hidden: 4096,
            n_blocks: 32,
            layers: llm_layers(4096, 14336),
            fp_ppl: Some(6.13),
            fp_acc: None,
            outlier_profile: fm_profile(0.018, 0.30),
            seed: 0x0801,
        },
        ModelSpec {
            name: "LLaMA-3-70B",
            class: ModelClass::Llm,
            params_b: 70.0,
            hidden: 8192,
            n_blocks: 80,
            layers: llm_layers(8192, 28672),
            fp_ppl: Some(2.85),
            fp_acc: None,
            outlier_profile: fm_profile(0.016, 0.28),
            seed: 0x0802,
        },
        ModelSpec {
            name: "Mixtral-8x7B",
            class: ModelClass::Moe,
            params_b: 46.7,
            hidden: 4096,
            n_blocks: 32,
            layers: llm_layers(4096, 14336),
            fp_ppl: Some(3.84),
            fp_acc: None,
            outlier_profile: fm_profile(0.015, 0.25),
            seed: 0x0901,
        },
        ModelSpec {
            name: "Phi-3-3.8B",
            class: ModelClass::Slm,
            params_b: 3.8,
            hidden: 3072,
            n_blocks: 32,
            layers: llm_layers(3072, 8192),
            fp_ppl: Some(6.33),
            fp_acc: None,
            outlier_profile: fm_profile(0.014, 0.22),
            seed: 0x0A01,
        },
        ModelSpec {
            name: "Phi-3-14B",
            class: ModelClass::Slm,
            params_b: 14.0,
            hidden: 5120,
            n_blocks: 40,
            layers: llm_layers(5120, 17920),
            fp_ppl: Some(4.31),
            fp_acc: None,
            outlier_profile: fm_profile(0.013, 0.22),
            seed: 0x0A02,
        },
    ]
}

/// The VLM zoo of Fig. 10 / Fig. 2.
pub fn vlm_zoo() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "OpenFlamingo-9B",
            class: ModelClass::Vlm,
            params_b: 9.0,
            hidden: 4096,
            n_blocks: 32,
            layers: llm_layers(4096, 16384),
            fp_ppl: None,
            fp_acc: Some(89.5), // 8-shot COCO CIDEr-ish anchor
            outlier_profile: fm_profile(0.030, 0.35),
            seed: 0x0B01,
        },
        ModelSpec {
            name: "VILA-7B",
            class: ModelClass::Vlm,
            params_b: 7.0,
            hidden: 4096,
            n_blocks: 32,
            layers: llm_layers(4096, 11008),
            fp_ppl: None,
            fp_acc: Some(62.3), // GQA anchor from Fig. 2(b)
            outlier_profile: fm_profile(0.035, 0.40),
            seed: 0x0B02,
        },
        ModelSpec {
            name: "LLaVA-1.5-7B",
            class: ModelClass::Vlm,
            params_b: 7.0,
            hidden: 4096,
            n_blocks: 32,
            layers: llm_layers(4096, 11008),
            fp_ppl: None,
            fp_acc: Some(78.5), // VQAv2 anchor from Fig. 2(b)
            outlier_profile: fm_profile(0.032, 0.38),
            seed: 0x0B03,
        },
    ]
}

/// The CNN/SSM zoo of Table 4.
pub fn cnn_ssm_zoo() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "ResNet-50",
            class: ModelClass::Cnn,
            params_b: 0.025,
            hidden: 2048,
            n_blocks: 16,
            layers: vec![
                // Conv layers as im2col GEMMs (Cout × Cin·k²), proxy scale.
                LayerSpec {
                    name: "conv3x3.s2",
                    d_row: 128,
                    d_col: 144,
                    repeats: 8,
                },
                LayerSpec {
                    name: "conv1x1.s4",
                    d_row: 128,
                    d_col: 64,
                    repeats: 8,
                },
                LayerSpec {
                    name: "fc",
                    d_row: 64,
                    d_col: 128,
                    repeats: 1,
                },
            ],
            fp_ppl: None,
            fp_acc: Some(76.15),
            outlier_profile: OutlierProfile {
                rate: 0.004,
                adjacency: 0.02,
                channel_structure: 0.2,
                magnitude_sigma: (3.5, 8.0),
            },
            seed: 0x0C01,
        },
        ModelSpec {
            name: "VGG-16",
            class: ModelClass::Cnn,
            params_b: 0.138,
            hidden: 4096,
            n_blocks: 13,
            layers: vec![
                LayerSpec {
                    name: "conv3x3",
                    d_row: 128,
                    d_col: 288,
                    repeats: 10,
                },
                LayerSpec {
                    name: "fc",
                    d_row: 256,
                    d_col: 256,
                    repeats: 2,
                },
            ],
            fp_ppl: None,
            fp_acc: Some(71.59),
            outlier_profile: OutlierProfile {
                rate: 0.003,
                adjacency: 0.02,
                channel_structure: 0.2,
                magnitude_sigma: (3.5, 7.0),
            },
            seed: 0x0C02,
        },
        ModelSpec {
            name: "VMamba-S",
            class: ModelClass::Ssm,
            params_b: 0.050,
            hidden: 768,
            n_blocks: 15,
            layers: vec![
                LayerSpec {
                    name: "ssm.in_proj",
                    d_row: 96,
                    d_col: 48,
                    repeats: 8,
                },
                LayerSpec {
                    name: "ssm.x_proj",
                    d_row: 48,
                    d_col: 96,
                    repeats: 8,
                },
                LayerSpec {
                    name: "ssm.out_proj",
                    d_row: 48,
                    d_col: 96,
                    repeats: 8,
                },
            ],
            fp_ppl: None,
            fp_acc: Some(83.60),
            outlier_profile: fm_profile(0.040, 0.45), // SSMs are outlier-heavy
            seed: 0x0D01,
        },
        ModelSpec {
            name: "Vim-S",
            class: ModelClass::Ssm,
            params_b: 0.026,
            hidden: 384,
            n_blocks: 24,
            layers: vec![
                LayerSpec {
                    name: "ssm.in_proj",
                    d_row: 48,
                    d_col: 24,
                    repeats: 12,
                },
                LayerSpec {
                    name: "ssm.out_proj",
                    d_row: 24,
                    d_col: 48,
                    repeats: 12,
                },
            ],
            fp_ppl: None,
            fp_acc: Some(80.50),
            outlier_profile: fm_profile(0.038, 0.42),
            seed: 0x0D02,
        },
    ]
}

/// Every model in the zoo.
pub fn all_models() -> Vec<ModelSpec> {
    let mut v = llm_zoo();
    v.extend(vlm_zoo());
    v.extend(cnn_ssm_zoo());
    v
}

impl ModelSpec {
    /// Real-model GEMM shapes (unscaled), for the accelerator workload:
    /// `(name, d_row, d_col, repeats_per_block)` multiplied out over blocks.
    pub fn real_gemm_shapes(&self) -> Vec<(String, usize, usize, usize)> {
        self.layers
            .iter()
            .map(|l| {
                (
                    l.name.to_string(),
                    l.d_row * PROXY_DIVISOR,
                    l.d_col * PROXY_DIVISOR,
                    l.repeats * self.n_blocks,
                )
            })
            .collect()
    }

    /// Total proxy-scale element count across one block's layers.
    pub fn proxy_elements(&self) -> usize {
        self.layers.iter().map(|l| l.elements() * l.repeats).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_models_are_present() {
        let names: Vec<&str> = llm_zoo().iter().map(|m| m.name).collect();
        for expect in [
            "OPT-6.7B",
            "OPT-175B",
            "LLaMA-2-7B",
            "LLaMA-2-13B",
            "LLaMA-2-70B",
            "LLaMA-3-8B",
            "LLaMA-3-70B",
            "Mixtral-8x7B",
            "Phi-3-3.8B",
            "Phi-3-14B",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn baseline_ppls_match_paper_table2() {
        assert_eq!(model("LLaMA-3-8B").fp_ppl, Some(6.13));
        assert_eq!(model("LLaMA-2-13B").fp_ppl, Some(4.83));
        assert_eq!(model("OPT-6.7B").fp_ppl, Some(10.86));
    }

    #[test]
    fn proxy_dims_are_block_aligned() {
        for m in all_models() {
            for l in &m.layers {
                assert!(l.d_col >= 16, "{}: {} too small", m.name, l.name);
                assert!(l.d_row >= 16, "{}: {} too small", m.name, l.name);
            }
        }
    }

    #[test]
    fn fm_adjacency_dwarfs_opt_adjacency() {
        // The §3.2 contrast that breaks OliVe.
        let llama3 = model("LLaMA-3-8B").outlier_profile;
        let opt = model("OPT-6.7B").outlier_profile;
        assert!(llama3.adjacency > opt.adjacency * 20.0);
    }

    #[test]
    fn real_shapes_restore_proxy_divisor() {
        let m = model("LLaMA-3-8B");
        let shapes = m.real_gemm_shapes();
        assert!(shapes.iter().any(|(_, r, c, _)| *r == 4096 && *c == 4096));
        assert!(shapes.iter().any(|(_, r, c, _)| *r == 14336 && *c == 4096));
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_model_panics() {
        let _ = model("GPT-5");
    }

    #[test]
    fn zoo_seeds_are_unique() {
        let mut seeds: Vec<u64> = all_models().iter().map(|m| m.seed).collect();
        let before = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), before);
    }
}
