//! Table 2 — WikiText-2 perplexity (proxy) for the LLM zoo across
//! W4A16, W4A4, W2A16, and W2A8 settings.
//!
//! Measured quantity: element-weighted relative layer output error;
//! reported as proxy perplexity via a κ calibrated once on the GPTQ-W4A16
//! anchor for LLaMA-3-8B (see `microscopiq_fm::metrics`). Orderings and
//! ratios between methods are measurement-driven; absolute values are not
//! expected to match the paper (README, "Stand-ins and simplifications").

use microscopiq_bench::methods::{weight_activation_methods, weight_only_methods};
use microscopiq_bench::{f2, f3, Table};
use microscopiq_fm::metrics::PerplexityMap;
use microscopiq_fm::{evaluate_weight_activation, evaluate_weight_only, llm_zoo};

fn main() {
    let samples = 48;
    // MICROSCOPIQ_FAST=1 drops the three largest models (OPT-175B and the
    // two 70Bs), whose proxy Hessians dominate the ~30-minute full run.
    let fast = std::env::var_os("MICROSCOPIQ_FAST").is_some();
    let zoo: Vec<_> = llm_zoo()
        .into_iter()
        .filter(|m| !fast || !matches!(m.name, "OPT-175B" | "LLaMA-2-70B" | "LLaMA-3-70B"))
        .collect();

    // κ calibration on the GPTQ-W4A16 / LLaMA-3-8B anchor.
    let anchor_spec = zoo.iter().find(|m| m.name == "LLaMA-3-8B").expect("zoo");
    let gptq = microscopiq_baselines::Gptq::new(4, 128);
    let anchor_err = evaluate_weight_only(anchor_spec, &gptq, samples)
        .expect("anchor evaluation")
        .mean_output_error();
    let map = PerplexityMap::calibrate(anchor_err);
    println!(
        "calibration: GPTQ-W4A16 error on LLaMA-3-8B = {:.4} → κ = {:.3}",
        anchor_err, map.kappa
    );

    let mut table = Table::new(
        "Table 2: proxy WikiText-2 perplexity (lower is better)",
        &[
            "Setting",
            "Method",
            "Model",
            "Error",
            "EBW",
            "Proxy PPL",
            "FP16 PPL",
        ],
    );

    for (setting, weight_bits, wa) in [
        ("W4A16", 4u32, false),
        ("W4A4", 4, true),
        ("W2A16", 2, false),
        ("W2A8", 2, true),
    ] {
        let methods = if wa {
            weight_activation_methods(weight_bits).0
        } else {
            weight_only_methods(weight_bits)
        };
        let act_bits = if wa {
            weight_activation_methods(weight_bits).1
        } else {
            16
        };
        for m in &methods {
            for spec in &zoo {
                let eval = if wa {
                    evaluate_weight_activation(
                        spec,
                        m.quantizer.as_ref(),
                        act_bits,
                        128,
                        m.alpha,
                        samples,
                    )
                } else {
                    evaluate_weight_only(spec, m.quantizer.as_ref(), samples)
                };
                let eval = match eval {
                    Ok(e) => e,
                    Err(e) => {
                        eprintln!("{} on {}: {e}", m.name, spec.name);
                        continue;
                    }
                };
                let err = eval.mean_output_error();
                let fp = spec.fp_ppl.unwrap_or(f64::NAN);
                println!(
                    "{setting} {} {}: err {:.4} ebw {:.2} ppl {:.2}",
                    m.name,
                    spec.name,
                    err,
                    eval.mean_ebw(),
                    map.ppl(fp, err)
                );
                table.row(vec![
                    setting.to_string(),
                    m.name.clone(),
                    spec.name.to_string(),
                    f3(err),
                    f2(eval.mean_ebw()),
                    f2(map.ppl(fp, err)),
                    f2(fp),
                ]);
            }
        }
    }
    table.print();
    table.write_csv("table2_llm_ppl");

    // EBW footer (§7.2 claim: ≈2.36 b at bb=2, ≈4.15 b at bb=4).
    let mut ebw_table = Table::new(
        "EBW summary (paper: 2.36 @ bb=2, 4.15 @ bb=4)",
        &["bb", "Mean EBW across LLM zoo"],
    );
    for bits in [2u32, 4] {
        let q = microscopiq_bench::methods::microscopiq(bits);
        let mut acc = 0.0;
        let mut n = 0.0;
        for spec in &zoo {
            if let Ok(e) = evaluate_weight_only(spec, &q, 24) {
                acc += e.mean_ebw();
                n += 1.0;
            }
        }
        ebw_table.row(vec![bits.to_string(), f2(acc / n)]);
    }
    ebw_table.print();
    ebw_table.write_csv("table2_ebw_summary");
}
