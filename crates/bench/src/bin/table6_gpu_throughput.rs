//! Table 6 — normalized token-generation throughput of the GPU execution
//! paths on LLaMA-2-13B and LLaMA-3-8B (A100-class model).

use microscopiq_accel::workload::{model_workload, Phase};
use microscopiq_bench::{f2, Table};
use microscopiq_fm::model;
use microscopiq_gpu::{normalized_throughput, GpuPath, GpuSpec, MsGpuParams};

fn main() {
    let spec = GpuSpec::a100();
    let ms = MsGpuParams::default();
    let paths = [
        GpuPath::Fp16Baseline,
        GpuPath::AtomW4A4,
        GpuPath::MsNoOptim,
        GpuPath::MsOptim,
        GpuPath::MsModifiedTc,
    ];
    let paper = [
        ("LLaMA-2-13B", [1.00, 2.25, 0.98, 2.06, 4.31]),
        ("LLaMA-3-8B", [1.00, 1.05, 0.92, 1.01, 1.78]),
    ];

    let mut table = Table::new(
        "Table 6: normalized token-generation throughput (decode, A100 model)",
        &["Method", "LLaMA-2-13B", "(paper)", "LLaMA-3-8B", "(paper)"],
    );
    for (i, path) in paths.iter().enumerate() {
        let mut row = vec![path.name().to_string()];
        for (model_name, paper_vals) in &paper {
            let wl = model_workload(&model(model_name), Phase::Decode);
            row.push(f2(normalized_throughput(&wl, *path, &spec, &ms)));
            row.push(format!("({:.2})", paper_vals[i]));
        }
        // Reorder: method, 13B, paper13B, 8B, paper8B — already in order.
        table.row(row);
    }
    table.print();
    table.write_csv("table6_gpu_throughput");
    println!(
        "\nnote: the simulated modified-TC row removes all dequantization;\n\
         absolute ratios differ from the paper's GPGPU-Sim setup (execution-path models)."
    );
}
