//! Regenerates the evaluation figures of §6.2–§6.4:
//! * Figure 16 — simulator validation against the analytical roofline;
//! * Figure 17 — energy savings per design;
//! * Figure 18 — average/peak power per design;
//! * Figure 19 — performance overhead per design;
//! * Figure 20 — `setpm` instructions per 1,000 cycles.
//!
//! Run with `cargo run --release -p regate_bench --bin evaluation`.
//! Pass `--full` to use the exact Table 4 chip counts (slower), or
//! `--quick` for the minimal CI smoke subset. Every configuration is run
//! through the static schedule analyzer before simulation; a Deny
//! diagnostic aborts the run.

use npu_arch::{ChipConfig, NpuGeneration, ParallelismConfig};
use npu_compiler::{CompiledGraph, Compiler};
use npu_models::{DlrmSize, LlamaModel, LlmPhase, Workload};
use npu_power::GatingParams;
use npu_sim::{analysis, Simulator, ValidationReport};
use regate::experiments::{parallel_evaluation_sweep, setpm_rate};
use regate_bench::{pct, section};

/// Compiles one workload × chip-count configuration, runs the static
/// deployment pass on it and aborts on any Deny diagnostic: a graph the
/// analyzer rejects would produce numbers no figure should trust.
fn verify_deployment(
    workload: &Workload,
    num_chips: usize,
    label: &str,
) -> (ChipConfig, CompiledGraph) {
    let chip = ChipConfig::new(NpuGeneration::D, num_chips);
    let parallelism = workload
        .default_parallelism(chip.spec(), num_chips)
        .unwrap_or(ParallelismConfig::new(num_chips, 1, 1));
    let compiled = Compiler::new(chip.spec().clone()).compile(&workload.build_graph(&parallelism));
    let report =
        analysis::analyze_deployment(&compiled, chip.spec(), Some(&GatingParams::default()));
    assert!(
        report.is_schedulable(),
        "static analysis denied configuration '{label}':\n{}",
        report.render()
    );
    (chip, compiled)
}

/// How much of the figure set to regenerate.
#[derive(Clone, Copy, PartialEq)]
enum Scale {
    /// Minimal subset: the CI smoke run.
    Quick,
    /// Representative subset with modest chip counts (the default).
    Default,
    /// The exact Table 4 chip counts.
    Full,
}

fn eval_set(scale: Scale) -> Vec<npu_models::EvalConfig> {
    match scale {
        Scale::Full => npu_models::EvalConfig::all(),
        Scale::Default => vec![
            npu_models::EvalConfig::llm(LlamaModel::Llama3_8B, LlmPhase::Training),
            npu_models::EvalConfig::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill),
            npu_models::EvalConfig::llm(LlamaModel::Llama2_13B, LlmPhase::Decode),
            npu_models::EvalConfig::llm(LlamaModel::Llama3_70B, LlmPhase::Training),
            npu_models::EvalConfig::dlrm(DlrmSize::Small),
            npu_models::EvalConfig::dlrm(DlrmSize::Large),
        ],
        Scale::Quick => vec![
            npu_models::EvalConfig::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill),
            npu_models::EvalConfig::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            npu_models::EvalConfig::dlrm(DlrmSize::Small),
        ],
    }
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--full") {
        Scale::Full
    } else if std::env::args().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Default
    };

    section("Static analysis: verifying every configuration before simulation");
    let configs = eval_set(scale);
    for config in &configs {
        let _ = verify_deployment(&config.workload, config.num_chips, &config.workload.label());
    }
    println!("{} Table 4 configuration(s) verified: zero Deny diagnostics", configs.len());

    section("Figure 16: simulator validation vs. analytical roofline");
    let validation_set: Vec<(Workload, &str)> = if scale == Scale::Quick {
        vec![(Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Decode), "Llama2-13B Decode")]
    } else {
        vec![
            (Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill), "Llama2-13B Prefill"),
            (Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Decode), "Llama2-13B Decode"),
            (Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Prefill), "Llama3-70B Prefill"),
            (Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Decode), "Llama3-70B Decode"),
        ]
    };
    for (workload, label) in validation_set {
        let (chip, compiled) = verify_deployment(&workload, 8, label);
        let result = Simulator::new(chip.clone()).run(&compiled);
        let report = ValidationReport::for_simulation(&result, chip.spec());
        let hidden = result.serial_cycles().saturating_sub(result.total_cycles());
        println!(
            "{:<22} R^2 = {:.4}  (n = {} operators, mean sim/ref ratio {:.3}, \
             DMA overlap hides {} of the serial time)",
            label,
            report.r_squared,
            report.points.len(),
            report.mean_ratio,
            pct(hidden as f64 / result.serial_cycles().max(1) as f64),
        );
        assert!(
            result.total_cycles() <= result.serial_cycles(),
            "{label}: overlapped makespan exceeds the serial sum"
        );
    }

    let configs = eval_set(scale);

    section("Figure 17: energy savings vs NoPG");
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "workload", "chips", "Base", "HW", "Full", "Ideal"
    );
    // One worker thread per workload; each evaluates every design point.
    let sweep = parallel_evaluation_sweep(&configs, &[NpuGeneration::D]);
    let rows: Vec<_> = sweep.into_iter().map(|mut per_gen| per_gen.remove(0)).collect();
    for row in &rows {
        println!(
            "{:<28} {:>6} {:>12} {:>12} {:>12} {:>12}",
            row.workload,
            row.num_chips,
            pct(row.energy_savings[0].1),
            pct(row.energy_savings[1].1),
            pct(row.energy_savings[2].1),
            pct(row.energy_savings[3].1),
        );
    }

    section("Figure 17 (stacking): ReGate-Full savings by component");
    for row in &rows {
        let parts: Vec<String> = row
            .full_savings_breakdown
            .iter()
            .filter(|(_, v)| v.abs() > 5e-4)
            .map(|(k, v)| format!("{k} {}", pct(*v)))
            .collect();
        println!("{:<28} {}", row.workload, parts.join("  "));
    }

    section("Figure 18: average / peak power per chip (W)");
    println!("{:<28} {:>16} {:>16}", "workload", "avg NoPG→Full", "peak NoPG→Full");
    for row in &rows {
        println!(
            "{:<28} {:>7.1} → {:<7.1} {:>7.1} → {:<7.1}",
            row.workload,
            row.average_power_w[0].1,
            row.average_power_w[3].1,
            row.peak_power_w[0].1,
            row.peak_power_w[3].1,
        );
    }

    section("Figure 19: performance overhead");
    println!("{:<28} {:>10} {:>10} {:>10}", "workload", "Base", "HW", "Full");
    for row in &rows {
        println!(
            "{:<28} {:>10} {:>10} {:>10}",
            row.workload,
            pct(row.performance_overhead[0].1),
            pct(row.performance_overhead[1].1),
            pct(row.performance_overhead[2].1),
        );
    }

    section("Figure 20: setpm instructions per 1,000 cycles (VU, ReGate-Full)");
    let setpm_set: Vec<(Workload, usize)> = if scale == Scale::Quick {
        vec![(Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill), 1)]
    } else {
        vec![
            (Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Training), 4),
            (Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill), 1),
            (Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Decode), 1),
            (Workload::dlrm(DlrmSize::Medium), 8),
        ]
    };
    for (workload, chips) in setpm_set {
        let rate = setpm_rate(&workload, NpuGeneration::D, chips);
        println!("{:<28} {:>9.2e} setpm / 1k cycles", workload.label(), rate);
    }
}
