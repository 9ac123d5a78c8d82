//! Simulator validation against an analytical reference model.
//!
//! The paper validates its simulator against real TPUv4 chips and reports a
//! Pearson correlation (R²) above 0.97 between profiled and simulated
//! execution times (Figure 16). Real TPU hardware is not available to this
//! reproduction, so the reference here is a closed-form roofline model: the
//! execution time of an operator is bounded below by its compute time at
//! peak FLOP/s, its HBM transfer time at peak bandwidth, and its ICI
//! transfer time. The validation report computes the same R² statistic
//! between the simulator's per-operator times and the roofline times.

use serde::{Deserialize, Serialize};

use npu_arch::NpuSpec;

use crate::engine::SimulationResult;

/// One validation point: reference (roofline) versus simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationPoint {
    /// Reference execution time in microseconds.
    pub reference_us: f64,
    /// Simulated execution time in microseconds.
    pub simulated_us: f64,
}

/// A set of validation points plus the derived correlation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// The individual scatter points (one per operator).
    pub points: Vec<ValidationPoint>,
    /// Pearson correlation coefficient squared (R²).
    pub r_squared: f64,
    /// Mean ratio of simulated over reference time.
    pub mean_ratio: f64,
}

impl ValidationReport {
    /// Builds the validation report for one simulation.
    #[must_use]
    pub fn for_simulation(result: &SimulationResult, spec: &NpuSpec) -> Self {
        let mut points = Vec::with_capacity(result.profiles().len());
        for p in result.profiles() {
            let compute_s = p.flops / spec.peak_flops();
            let memory_s = p.hbm_bytes as f64 / (spec.hbm_bandwidth_gbps * 1.0e9);
            let ici_s = p.ici_bytes as f64 / (spec.ici_total_gbps() * 1.0e9);
            let reference_s = compute_s.max(memory_s).max(ici_s).max(1e-9);
            // The roofline models an operator in isolation, so it is
            // compared against the operator's serial service time — its
            // global-clock span also contains scheduling stalls (waiting
            // for a producer while the prefetch already streamed), which a
            // per-operator profile on hardware would not attribute to the
            // operator either.
            let simulated_s = p.serial_duration_cycles as f64 / spec.frequency_hz();
            points.push(ValidationPoint {
                reference_us: reference_s * 1.0e6,
                simulated_us: simulated_s * 1.0e6,
            });
        }
        let r_squared = correlation_r2(
            &points.iter().map(|p| p.reference_us).collect::<Vec<_>>(),
            &points.iter().map(|p| p.simulated_us).collect::<Vec<_>>(),
        );
        let mean_ratio = if points.is_empty() {
            0.0
        } else {
            points.iter().map(|p| p.simulated_us / p.reference_us.max(1e-12)).sum::<f64>()
                / points.len() as f64
        };
        ValidationReport { points, r_squared, mean_ratio }
    }
}

/// Pearson correlation coefficient squared between two equally long series.
///
/// Returns 0.0 for series shorter than two points or with zero variance.
#[must_use]
pub fn correlation_r2(x: &[f64], y: &[f64]) -> f64 {
    if x.len() != y.len() || x.len() < 2 {
        return 0.0;
    }
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (&a, &b) in x.iter().zip(y.iter()) {
        cov += (a - mean_x) * (b - mean_y);
        var_x += (a - mean_x).powi(2);
        var_y += (b - mean_y).powi(2);
    }
    if var_x == 0.0 || var_y == 0.0 {
        return 0.0;
    }
    let r = cov / (var_x.sqrt() * var_y.sqrt());
    r * r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SramCapacityReport;
    use crate::engine::Simulator;
    use npu_arch::{ChipConfig, NpuGeneration, ParallelismConfig};
    use npu_compiler::Compiler;
    use npu_models::{LlamaModel, LlmPhase, Workload};

    #[test]
    fn perfect_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation_r2(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_and_degenerate_series() {
        assert_eq!(correlation_r2(&[1.0], &[1.0]), 0.0);
        assert_eq!(correlation_r2(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(correlation_r2(&[1.0, 2.0], &[1.0]), 0.0);
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        assert!((correlation_r2(&x, &y) - 1.0).abs() < 1e-12, "anti-correlation also has R²=1");
    }

    #[test]
    fn real_simulations_pass_the_sram_capacity_audit() {
        for wl in [
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill),
        ] {
            let chip = ChipConfig::new(NpuGeneration::D, 1);
            let graph = wl.build_graph(&ParallelismConfig::single());
            let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
            let result = Simulator::new(chip).run(&compiled);
            let report = SramCapacityReport::for_simulation(&result);
            assert!(
                report.is_ok(),
                "{wl}: peak {} / capacity {} with {} violations",
                report.peak_live_bytes,
                report.capacity_bytes,
                report.violations.len()
            );
            assert!(report.peak_live_bytes > 0, "{wl}: something must be live");
        }
    }

    #[test]
    fn simulator_correlates_with_roofline() {
        // Figure 16 substitute: the simulator should track the analytical
        // roofline model with high correlation for both compute-bound and
        // memory-bound workloads.
        for (wl, label) in [
            (Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill), "prefill"),
            (Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Decode), "decode"),
        ] {
            let chip = ChipConfig::new(NpuGeneration::D, 1);
            let graph = wl.build_graph(&ParallelismConfig::single());
            let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
            let result = Simulator::new(chip.clone()).run(&compiled);
            let report = ValidationReport::for_simulation(&result, chip.spec());
            assert!(
                report.r_squared > 0.9,
                "{label}: R² = {} below the paper's 0.97-level bar",
                report.r_squared
            );
            assert!(report.mean_ratio >= 1.0, "simulated time cannot beat the roofline");
            assert_eq!(report.points.len(), result.timings().len());
        }
    }
}
