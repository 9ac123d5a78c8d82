//! Per-operator records produced by the simulator: the release-independent
//! [`OpProfile`] of each executed (anchor) operator, built once when a
//! graph is prepared, and the per-run [`OpTiming`] span the schedule gives
//! it.

use serde::{Deserialize, Serialize};

use npu_models::ExecutionUnit;

/// Where one executed (anchor) operator sat on the global clock in one
/// run. Its static profile is the [`OpProfile`] at the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpTiming {
    /// First cycle (global clock) at which any phase of the operator —
    /// including its DMA prefetch — occupies hardware.
    pub start_cycle: u64,
    /// Cycle (global clock) at which the main compute/transfer phase is
    /// dispatched; never earlier than the producer's completion.
    pub compute_start_cycle: u64,
    /// Wall-clock duration of the operator in chip cycles: its occupancy
    /// span on the global clock, from `start_cycle` to completion.
    pub duration_cycles: u64,
}

impl OpTiming {
    /// Duration in seconds at the given clock frequency.
    #[must_use]
    pub fn duration_seconds(&self, frequency_hz: f64) -> f64 {
        self.duration_cycles as f64 / frequency_hz
    }
}

/// Release-independent profile of one executed (anchor) operator: what it
/// is, what it costs in isolation and what it moves. Identical for every
/// replay of a prepared graph, so all of them share one copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpProfile {
    /// Index of the operator in the compiled graph's anchor order.
    pub op_index: usize,
    /// Operator name.
    pub name: String,
    /// Execution unit the operator ran on.
    pub unit: ExecutionUnit,
    /// What the operator would cost in isolation on the old serial engine
    /// (intra-operator overlap only). The sum of these over a graph is the
    /// serial baseline the overlapped makespan is compared against.
    pub serial_duration_cycles: u64,
    /// Cycles during which at least one systolic array was computing.
    pub sa_active_cycles: u64,
    /// Average fraction of processing elements doing useful work while the
    /// systolic arrays were active (the paper's SA *spatial* utilization,
    /// Figure 5). Zero when the SA was unused.
    pub sa_spatial_utilization: f64,
    /// Cycles during which at least one vector unit was computing.
    pub vu_active_cycles: u64,
    /// Cycles during which the HBM interface / DMA engine was transferring.
    pub hbm_active_cycles: u64,
    /// Cycles during which the ICI links were transferring.
    pub ici_active_cycles: u64,
    /// Bytes moved over HBM by this operator.
    pub hbm_bytes: u64,
    /// Bytes moved over the ICI by this operator.
    pub ici_bytes: u64,
    /// Floating-point operations performed.
    pub flops: f64,
    /// SRAM bytes live (allocated) while the operator executed.
    pub sram_live_bytes: u64,
    /// SRAM demand of the operator in bytes (unbounded by capacity).
    pub sram_demand_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> OpTiming {
        OpTiming { start_cycle: 0, compute_start_cycle: 0, duration_cycles: 1000 }
    }

    #[test]
    fn duration_conversion() {
        let t = timing();
        assert!((t.duration_seconds(1e9) - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn zero_duration_is_handled() {
        let mut t = timing();
        t.duration_cycles = 0;
        assert_eq!(t.duration_seconds(1e9), 0.0);
    }
}
