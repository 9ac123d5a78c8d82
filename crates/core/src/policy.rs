//! Power-management policy selection for the evaluation engine.
//!
//! [`PolicyKind`] names a chip-wide power-management strategy; its
//! [`config`](PolicyKind::config) method expands the name into a
//! [`PolicyConfig`] — one [`npu_power::PowerPolicy`] per gateable
//! component plus the SRAM and out-of-duty-cycle leakage treatments — that
//! [`crate::Evaluator`] walks over the simulated timeline. The five ReGate
//! design points of the paper are expressed as *presets* of the same
//! machinery ([`PolicyKind::Preset`]), with bit-identical results to the
//! original hard-coded evaluation; the extended kinds price the
//! neighbouring design space (clock gating, DVFS, drowsy-everywhere,
//! tile-grain re-gating, contents-aware SRAM write-back) on the *same*
//! timeline so the comparison is apples to apples.

use serde::{Deserialize, Serialize};

use npu_arch::{ComponentKind, NpuSpec};
use npu_power::{
    ClockGating, DvfsScaling, GatePolicy, GatingParams, IdealOff, IntervalGating, NoGating,
    PolicyInconsistency, PowerPolicy, SramGateMode, TileGrainRegating, WriteBackGating,
};

use crate::designs::Design;

/// A named chip-wide power-management strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// One of the paper's named design points (NoPG, ReGate-Base/-HW/
    /// -Full, Ideal), evaluated with the original preset arithmetic.
    Preset(Design),
    /// AUTOGATE-style clock gating: the clock tree stops instantly on
    /// idleness at zero transition cost, saving the clock/dynamic share
    /// of idle power while leakage survives as `residual`.
    ClockGating {
        /// Fraction of idle power that survives (the leakage share).
        residual: f64,
    },
    /// Race-to-idle DVFS: idle intervals are spent at a reduced
    /// voltage/frequency point, scaling their cost by `scale` instead of
    /// emptying them. No transition cost, no exposed latency.
    Dvfs {
        /// Idle-interval cost multiplier in `(0, 1]`.
        scale: f64,
    },
    /// Data-retaining sleep on *every* gateable component: logic reuses
    /// the SRAM drowsy mode's short break-even time and residual, with
    /// wake-ups hidden under the access pipeline (no exposed latency,
    /// but a 25% residual instead of the 3% of a full power-off).
    DrowsyEverywhere,
    /// ReGate-Base with tile-granular re-gating *inside* bursts (the
    /// Figure 19 overhead edge), on the systolic array and the vector
    /// units: wake-ups expose one tile's delay instead of the full
    /// unit's, at the price of one extra transition pair per gated
    /// interval.
    TileGrainBase,
    /// ReGate-Full with a contents-aware SRAM power-off that streams
    /// dirty segments back to HBM before cutting power, lifting the
    /// "only provably-dead segments" restriction.
    ContentsAwareFull,
    /// ReGate-Full plus *chip-level* gating: intervals in which every
    /// tracked component of the chip is simultaneously idle (the
    /// pipeline-stage bubbles of multi-chip serving) gate the whole chip
    /// — including the peripheral logic per-component gating can never
    /// touch — at a conservative chip-level break-even time.
    WholeChipFull,
}

impl PolicyKind {
    /// The extended (non-preset) policies with their default parameters,
    /// in table order.
    pub const EXTENDED: [PolicyKind; 5] = [
        PolicyKind::ClockGating { residual: 0.55 },
        PolicyKind::Dvfs { scale: 0.6 },
        PolicyKind::DrowsyEverywhere,
        PolicyKind::TileGrainBase,
        PolicyKind::ContentsAwareFull,
    ];

    /// Short human-readable name for table rows.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            PolicyKind::Preset(design) => design.label().to_string(),
            PolicyKind::ClockGating { residual } => format!("ClockGate@{residual}"),
            PolicyKind::Dvfs { scale } => format!("DVFS@{scale}"),
            PolicyKind::DrowsyEverywhere => "Drowsy-All".to_string(),
            PolicyKind::TileGrainBase => "TileGrain-Base".to_string(),
            PolicyKind::ContentsAwareFull => "WriteBack-Full".to_string(),
            PolicyKind::WholeChipFull => "WholeChip-Full".to_string(),
        }
    }

    /// Expands the name into per-component policies for `gating`
    /// parameters on a chip described by `spec`.
    ///
    /// Every component walk takes its break-even time and delay from
    /// [`GatingParams::component_bet`] / [`GatingParams::component_delay`]
    /// (or, for SRAM, [`GatingParams::sram_mode_gating`]); the presets only
    /// choose how each walk is entered and how much of its wake-up stalls.
    #[must_use]
    pub fn config(self, gating: &GatingParams, spec: &NpuSpec) -> PolicyConfig {
        use ComponentKind::{Dma, Hbm, Ici, Sa, Vu};
        let leak = gating.leakage;
        let unit =
            |kind, policy, exposure| Box::new(gating.component_gating(kind, policy, exposure));
        // ReGate-Base/-HW/-Full: the SA walk, how the VU gates, the share
        // of each HBM/ICI/DMA wake-up exposed (the DMA engine wakes with
        // the HBM path it feeds), and the SRAM retention mode.
        let regate = |sa_active,
                      sa_idle: Box<dyn PowerPolicy>,
                      (vu_policy, vu_exposure),
                      io_exposure,
                      sram_mode| {
            let sram = gating.sram_mode_gating(sram_mode);
            PolicyConfig {
                kind: self,
                sa_active,
                sa_idle,
                vu: unit(Vu, vu_policy, vu_exposure),
                hbm: unit(Hbm, GatePolicy::IdleDetect, io_exposure),
                ici: unit(Ici, GatePolicy::IdleDetect, io_exposure),
                dma: unit(Dma, GatePolicy::IdleDetect, io_exposure),
                sram: SramPolicy::Walk(Box::new(sram)),
                whole_chip: None,
                idle_leak: IdleLeakModel::PerComponent { logic: leak.logic_off, sram: sram.leak },
            }
        };
        // The systolic array walks at PE-level parameters under HW/Full
        // but only *full-array* wake-ups (intervals past the full-array
        // BET) stall the pipeline — the diagonal wavefront hides the rest.
        let sa_pe_level = |policy| {
            Box::new(IntervalGating {
                stall_bet: gating.component_bet(Sa),
                ..IntervalGating::new(
                    gating.sa_pe_bet,
                    gating.sa_pe_delay,
                    leak.logic_off,
                    policy,
                    1.0,
                )
            })
        };
        // Every component under one policy; `sram_walks` walks the SRAM
        // with it too instead of keeping it at full power.
        let uniform =
            |policy: &dyn Fn() -> Box<dyn PowerPolicy>, sram_walks, idle_leak| PolicyConfig {
                kind: self,
                sa_active: SaActiveMode::FullPower,
                sa_idle: policy(),
                vu: policy(),
                hbm: policy(),
                ici: policy(),
                dma: policy(),
                sram: if sram_walks { SramPolicy::Walk(policy()) } else { SramPolicy::FullPower },
                whole_chip: None,
                idle_leak,
            };
        match self {
            PolicyKind::Preset(Design::NoPg) => {
                uniform(&|| Box::new(NoGating), false, IdleLeakModel::Baseline)
            }
            PolicyKind::Preset(Design::ReGateBase) => regate(
                SaActiveMode::FullPower,
                unit(Sa, GatePolicy::IdleDetect, 1.0),
                (GatePolicy::IdleDetect, 1.0),
                1.0,
                SramGateMode::Drowsy,
            ),
            PolicyKind::Preset(Design::ReGateHw) => regate(
                SaActiveMode::Spatial,
                sa_pe_level(GatePolicy::IdleDetect),
                (GatePolicy::IdleDetect, 1.0),
                0.5,
                SramGateMode::Drowsy,
            ),
            // `setpm on` is issued ahead of the next use, hiding the VU
            // wake-up behind the preceding instructions.
            PolicyKind::Preset(Design::ReGateFull) => regate(
                SaActiveMode::Spatial,
                sa_pe_level(GatePolicy::CompilerDirected),
                (GatePolicy::CompilerDirected, 0.0),
                0.25,
                SramGateMode::Off,
            ),
            PolicyKind::Preset(Design::Ideal) => PolicyConfig {
                sa_active: SaActiveMode::Utilization,
                ..uniform(&|| Box::new(IdealOff), true, IdleLeakModel::Zero)
            },
            // Clock gating cannot touch SRAM cell leakage: the scratchpad
            // stays at full static power.
            PolicyKind::ClockGating { residual } => uniform(
                &|| Box::new(ClockGating { residual }),
                false,
                IdleLeakModel::PerComponent { logic: residual, sram: 1.0 },
            ),
            PolicyKind::Dvfs { scale } => uniform(
                &|| Box::new(DvfsScaling { scale }),
                true,
                IdleLeakModel::PerComponent { logic: scale, sram: scale },
            ),
            // The SRAM drowsy walk on every component; its retention
            // wake-ups hide under the pipeline.
            PolicyKind::DrowsyEverywhere => {
                let drowsy = gating.sram_mode_gating(SramGateMode::Drowsy);
                uniform(
                    &|| Box::new(drowsy),
                    true,
                    IdleLeakModel::PerComponent { logic: drowsy.leak, sram: drowsy.leak },
                )
            }
            PolicyKind::TileGrainBase => {
                let mut config = PolicyKind::Preset(Design::ReGateBase).config(gating, spec);
                config.kind = self;
                let tile_grain = |kind, tile_delay| {
                    Box::new(TileGrainRegating {
                        bet: gating.component_bet(kind),
                        delay: gating.component_delay(kind),
                        leak: leak.logic_off,
                        tile_delay,
                    })
                };
                config.sa_idle = tile_grain(Sa, gating.sa_pe_delay);
                // Vector units re-gate per lane group: Table 3 has no
                // per-lane wake figure, so a tile wakes in half the
                // full-unit delay — decode traces, which never touch the
                // SA, see their Figure 19 overhead through this edge.
                config.vu = tile_grain(Vu, (gating.component_delay(Vu) / 2).max(1));
                config
            }
            PolicyKind::ContentsAwareFull => {
                let mut config = PolicyKind::Preset(Design::ReGateFull).config(gating, spec);
                config.kind = self;
                config.sram = SramPolicy::Walk(Box::new(WriteBackGating::for_segment(
                    gating,
                    spec.sram_geometry().segment_bytes(),
                    spec.hbm_bytes_per_cycle(),
                )));
                config
            }
            PolicyKind::WholeChipFull => {
                let mut config = PolicyKind::Preset(Design::ReGateFull).config(gating, spec);
                config.kind = self;
                // The uncore has no Table 3 row of its own: gating the
                // whole chip is priced conservatively at twice the
                // slowest component's break-even time and wake-up delay.
                let slowest = |figure: fn(&GatingParams, ComponentKind) -> u64| {
                    [Sa, Vu, Hbm, Ici]
                        .into_iter()
                        .map(|kind| figure(gating, kind))
                        .max()
                        .unwrap_or(0)
                };
                config.whole_chip = Some(Box::new(IntervalGating::new(
                    2 * slowest(GatingParams::component_bet),
                    2 * slowest(GatingParams::component_delay),
                    leak.logic_off,
                    GatePolicy::IdleDetect,
                    1.0,
                )));
                config
            }
        }
    }
}

/// How the systolic array's *active* (computing) periods are priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaActiveMode {
    /// The whole array burns full static power while any PE computes
    /// (component-level gating cannot exploit spatial underutilization).
    FullPower,
    /// PE-level spatial gating: padded rows/columns are off and the
    /// diagonal wavefront parks PEs in `W_on` outside the input wave.
    Spatial,
    /// Oracle: pay exactly the spatially-utilized PE fraction.
    Utilization,
}

/// How the SRAM scratchpad's per-segment dead intervals are priced.
#[derive(Debug)]
pub enum SramPolicy {
    /// Every segment stays at full static power for the whole run.
    FullPower,
    /// Dead intervals are walked by a policy (live intervals always burn
    /// full power).
    Walk(Box<dyn PowerPolicy>),
}

/// How the out-of-duty-cycle idle leakage (the idleness the simulated
/// window cannot see) is attributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IdleLeakModel {
    /// Full baseline idle leakage (nothing is gated between traces).
    Baseline,
    /// No idle leakage at all (the Ideal roofline).
    Zero,
    /// Baseline idle leakage scaled by each component's static-power
    /// share weighted with its own off-state residual.
    PerComponent {
        /// Residual of every non-SRAM component while the chip idles.
        logic: f64,
        /// Residual of the SRAM while the chip idles.
        sram: f64,
    },
}

/// Per-component power-management policies for one [`PolicyKind`].
#[derive(Debug)]
pub struct PolicyConfig {
    /// The kind this configuration was expanded from.
    pub kind: PolicyKind,
    /// Systolic-array active-period treatment.
    pub(crate) sa_active: SaActiveMode,
    /// Systolic-array idle-interval policy.
    pub(crate) sa_idle: Box<dyn PowerPolicy>,
    /// Vector-unit idle-interval policy.
    pub(crate) vu: Box<dyn PowerPolicy>,
    /// HBM-controller idle-interval policy.
    pub(crate) hbm: Box<dyn PowerPolicy>,
    /// ICI-controller idle-interval policy.
    pub(crate) ici: Box<dyn PowerPolicy>,
    /// DMA-engine idle-interval policy (wakes with the HBM path it feeds).
    pub(crate) dma: Box<dyn PowerPolicy>,
    /// SRAM per-segment dead-interval policy.
    pub(crate) sram: SramPolicy,
    /// Chip-level policy walking *whole-chip* idle intervals (every
    /// tracked component simultaneously quiet); `None` leaves the
    /// peripheral logic always on.
    pub(crate) whole_chip: Option<Box<dyn PowerPolicy>>,
    /// Out-of-duty-cycle leakage attribution.
    pub(crate) idle_leak: IdleLeakModel,
}

impl PolicyConfig {
    /// Every per-component policy in this configuration (for diagnostics
    /// and analyzer verification).
    #[must_use]
    pub fn component_policies(&self) -> Vec<&dyn PowerPolicy> {
        let mut out: Vec<&dyn PowerPolicy> = vec![
            self.sa_idle.as_ref(),
            self.vu.as_ref(),
            self.hbm.as_ref(),
            self.ici.as_ref(),
            self.dma.as_ref(),
        ];
        if let SramPolicy::Walk(policy) = &self.sram {
            out.push(policy.as_ref());
        }
        if let Some(policy) = &self.whole_chip {
            out.push(policy.as_ref());
        }
        out
    }

    /// Configuration-consistency findings across every component policy.
    #[must_use]
    pub fn consistency(&self) -> Vec<PolicyInconsistency> {
        self.component_policies().iter().flat_map(|policy| policy.consistency()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_arch::NpuGeneration;
    use npu_power::PolicyWalk;

    #[test]
    fn every_default_policy_configuration_is_consistent() {
        let gating = GatingParams::default();
        let spec = NpuSpec::generation(NpuGeneration::D);
        for design in Design::ALL {
            let config = PolicyKind::Preset(design).config(&gating, &spec);
            assert!(config.consistency().is_empty(), "{design}: inconsistent preset");
        }
        for kind in PolicyKind::EXTENDED {
            let config = kind.config(&gating, &spec);
            assert!(config.consistency().is_empty(), "{}: inconsistent config", kind.label());
        }
    }

    #[test]
    fn broken_parameterizations_are_reported() {
        let gating = GatingParams::default();
        let spec = NpuSpec::generation(NpuGeneration::D);
        let broken = PolicyKind::Dvfs { scale: 1.5 }.config(&gating, &spec);
        // Every component runs the same broken scale: one finding each.
        assert_eq!(broken.consistency().len(), 6);
        let broken = PolicyKind::ClockGating { residual: -0.2 }.config(&gating, &spec);
        assert_eq!(broken.consistency().len(), 5);
    }

    #[test]
    fn whole_chip_full_extends_regate_full_with_a_chip_policy() {
        let gating = GatingParams::default();
        let spec = NpuSpec::generation(NpuGeneration::D);
        let config = PolicyKind::WholeChipFull.config(&gating, &spec);
        assert!(config.whole_chip.is_some(), "chip-level policy must be armed");
        assert!(config.consistency().is_empty(), "WholeChip-Full: inconsistent config");
        // ReGate-Full's six component policies plus the chip-level walk.
        assert_eq!(config.component_policies().len(), 7);
        let full = PolicyKind::Preset(Design::ReGateFull).config(&gating, &spec);
        assert!(full.whole_chip.is_none(), "presets never gate the uncore");
        assert_eq!(PolicyKind::WholeChipFull.label(), "WholeChip-Full");
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<String> = Design::ALL
            .iter()
            .map(|&d| PolicyKind::Preset(d).label())
            .chain(PolicyKind::EXTENDED.iter().map(|k| k.label()))
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), Design::ALL.len() + PolicyKind::EXTENDED.len());
    }

    /// The SA idle walk `PolicyKind::Preset(design)` prices with.
    fn sa_walk(design: Design, intervals: &[u64], waking: &[u64]) -> PolicyWalk {
        let spec = NpuSpec::generation(NpuGeneration::D);
        let config = PolicyKind::Preset(design).config(&GatingParams::default(), &spec);
        config.sa_idle.walk_intervals(intervals, waking)
    }

    #[test]
    fn sa_interval_walk_orders_designs() {
        // A mix of short (below PE BET), medium (between PE and full-array
        // BET) and long intervals; all are followed by more SA work.
        let intervals = [10u64, 100, 300, 5000, 20_000];
        let params = GatingParams::default();
        let total: u64 = intervals.iter().sum();
        let nopg = sa_walk(Design::NoPg, &intervals, &intervals);
        let base = sa_walk(Design::ReGateBase, &intervals, &intervals);
        let hw = sa_walk(Design::ReGateHw, &intervals, &intervals);
        let full = sa_walk(Design::ReGateFull, &intervals, &intervals);
        let ideal = sa_walk(Design::Ideal, &intervals, &intervals);
        assert!((nopg.equivalent_cycles - total as f64).abs() < 1e-9);
        assert_eq!(nopg.wake_stall_cycles, 0.0);
        assert!(base.equivalent_cycles < nopg.equivalent_cycles);
        assert!(hw.equivalent_cycles < base.equivalent_cycles, "PE BET gates medium intervals");
        assert!(full.equivalent_cycles < hw.equivalent_cycles, "setpm avoids the window");
        assert_eq!(ideal.equivalent_cycles, 0.0);
        // Base exposes the full-array delay per gated interval; PE-level
        // designs expose a single PE delay on the two long intervals only.
        assert!((base.wake_stall_cycles - 2.0 * params.sa_full_delay as f64).abs() < 1e-9);
        assert!((hw.wake_stall_cycles - 2.0 * params.sa_pe_delay as f64).abs() < 1e-9);
        assert!(hw.wake_stall_cycles < base.wake_stall_cycles);
        assert_eq!(hw.wake_stall_cycles, full.wake_stall_cycles);
    }

    #[test]
    fn trailing_interval_exposes_no_wakeup() {
        // The last interval (20k cycles, ending at the makespan) gates for
        // energy but wakes nothing; an SA-less workload (single interval,
        // nothing waking) pays zero stalls entirely.
        let intervals = [5000u64, 20_000];
        let waking = [5000u64];
        let params = GatingParams::default();
        let base = sa_walk(Design::ReGateBase, &intervals, &waking);
        assert!((base.wake_stall_cycles - params.sa_full_delay as f64).abs() < 1e-9);
        let unused = sa_walk(Design::ReGateBase, &[100_000], &[]);
        assert_eq!(unused.wake_stall_cycles, 0.0);
        assert!(unused.equivalent_cycles < 100_000.0, "the idle energy is still recovered");
    }

    #[test]
    fn sa_interval_walk_ignores_fragmented_idleness_under_base() {
        // 100 × 100-cycle fragments: below the full-array BET (469), above
        // the PE BET (47). Base recovers nothing; HW recovers almost all.
        let intervals = vec![100u64; 100];
        let base = sa_walk(Design::ReGateBase, &intervals, &intervals);
        let hw = sa_walk(Design::ReGateHw, &intervals, &intervals);
        assert!((base.equivalent_cycles - 10_000.0).abs() < 1e-9, "Base stays at full power");
        assert!(hw.equivalent_cycles < 3_000.0, "PE-level gating recovers the fragments");
        assert_eq!(base.wake_stall_cycles, 0.0);
        assert_eq!(hw.wake_stall_cycles, 0.0, "W_on wavefront wake-ups are hidden");
    }
}
