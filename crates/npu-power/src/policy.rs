//! Pluggable power-management policies over the idle-interval walk.
//!
//! ReGate's Base/HW/Full designs price every idle interval with one fixed
//! rule: below the break-even time the component stays on, at or above it
//! the component gates and pays an entry cost at full power plus residual
//! leakage ([`IntervalGating::entry_cycles`]). That rule is one point in a
//! much larger power-management design space. This module abstracts the
//! per-component walk behind the [`PowerPolicy`] trait so the same
//! interval-accurate timeline can price alternative strategies head to
//! head:
//!
//! * [`IntervalGating`] — the ReGate walk itself, parameterized by BET,
//!   transition delay, residual leakage, and wake-up stall exposure. It is
//!   the only code that decides whether an idle interval gates and what it
//!   costs: the other interval policies, the gating-consistency rules and
//!   the power waveform ([`PowerTimeline`](crate::PowerTimeline)) all call
//!   it;
//! * [`ClockGating`] — AUTOGATE-style clock gating: near-zero transition
//!   cost and no exposed latency, but only the clock-tree (dynamic) share
//!   of idle power is saved — leakage is untouched;
//! * [`DvfsScaling`] — race-to-idle DVFS: idle intervals are spent at a
//!   reduced voltage/frequency point, scaling their cost by a constant
//!   factor instead of emptying them;
//! * [`TileGrainRegating`] — the paper's Figure 19 edge: ReGate-Base with
//!   tile-granular re-gating inside bursts, trading extra transition
//!   energy for a much smaller exposed wake-up delay;
//! * [`WriteBackGating`] — a contents-aware SRAM power-off that charges
//!   dirty-segment write-back to HBM before cutting power;
//! * [`NoGating`] / [`IdealOff`] — the two bracketing baselines.
//!
//! Policies self-report configuration mistakes via
//! [`PowerPolicy::consistency`]; `npu_sim::analysis` maps those findings
//! onto its `policy.*` rule family.

use serde::{Deserialize, Serialize};

use crate::gating::{GatePolicy, GatingParams};

/// Result of pricing one component's idle intervals under one policy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PolicyWalk {
    /// Equivalent full-power cycles charged for all idle intervals.
    pub equivalent_cycles: f64,
    /// Execution-time stall cycles exposed by wake-ups on intervals that
    /// are followed by more work.
    pub wake_stall_cycles: f64,
    /// Number of intervals the policy acted on (gated, slept, or scaled).
    pub gated_intervals: u64,
}

/// One configuration-consistency finding reported by a policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyInconsistency {
    /// Which rule family the finding belongs to.
    pub rule: PolicyRule,
    /// Human-readable description of the inconsistency.
    pub message: String,
}

/// Rule families for policy-configuration findings, mirrored as
/// `policy.*` diagnostics by `npu_sim::analysis`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyRule {
    /// A DVFS scale factor outside `(0, 1]` — it must shrink (or at worst
    /// preserve) the interval cost, and a zero scale would claim free
    /// idleness.
    ScaleOutOfRange,
    /// A clock-gating residual outside `[0, 1]` — the surviving fraction
    /// of idle power cannot be negative or exceed the ungated cost.
    ResidualOutOfRange,
    /// A write-back cost inconsistent with the segment size, streaming
    /// bandwidth, or break-even time.
    WritebackInconsistent,
    /// A transition-cost configuration that contradicts the hardware
    /// structure it models (e.g. a tile waking slower than the full
    /// array it is a fraction of).
    TransitionInconsistent,
}

/// A per-component idle-interval pricing strategy.
///
/// Implementations receive the component's idle intervals twice: `all`
/// holds every interval, `waking` only the subset that is followed by more
/// work on the timeline (an interval that runs to the end of the trace
/// never has to wake anything up). Both slices are in timeline order.
pub trait PowerPolicy: std::fmt::Debug {
    /// Short human-readable name for tables and diagnostics.
    fn label(&self) -> String;

    /// Prices the idle intervals and the wake-up stalls they expose.
    fn walk_intervals(&self, all: &[u64], waking: &[u64]) -> PolicyWalk;

    /// Configuration-consistency findings (empty when well-formed).
    fn consistency(&self) -> Vec<PolicyInconsistency> {
        Vec::new()
    }
}

/// Counts the intervals in `lens` long enough to gate at `bet`.
fn gated_count(lens: &[u64], bet: u64) -> u64 {
    lens.iter().filter(|&&len| GatingParams::gates_interval(bet, len)).count() as u64
}

/// Keep everything powered: idle intervals cost their full length and no
/// wake-ups are ever needed. The NoPG baseline as a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NoGating;

impl PowerPolicy for NoGating {
    fn label(&self) -> String {
        "no-gating".into()
    }

    fn walk_intervals(&self, all: &[u64], _waking: &[u64]) -> PolicyWalk {
        PolicyWalk {
            equivalent_cycles: all.iter().sum::<u64>() as f64,
            wake_stall_cycles: 0.0,
            gated_intervals: 0,
        }
    }
}

/// Oracle gating: every idle interval costs nothing and transitions are
/// free. The Ideal upper bound as a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IdealOff;

impl PowerPolicy for IdealOff {
    fn label(&self) -> String {
        "ideal-off".into()
    }

    fn walk_intervals(&self, all: &[u64], _waking: &[u64]) -> PolicyWalk {
        PolicyWalk {
            equivalent_cycles: 0.0,
            wake_stall_cycles: 0.0,
            gated_intervals: all.len() as u64,
        }
    }
}

/// The ReGate idle-interval rule as a [`PowerPolicy`].
///
/// The walk prices intervals at (`bet`, `delay`, `leak`, `policy`); the
/// stall model is separate because the systolic array walks at PE-level
/// parameters while only *full-array* wake-ups stall the pipeline: waking
/// intervals at or above `stall_bet` each expose
/// `stall_delay × wake_exposure` cycles (`wake_exposure` models partial
/// overlap with execution, e.g. 0.5 for ICI and 0.25 for DMA wake-ups).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalGating {
    /// Break-even time of the gating transition pair, in cycles.
    pub bet: u64,
    /// Power-down/up delay, in cycles.
    pub delay: u64,
    /// Residual leakage while gated, as a fraction of full static power.
    pub leak: f64,
    /// How intervals are recognized and entered.
    pub policy: GatePolicy,
    /// Waking intervals at or above this length stall the pipeline.
    pub stall_bet: u64,
    /// Stall cycles charged per stalling wake-up.
    pub stall_delay: u64,
    /// Fraction of each wake-up delay exposed on the critical path.
    pub wake_exposure: f64,
}

impl IntervalGating {
    /// A walk whose wake-ups stall at its own break-even time and delay.
    #[must_use]
    pub fn new(bet: u64, delay: u64, leak: f64, policy: GatePolicy, wake_exposure: f64) -> Self {
        IntervalGating {
            bet,
            delay,
            leak,
            policy,
            stall_bet: bet,
            stall_delay: delay,
            wake_exposure,
        }
    }

    /// Full-power cycles one idle interval of `len` cycles spends entering
    /// the gated state, or `None` when the interval is below the
    /// break-even time and the component stays on
    /// ([`GatingParams::gates_interval`] — the boundary is inclusive).
    #[must_use]
    pub fn entry_cycles(&self, len: u64) -> Option<f64> {
        if !GatingParams::gates_interval(self.bet, len) {
            return None;
        }
        let len = len as f64;
        Some(match self.policy {
            // Hardware idle detection must *observe* idleness before
            // committing: the detection window (a third of the BET, as in
            // the synthesized prototype's counter configuration) is spent
            // at full power.
            GatePolicy::IdleDetect => (self.bet as f64 / 3.0).min(len),
            // The compiler knows the interval bounds exactly and issues
            // `setpm off` at its start and `setpm on` ahead of the next
            // use; both transitions burn full power but no window.
            GatePolicy::CompilerDirected => (2.0 * self.delay as f64).min(len),
        })
    }

    /// Equivalent full-power cycles of one idle interval of `len` cycles:
    /// its full length when it stays on, otherwise the entry cost at full
    /// power plus the remainder at the residual leakage.
    #[must_use]
    pub fn interval_cycles(&self, len: u64) -> f64 {
        let len_f = len as f64;
        self.entry_cycles(len).map_or(len_f, |entry| entry + (len_f - entry) * self.leak)
    }
}

impl PowerPolicy for IntervalGating {
    fn label(&self) -> String {
        format!("interval-gating(bet={}, delay={})", self.bet, self.delay)
    }

    fn walk_intervals(&self, all: &[u64], waking: &[u64]) -> PolicyWalk {
        let mut walk = PolicyWalk::default();
        for &len in all {
            walk.equivalent_cycles += self.interval_cycles(len);
            walk.gated_intervals += u64::from(GatingParams::gates_interval(self.bet, len));
        }
        let wakeups = gated_count(waking, self.stall_bet);
        walk.wake_stall_cycles = wakeups as f64 * self.stall_delay as f64 * self.wake_exposure;
        walk
    }
}

/// AUTOGATE-style clock gating: the clock tree stops toggling the moment a
/// component goes idle and restarts instantly, so there is no break-even
/// time and no exposed wake-up latency. Only the clock/dynamic share of
/// idle power is saved — the cells keep leaking — so every idle cycle
/// still costs `residual` equivalent full-power cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockGating {
    /// Fraction of idle power that survives clock gating (the leakage
    /// share; the saved complement is the clock-tree dynamic share).
    pub residual: f64,
}

impl PowerPolicy for ClockGating {
    fn label(&self) -> String {
        format!("clock-gating(residual={})", self.residual)
    }

    fn walk_intervals(&self, all: &[u64], _waking: &[u64]) -> PolicyWalk {
        PolicyWalk {
            equivalent_cycles: all.iter().sum::<u64>() as f64 * self.residual,
            wake_stall_cycles: 0.0,
            gated_intervals: all.len() as u64,
        }
    }

    fn consistency(&self) -> Vec<PolicyInconsistency> {
        let mut findings = Vec::new();
        if !(0.0..=1.0).contains(&self.residual) {
            findings.push(PolicyInconsistency {
                rule: PolicyRule::ResidualOutOfRange,
                message: format!(
                    "clock-gating residual {} outside [0, 1]: the surviving idle-power \
                     fraction cannot be negative or exceed the ungated cost",
                    self.residual
                ),
            });
        }
        findings
    }
}

/// Race-to-idle DVFS: idle intervals are spent at a reduced
/// voltage/frequency point instead of being gated, scaling their cost by
/// `scale` (covering both the frequency drop and the leakage reduction at
/// the lower voltage). No transition cost and no exposed latency — the
/// voltage ramp is assumed to hide under the idle interval itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvfsScaling {
    /// Idle-interval cost multiplier in `(0, 1]`.
    pub scale: f64,
}

impl PowerPolicy for DvfsScaling {
    fn label(&self) -> String {
        format!("dvfs(scale={})", self.scale)
    }

    fn walk_intervals(&self, all: &[u64], _waking: &[u64]) -> PolicyWalk {
        PolicyWalk {
            equivalent_cycles: all.iter().sum::<u64>() as f64 * self.scale,
            wake_stall_cycles: 0.0,
            gated_intervals: all.len() as u64,
        }
    }

    fn consistency(&self) -> Vec<PolicyInconsistency> {
        let mut findings = Vec::new();
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            findings.push(PolicyInconsistency {
                rule: PolicyRule::ScaleOutOfRange,
                message: format!(
                    "DVFS scale factor {} outside (0, 1]: a zero or negative scale claims \
                     free idleness and a scale above 1 makes DVFS worse than doing nothing",
                    self.scale
                ),
            });
        }
        findings
    }
}

/// ReGate-Base with tile-granular re-gating inside bursts (the overhead
/// edge the paper leaves open in Figure 19).
///
/// Plain Base gates the whole systolic array per idle interval and exposes
/// the full-array wake-up `delay` on every wake. The tile-grain variant
/// keeps the array-level decision (same `bet`/`delay`/`leak` walk) but
/// wakes tiles incrementally as the burst front advances, so:
///
/// * only `tile_delay` cycles (one tile's wake) are exposed per waking
///   interval instead of the full-array `delay`, and
/// * each gated interval pays one extra `2 × tile_delay` transition pair
///   of equivalent full-power cycles for the re-gate sweep at the burst
///   edge.
///
/// Net effect: wake-up overhead drops sharply, energy rises slightly —
/// exactly the trade Figure 19 prices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileGrainRegating {
    /// Full-array break-even time, in cycles.
    pub bet: u64,
    /// Full-array power-down/up delay, in cycles.
    pub delay: u64,
    /// Residual leakage while gated.
    pub leak: f64,
    /// Wake delay of a single tile (PE column group), in cycles.
    pub tile_delay: u64,
}

impl PowerPolicy for TileGrainRegating {
    fn label(&self) -> String {
        format!("tile-grain-regating(bet={}, tile_delay={})", self.bet, self.tile_delay)
    }

    fn walk_intervals(&self, all: &[u64], waking: &[u64]) -> PolicyWalk {
        let array =
            IntervalGating::new(self.bet, self.delay, self.leak, GatePolicy::IdleDetect, 1.0);
        let mut walk = PolicyWalk::default();
        for &len in all {
            walk.equivalent_cycles += array.interval_cycles(len);
            if GatingParams::gates_interval(self.bet, len) {
                walk.gated_intervals += 1;
                // The re-gate sweep at the burst edge: tiles power back
                // down behind the advancing front and wake again ahead of
                // it, one extra transition pair per gated interval.
                walk.equivalent_cycles += 2.0 * self.tile_delay as f64;
            }
        }
        walk.wake_stall_cycles = (gated_count(waking, self.bet) * self.tile_delay) as f64;
        walk
    }

    fn consistency(&self) -> Vec<PolicyInconsistency> {
        let mut findings = Vec::new();
        if self.tile_delay > self.delay {
            findings.push(PolicyInconsistency {
                rule: PolicyRule::TransitionInconsistent,
                message: format!(
                    "tile wake delay {} exceeds the full-array delay {}: a tile is a \
                     fraction of the array and must wake no slower than all of it",
                    self.tile_delay, self.delay
                ),
            });
        }
        findings
    }
}

/// Contents-aware SRAM power-off: before a segment powers down, its dirty
/// contents are written back to HBM so nothing is lost, removing the
/// compiler's "only gate provably-dead segments" restriction.
///
/// Each gated interval pays `2 × delay + writeback_cycles` of equivalent
/// full-power cycles up front (the transition pair plus the write-back
/// stream), capped at the interval length, then leaks at `leak`. Wake-ups
/// restore contents lazily on demand, off the critical path, so no stall
/// cycles are exposed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WriteBackGating {
    /// Break-even time, in cycles. Must amortize the full entry cost.
    pub bet: u64,
    /// Power-down/up delay of the SRAM segment, in cycles.
    pub delay: u64,
    /// Residual leakage of the powered-off cells.
    pub leak: f64,
    /// Cycles to stream one segment's contents to HBM.
    pub writeback_cycles: u64,
    /// Segment size in bytes (for consistency checking).
    pub segment_bytes: u64,
    /// HBM streaming bandwidth in bytes per cycle (for consistency
    /// checking).
    pub bytes_per_cycle: f64,
}

impl WriteBackGating {
    /// Builds a write-back policy for `segment_bytes`-sized segments from
    /// the Table 3 off-mode parameters, deriving the write-back cost from
    /// the streaming bandwidth and stretching the BET until it amortizes
    /// the full entry cost.
    #[must_use]
    pub fn for_segment(params: &GatingParams, segment_bytes: u64, bytes_per_cycle: f64) -> Self {
        let writeback_cycles = (segment_bytes as f64 / bytes_per_cycle).ceil() as u64;
        let entry = 2 * params.sram_off_delay + writeback_cycles;
        Self {
            bet: params.sram_off_bet.max(entry + 1),
            delay: params.sram_off_delay,
            leak: params.leakage.sram_off,
            writeback_cycles,
            segment_bytes,
            bytes_per_cycle,
        }
    }
}

impl PowerPolicy for WriteBackGating {
    fn label(&self) -> String {
        format!("writeback-gating(bet={}, writeback={})", self.bet, self.writeback_cycles)
    }

    fn walk_intervals(&self, all: &[u64], _waking: &[u64]) -> PolicyWalk {
        let mut walk = PolicyWalk::default();
        for &len in all {
            let len_f = len as f64;
            if !GatingParams::gates_interval(self.bet, len) {
                walk.equivalent_cycles += len_f;
                continue;
            }
            walk.gated_intervals += 1;
            let entry = ((2 * self.delay + self.writeback_cycles) as f64).min(len_f);
            walk.equivalent_cycles += entry + (len_f - entry) * self.leak;
        }
        walk
    }

    fn consistency(&self) -> Vec<PolicyInconsistency> {
        let mut findings = Vec::new();
        let streaming_cycles = self.segment_bytes as f64 / self.bytes_per_cycle;
        if (self.writeback_cycles as f64) < streaming_cycles {
            findings.push(PolicyInconsistency {
                rule: PolicyRule::WritebackInconsistent,
                message: format!(
                    "write-back cost {} cycles cannot stream a {}-byte segment at {} B/cycle \
                     (needs at least {:.0} cycles)",
                    self.writeback_cycles,
                    self.segment_bytes,
                    self.bytes_per_cycle,
                    streaming_cycles.ceil()
                ),
            });
        }
        let entry = 2 * self.delay + self.writeback_cycles;
        if self.bet <= entry {
            findings.push(PolicyInconsistency {
                rule: PolicyRule::WritebackInconsistent,
                message: format!(
                    "break-even time {} does not amortize the entry cost {} (2 x delay {} + \
                     write-back {}): gating at the BET would cost more than staying on",
                    self.bet, entry, self.delay, self.writeback_cycles
                ),
            });
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERVALS: [u64; 4] = [3, 50, 500, 10_000];

    #[test]
    fn no_gating_charges_full_idle_and_never_stalls() {
        let walk = NoGating.walk_intervals(&INTERVALS, &INTERVALS);
        assert_eq!(walk.equivalent_cycles, 10_553.0);
        assert_eq!(walk.wake_stall_cycles, 0.0);
        assert_eq!(walk.gated_intervals, 0);
    }

    #[test]
    fn ideal_off_charges_nothing() {
        let walk = IdealOff.walk_intervals(&INTERVALS, &INTERVALS);
        assert_eq!(walk.equivalent_cycles, 0.0);
        assert_eq!(walk.wake_stall_cycles, 0.0);
        assert_eq!(walk.gated_intervals, INTERVALS.len() as u64);
    }

    #[test]
    fn interval_gating_matches_the_raw_walk_and_prices_stalls_separately() {
        let policy = IntervalGating {
            stall_bet: 400,
            ..IntervalGating::new(100, 10, 0.03, GatePolicy::IdleDetect, 0.5)
        };
        // 3 and 50 stay on; 500 and 10 000 pay the 100/3-cycle detection
        // window, then leak at 3%.
        let window = 100.0 / 3.0;
        let raw = 3.0 + 50.0 + (window + (500.0 - window) * 0.03);
        let raw = raw + (window + (10_000.0 - window) * 0.03);
        let walk = policy.walk_intervals(&INTERVALS, &INTERVALS);
        assert_eq!(walk.equivalent_cycles, raw);
        assert_eq!(walk.gated_intervals, 2);
        // Two waking intervals (500 and 10 000) reach the stall BET of 400;
        // each exposes half of the 10-cycle delay.
        assert_eq!(walk.wake_stall_cycles, 2.0 * 10.0 * 0.5);
    }

    #[test]
    fn clock_gating_scales_idle_by_the_residual_with_zero_stall() {
        let policy = ClockGating { residual: 0.55 };
        let walk = policy.walk_intervals(&INTERVALS, &INTERVALS);
        assert_eq!(walk.equivalent_cycles, 10_553.0 * 0.55);
        assert_eq!(walk.wake_stall_cycles, 0.0);
        assert!(policy.consistency().is_empty());
        assert_eq!(
            ClockGating { residual: 1.5 }.consistency()[0].rule,
            PolicyRule::ResidualOutOfRange
        );
        assert_eq!(
            ClockGating { residual: -0.1 }.consistency()[0].rule,
            PolicyRule::ResidualOutOfRange
        );
    }

    #[test]
    fn dvfs_scales_idle_and_rejects_out_of_range_factors() {
        let policy = DvfsScaling { scale: 0.6 };
        let walk = policy.walk_intervals(&INTERVALS, &INTERVALS);
        assert_eq!(walk.equivalent_cycles, 10_553.0 * 0.6);
        assert!(policy.consistency().is_empty());
        assert_eq!(DvfsScaling { scale: 0.0 }.consistency()[0].rule, PolicyRule::ScaleOutOfRange);
        assert_eq!(DvfsScaling { scale: 1.5 }.consistency()[0].rule, PolicyRule::ScaleOutOfRange);
    }

    #[test]
    fn tile_grain_exposes_tile_delay_but_pays_extra_transitions() {
        let full = IntervalGating::new(469, 10, 0.03, GatePolicy::IdleDetect, 1.0);
        let tile = TileGrainRegating { bet: 469, delay: 10, leak: 0.03, tile_delay: 1 };
        let full_walk = full.walk_intervals(&INTERVALS, &INTERVALS);
        let tile_walk = tile.walk_intervals(&INTERVALS, &INTERVALS);
        // Two intervals gate (500, 10 000): the tile-grain variant pays an
        // extra 2 x tile_delay each but stalls at 1 cycle per wake instead
        // of 10.
        assert_eq!(tile_walk.gated_intervals, full_walk.gated_intervals);
        assert_eq!(tile_walk.equivalent_cycles, full_walk.equivalent_cycles + 2.0 * 2.0);
        assert_eq!(full_walk.wake_stall_cycles, 20.0);
        assert_eq!(tile_walk.wake_stall_cycles, 2.0);
        assert!(tile.consistency().is_empty());
        assert!(!TileGrainRegating { bet: 469, delay: 1, leak: 0.03, tile_delay: 10 }
            .consistency()
            .is_empty());
    }

    #[test]
    fn writeback_gating_charges_the_writeback_before_the_off_leak() {
        let params = GatingParams::default();
        let policy = WriteBackGating::for_segment(&params, 4096, 64.0);
        assert_eq!(policy.writeback_cycles, 64);
        assert!(policy.consistency().is_empty());
        // The entry cost (2 x 10 + 64 = 84) exceeds the Table 3 off BET of
        // 82, so `for_segment` stretches the BET to 85.
        assert_eq!(policy.bet, 85);

        // A short gated interval is capped at its own length.
        let short = policy.walk_intervals(&[policy.bet], &[]);
        let entry = (2 * policy.delay + policy.writeback_cycles) as f64;
        assert_eq!(short.equivalent_cycles, entry + (policy.bet as f64 - entry) * policy.leak);
        // Sub-BET intervals stay powered at full cost.
        let sub = policy.walk_intervals(&[policy.bet - 1], &[]);
        assert_eq!(sub.equivalent_cycles, (policy.bet - 1) as f64);
        // No stalls: restore is lazy and off the critical path.
        assert_eq!(short.wake_stall_cycles, 0.0);
    }

    #[test]
    fn writeback_consistency_catches_understated_costs() {
        let inconsistent = WriteBackGating {
            bet: 1_000,
            delay: 10,
            leak: 0.002,
            writeback_cycles: 8,
            segment_bytes: 4096,
            bytes_per_cycle: 64.0,
        };
        let findings = inconsistent.consistency();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, PolicyRule::WritebackInconsistent);

        let unamortized = WriteBackGating {
            bet: 80,
            delay: 10,
            leak: 0.002,
            writeback_cycles: 64,
            segment_bytes: 4096,
            bytes_per_cycle: 64.0,
        };
        assert!(unamortized
            .consistency()
            .iter()
            .any(|f| f.rule == PolicyRule::WritebackInconsistent));
    }
}
