//! Event-timeline scheduling: per-resource occupancy tracks, merged busy
//! intervals on the global clock, and the idle-interval statistics the
//! ReGate gating model consumes.
//!
//! The engine replaces the old serial anchor walk: every operator is split
//! into a DMA prefetch phase and a main (compute / gather / collective)
//! phase, each phase waits only on its *dependencies* — the operator's
//! producer, its input data, and its execution resource — and phases of
//! different operators overlap freely. HBM prefetch is double buffered:
//! while operator `k` computes, the DMA engine may already stream operator
//! `k+1`'s operands into the second SRAM buffer, and the prefetch of
//! operator `k+2` waits until operator `k` releases its buffer.
//!
//! The output is a [`Schedule`]: per-operator phase times plus a
//! [`BusyTimeline`] of merged `[start, end)` busy intervals per component
//! on the global clock. Gating analyses walk the *gaps* of that timeline
//! ([`BusyTimeline::idle_intervals`], [`IdleHistogram`]) instead of
//! aggregate busy-cycle counts, which is what makes break-even filtering
//! and wake-up latency hiding representable (paper §4–§6).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use npu_arch::ComponentKind;

use crate::events::{EventKind, EventQueue};
use crate::observer::{NullObserver, SimObserver};

/// The *kind* of a schedulable hardware resource with a single in-order
/// issue port. A [`ResourceSet`] instantiates one resource of each kind
/// per chip (plus one ICI resource per fabric link); the single-chip set
/// has exactly one instance of each, with dense ids in this enum's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Resource {
    /// The systolic arrays (issued as one gang).
    Sa,
    /// The vector units (issued as one gang).
    Vu,
    /// The HBM DMA queue (weight/activation streams and gathers).
    HbmDma,
    /// The inter-chip interconnect port of a chip (single-phase analytic
    /// collectives; per-hop collectives occupy link resources instead).
    Ici,
}

/// Dense index of one resource *instance* within a [`ResourceSet`] — the
/// key of the engine's `free_at` vector and per-resource busy tracks.
/// Replaces direct keying on the fixed [`Resource`] enum so a run can own
/// N chips' worth of units plus one resource per ICI link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// The id as a dense vector index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<Resource> for ResourceId {
    /// Single-chip mapping: ids `0..4` in [`Resource`] enum order — chip
    /// 0's unit of each kind in [`ResourceSet::single_chip`].
    fn from(kind: Resource) -> Self {
        ResourceId(kind as u32)
    }
}

/// Per-chip resource kinds, in dense-id order within each chip's block.
const CHIP_UNITS: [Resource; 4] = [Resource::Sa, Resource::Vu, Resource::HbmDma, Resource::Ici];

/// The resource instances one engine run schedules over: `num_chips`
/// blocks of per-chip units ([`Resource::Sa`], [`Resource::Vu`],
/// [`Resource::HbmDma`], [`Resource::Ici`] — ids `4c .. 4c+4`), followed
/// by one ICI resource per fabric link (ids `4 * num_chips + l`). The
/// layout is fully determined by the two counts, so the set is a tiny
/// `Copy` descriptor rather than a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceSet {
    num_chips: usize,
    num_links: usize,
}

impl ResourceSet {
    /// The pre-refactor single-chip set: one unit of each [`Resource`]
    /// kind, ids `0..4` in enum order, no link resources.
    #[must_use]
    pub fn single_chip() -> Self {
        ResourceSet { num_chips: 1, num_links: 0 }
    }

    /// A pod of `num_chips` chips over a fabric with `num_links` links.
    ///
    /// # Panics
    ///
    /// Panics if `num_chips` is zero.
    #[must_use]
    pub fn pod(num_chips: usize, num_links: usize) -> Self {
        assert!(num_chips > 0, "a resource set needs at least one chip");
        ResourceSet { num_chips, num_links }
    }

    /// Number of chips in the set.
    #[must_use]
    pub fn num_chips(&self) -> usize {
        self.num_chips
    }

    /// Number of fabric-link resources in the set.
    #[must_use]
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Total number of resource instances (`4 * chips + links`).
    #[must_use]
    pub fn num_resources(&self) -> usize {
        self.num_chips * CHIP_UNITS.len() + self.num_links
    }

    /// Whether `id` names a resource of this set.
    #[must_use]
    pub fn contains(&self, id: ResourceId) -> bool {
        id.index() < self.num_resources()
    }

    /// The id of one chip's unit of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    #[must_use]
    pub fn unit(&self, chip: usize, kind: Resource) -> ResourceId {
        assert!(chip < self.num_chips, "chip {chip} out of range ({} chips)", self.num_chips);
        ResourceId((chip * CHIP_UNITS.len() + kind as usize) as u32)
    }

    /// The id of one fabric link's resource.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn link(&self, link: usize) -> ResourceId {
        assert!(link < self.num_links, "link {link} out of range ({} links)", self.num_links);
        self.link_unchecked(link)
    }

    /// The id a fabric link *would* have, without range checking — used
    /// by fixture builders so the `topo.*` analyzer rules can flag
    /// out-of-range links instead of panicking during construction.
    #[must_use]
    pub fn link_unchecked(&self, link: usize) -> ResourceId {
        ResourceId((self.num_chips * CHIP_UNITS.len() + link) as u32)
    }

    /// The kind of a resource instance (link resources are ICI).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the set.
    #[must_use]
    pub fn kind(&self, id: ResourceId) -> Resource {
        assert!(self.contains(id), "resource {} out of range ({})", id.0, self.num_resources());
        let units = self.num_chips * CHIP_UNITS.len();
        if id.index() < units {
            CHIP_UNITS[id.index() % CHIP_UNITS.len()]
        } else {
            Resource::Ici
        }
    }

    /// The chip owning a resource instance, or `None` for fabric links
    /// (which belong to the inter-chip fabric, not to either endpoint).
    #[must_use]
    pub fn chip_of(&self, id: ResourceId) -> Option<usize> {
        let units = self.num_chips * CHIP_UNITS.len();
        if id.index() < units {
            Some(id.index() / CHIP_UNITS.len())
        } else {
            None
        }
    }

    /// The link index of a resource instance, or `None` for chip units.
    #[must_use]
    pub fn link_of(&self, id: ResourceId) -> Option<usize> {
        let units = self.num_chips * CHIP_UNITS.len();
        if (units..self.num_resources()).contains(&id.index()) {
            Some(id.index() - units)
        } else {
            None
        }
    }

    /// The per-chip unit ids of one chip, in [`Resource`] enum order.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    #[must_use]
    pub fn chip_units(&self, chip: usize) -> [ResourceId; 4] {
        [
            self.unit(chip, Resource::Sa),
            self.unit(chip, Resource::Vu),
            self.unit(chip, Resource::HbmDma),
            self.unit(chip, Resource::Ici),
        ]
    }
}

/// Per-hop schedule of a lowered collective: the fabric-link resources
/// the collective occupies and the duration of each of its steps. A ring
/// collective drives *every* ring link concurrently during each step, so
/// the engine gang-issues the whole link set for `sum(step_cycles)`
/// cycles (which must equal the phase's `main_cycles`); two collectives
/// sharing any link serialize on it naturally via the link's `free_at`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveSchedule {
    /// Link resources occupied for the collective's whole duration.
    pub links: Vec<ResourceId>,
    /// Per-step (per-hop) durations; their sum is the total transfer.
    pub step_cycles: Vec<u64>,
}

impl CollectiveSchedule {
    /// Total transfer cycles (sum over steps).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.step_cycles.iter().sum()
    }
}

/// A half-open busy interval `[start, end)` in cycles on the global clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleInterval {
    /// First busy cycle.
    pub start: u64,
    /// First cycle after the interval.
    pub end: u64,
}

impl CycleInterval {
    /// Length of the interval in cycles.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the interval is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether the interval contains cycle `at`.
    #[must_use]
    pub fn contains(&self, at: u64) -> bool {
        self.start <= at && at < self.end
    }
}

/// Sorts and merges intervals in place into a disjoint, sorted sequence
/// (overlapping and abutting intervals coalesce). Shared by the
/// per-component busy tracks and the per-segment SRAM timeline.
///
/// Allocation-free: coalescing happens behind a write cursor, and the sort
/// is skipped entirely when the input is already ordered — which
/// schedule-order recording guarantees for most tracks (the HBM track can
/// interleave prefetch-channel and demand-channel records out of order, so
/// the sortedness check is mandatory, not just an optimization).
pub(crate) fn merge_intervals(list: &mut Vec<CycleInterval>) {
    if list.len() < 2 {
        return;
    }
    let sorted = list.windows(2).all(|w| (w[0].start, w[0].end) <= (w[1].start, w[1].end));
    if !sorted {
        list.sort_by_key(|iv| (iv.start, iv.end));
    }
    let mut write = 0usize;
    for read in 1..list.len() {
        let iv = list[read];
        if iv.start <= list[write].end {
            list[write].end = list[write].end.max(iv.end);
        } else {
            write += 1;
            list[write] = iv;
        }
    }
    list.truncate(write + 1);
}

/// The idle gaps complementing a disjoint, sorted interval list over
/// `[0, total_cycles)`.
pub(crate) fn complement_intervals(
    intervals: &[CycleInterval],
    total_cycles: u64,
) -> Vec<CycleInterval> {
    let mut gaps = Vec::new();
    let mut cursor = 0u64;
    for iv in intervals {
        if iv.start > cursor {
            gaps.push(CycleInterval { start: cursor, end: iv.start.min(total_cycles) });
        }
        cursor = cursor.max(iv.end);
    }
    if total_cycles > cursor {
        gaps.push(CycleInterval { start: cursor, end: total_cycles });
    }
    gaps
}

/// Merged, sorted, disjoint busy intervals per component on the global
/// clock — the timeline the interval-accurate gating model walks.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BusyTimeline {
    intervals: BTreeMap<ComponentKind, Vec<CycleInterval>>,
}

impl BusyTimeline {
    /// Records a raw (possibly overlapping) busy interval. Call
    /// [`BusyTimeline::finalize`] once after recording everything.
    pub fn record(&mut self, kind: ComponentKind, start: u64, end: u64) {
        if end > start {
            self.intervals.entry(kind).or_default().push(CycleInterval { start, end });
        }
    }

    /// Sorts and merges every component's intervals into a disjoint,
    /// sorted sequence (overlapping and abutting intervals coalesce).
    pub fn finalize(&mut self) {
        for list in self.intervals.values_mut() {
            merge_intervals(list);
        }
    }

    /// Records every interval of `other` moved `shift` cycles later.
    pub(crate) fn extend_shifted(&mut self, other: &BusyTimeline, shift: u64) {
        for (&kind, list) in &other.intervals {
            self.intervals.entry(kind).or_default().extend(
                list.iter()
                    .map(|iv| CycleInterval { start: iv.start + shift, end: iv.end + shift }),
            );
        }
    }

    /// Merged busy intervals of one component (empty if never busy).
    #[must_use]
    pub fn intervals(&self, kind: ComponentKind) -> &[CycleInterval] {
        self.intervals.get(&kind).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total busy cycles of one component (sum of merged interval lengths).
    #[must_use]
    pub fn busy_cycles(&self, kind: ComponentKind) -> u64 {
        self.intervals(kind).iter().map(CycleInterval::len).sum()
    }

    /// The idle gaps of one component over `[0, total_cycles)`, including
    /// the leading interval before first use and the trailing interval
    /// after last use. Complements [`BusyTimeline::intervals`] exactly:
    /// busy plus idle lengths sum to `total_cycles`.
    #[must_use]
    pub fn idle_intervals(&self, kind: ComponentKind, total_cycles: u64) -> Vec<CycleInterval> {
        complement_intervals(self.intervals(kind), total_cycles)
    }

    /// Merged union of the busy intervals of several components — the
    /// "any of these is working" timeline. The serving layer uses the
    /// union over every real component (excluding the always-on
    /// peripheral track) to *measure* the chip's duty cycle from the
    /// schedule, instead of assuming the paper's fleet-average scalar.
    #[must_use]
    pub fn union_intervals(&self, kinds: &[ComponentKind]) -> Vec<CycleInterval> {
        let mut all: Vec<CycleInterval> =
            kinds.iter().flat_map(|&k| self.intervals(k).iter().copied()).collect();
        merge_intervals(&mut all);
        all
    }

    /// Total cycles in which at least one of the given components is busy.
    #[must_use]
    pub fn union_busy_cycles(&self, kinds: &[ComponentKind]) -> u64 {
        self.union_intervals(kinds).iter().map(CycleInterval::len).sum()
    }

    /// The gaps over `[0, total_cycles)` in which *none* of the given
    /// components is busy — the whole-chip idle intervals when called
    /// with every real component. These are the pipeline-bubble windows
    /// a chip-level power policy can walk just like any per-component
    /// idle-interval list.
    #[must_use]
    pub fn union_idle_intervals(
        &self,
        kinds: &[ComponentKind],
        total_cycles: u64,
    ) -> Vec<CycleInterval> {
        complement_intervals(&self.union_intervals(kinds), total_cycles)
    }
}

/// Merged, sorted, disjoint busy intervals per resource *instance* — the
/// per-chip / per-link companion of the kind-level [`BusyTimeline`]. On a
/// pod schedule the kind tracks merge every chip's activity into one view
/// (good for fleet-level energy), while these tracks keep each SA, each
/// DMA queue, and each ICI link separate so link-level gating and
/// whole-chip idleness can be read off directly.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceTimeline {
    tracks: Vec<Vec<CycleInterval>>,
}

impl ResourceTimeline {
    /// An empty timeline with one track per resource of the set.
    #[must_use]
    pub fn for_set(set: &ResourceSet) -> Self {
        ResourceTimeline { tracks: vec![Vec::new(); set.num_resources()] }
    }

    /// Records a raw (possibly overlapping) busy interval on one track.
    /// Call [`ResourceTimeline::finalize`] once after recording.
    pub fn record(&mut self, id: ResourceId, start: u64, end: u64) {
        if end > start && id.index() < self.tracks.len() {
            self.tracks[id.index()].push(CycleInterval { start, end });
        }
    }

    /// The single-chip tracks, derived from the kind-level timeline
    /// instead of recorded live. On a [`ResourceSet::single_chip`] run
    /// every `tracks.record` call pairs with a `timeline.record` of the
    /// unit's kind (the HBM-DMA unit with [`ComponentKind::Hbm`]), so the
    /// merged per-resource tracks are *identical* to the component tracks
    /// — deriving them after the fact keeps the doubled interval
    /// recording off the single-chip event loop, which is the serving
    /// replay hot path.
    #[must_use]
    pub fn single_chip_view(timeline: &BusyTimeline) -> Self {
        ResourceTimeline {
            tracks: [ComponentKind::Sa, ComponentKind::Vu, ComponentKind::Hbm, ComponentKind::Ici]
                .iter()
                .map(|&kind| timeline.intervals(kind).to_vec())
                .collect(),
        }
    }

    /// Sorts and merges every track into a disjoint, sorted sequence.
    pub fn finalize(&mut self) {
        for track in &mut self.tracks {
            merge_intervals(track);
        }
    }

    /// Records every interval of `other` moved `shift` cycles later, track
    /// by track (tracks this timeline does not keep are dropped, like
    /// [`ResourceTimeline::record`] drops them).
    pub(crate) fn extend_shifted(&mut self, other: &ResourceTimeline, shift: u64) {
        for (track, list) in self.tracks.iter_mut().zip(&other.tracks) {
            track.extend(
                list.iter()
                    .map(|iv| CycleInterval { start: iv.start + shift, end: iv.end + shift }),
            );
        }
    }

    /// Number of tracks (resources of the set the schedule ran against).
    #[must_use]
    pub fn num_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Merged busy intervals of one resource (empty if never busy or out
    /// of range).
    #[must_use]
    pub fn track(&self, id: ResourceId) -> &[CycleInterval] {
        self.tracks.get(id.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total busy cycles of one resource.
    #[must_use]
    pub fn busy_cycles(&self, id: ResourceId) -> u64 {
        self.track(id).iter().map(CycleInterval::len).sum()
    }

    /// The idle gaps of one resource over `[0, total_cycles)` — the
    /// intervals a per-link (or per-unit) power policy walks.
    #[must_use]
    pub fn idle_intervals(&self, id: ResourceId, total_cycles: u64) -> Vec<CycleInterval> {
        complement_intervals(self.track(id), total_cycles)
    }

    /// Merged union of several resources' busy intervals.
    #[must_use]
    pub fn union_intervals(&self, ids: &[ResourceId]) -> Vec<CycleInterval> {
        let mut all: Vec<CycleInterval> =
            ids.iter().flat_map(|&id| self.track(id).iter().copied()).collect();
        merge_intervals(&mut all);
        all
    }

    /// The gaps over `[0, total_cycles)` in which none of the given
    /// resources is busy.
    #[must_use]
    pub fn union_idle_intervals(
        &self,
        ids: &[ResourceId],
        total_cycles: u64,
    ) -> Vec<CycleInterval> {
        complement_intervals(&self.union_intervals(ids), total_cycles)
    }

    /// The whole-chip idle intervals of one chip: the gaps in which none
    /// of the chip's units is busy. Pipeline-parallel stage bubbles show
    /// up here as long, contiguous, chip-wide gateable windows.
    #[must_use]
    pub fn chip_idle_intervals(
        &self,
        set: &ResourceSet,
        chip: usize,
        total_cycles: u64,
    ) -> Vec<CycleInterval> {
        self.union_idle_intervals(&set.chip_units(chip), total_cycles)
    }
}

/// One bucket of the idle-interval histogram: intervals with length in
/// `[lower, upper)` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdleBucket {
    /// Smallest interval length in this bucket (inclusive), in cycles.
    pub lower: u64,
    /// Smallest length *not* in this bucket (exclusive), in cycles.
    pub upper: u64,
    /// Number of idle intervals in the bucket.
    pub count: u64,
    /// Total idle cycles contributed by intervals in the bucket.
    pub total_cycles: u64,
}

/// Chip-level histogram of idle-interval lengths per component, in
/// power-of-two buckets — the distribution §3 and Figure 15 argue gating
/// decisions must be made against.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IdleHistogram {
    buckets: BTreeMap<ComponentKind, Vec<IdleBucket>>,
}

impl IdleHistogram {
    /// Builds the histogram from a finalized timeline over
    /// `[0, total_cycles)`.
    #[must_use]
    pub fn from_timeline(timeline: &BusyTimeline, total_cycles: u64) -> Self {
        let mut buckets: BTreeMap<ComponentKind, Vec<IdleBucket>> = BTreeMap::new();
        for kind in ComponentKind::ALL {
            let mut per_exp: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
            for gap in timeline.idle_intervals(kind, total_cycles) {
                let len = gap.len();
                if len == 0 {
                    continue;
                }
                let exp = 63 - len.leading_zeros();
                let entry = per_exp.entry(exp).or_default();
                entry.0 += 1;
                entry.1 += len;
            }
            let list = per_exp
                .into_iter()
                .map(|(exp, (count, total))| IdleBucket {
                    lower: 1 << exp,
                    upper: if exp >= 63 { u64::MAX } else { 1 << (exp + 1) },
                    count,
                    total_cycles: total,
                })
                .collect();
            buckets.insert(kind, list);
        }
        IdleHistogram { buckets }
    }

    /// Buckets of one component, sorted by ascending interval length.
    #[must_use]
    pub fn buckets(&self, kind: ComponentKind) -> &[IdleBucket] {
        self.buckets.get(&kind).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total idle cycles of one component (sum over buckets).
    #[must_use]
    pub fn total_idle_cycles(&self, kind: ComponentKind) -> u64 {
        self.buckets(kind).iter().map(|b| b.total_cycles).sum()
    }

    /// Idle cycles of one component sitting in intervals at least
    /// `min_len` cycles long (bucket-resolution approximation of the
    /// cycles a gating policy with break-even `min_len` could recover).
    #[must_use]
    pub fn gateable_cycles(&self, kind: ComponentKind, min_len: u64) -> u64 {
        self.buckets(kind).iter().filter(|b| b.lower >= min_len).map(|b| b.total_cycles).sum()
    }
}

/// Phase durations of one operator, as computed by the per-operator timing
/// model — the input to the timeline engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpPhases {
    /// Execution resource instance of the main phase. Single-chip phase
    /// vectors use the [`Resource`] enum-order ids (`Resource::Sa.into()`
    /// etc.); pod phase vectors address per-chip units and link resources
    /// through their run's [`ResourceSet`].
    pub unit: ResourceId,
    /// Main-phase duration in cycles (compute for SA/VU operators, the
    /// gather for HBM operators, the collective for ICI operators),
    /// excluding dispatch.
    pub main_cycles: u64,
    /// HBM prefetch cycles issued ahead of the main phase (zero for
    /// gathers, which *are* their transfer, and for collectives).
    pub dma_cycles: u64,
    /// Cycles of the prefetch the main phase must wait for before it can
    /// start consuming data (the first tile of a double-buffered stream).
    pub dma_lead_cycles: u64,
    /// Fused vector post-processing overlapped with an SA main phase.
    pub fused_vu_cycles: u64,
    /// Instruction fetch / scalar setup charged at main-phase issue.
    pub dispatch_cycles: u64,
    /// Cycles within the main phase the systolic arrays actually compute.
    pub sa_active_cycles: u64,
    /// Per-hop link occupation of a lowered collective. `None` (every
    /// single-chip operator, and analytic collectives) issues the main
    /// phase on `unit` alone; `Some` gang-issues the whole link set for
    /// `main_cycles` (which must equal the schedule's step sum). Boxed to
    /// keep the common no-collective `OpPhases` small — the phase vector
    /// is the engine's hottest working set.
    pub collective: Option<Box<CollectiveSchedule>>,
    /// Indices of the operators whose completion this operator's main
    /// phase must wait for (an empty set marks a source). Every index must
    /// be smaller than the operator's own position: the phase vector is a
    /// topological order of the DAG.
    pub producers: Vec<usize>,
}

impl OpPhases {
    /// Wires a phase vector into a linear chain (`k` depends on `k-1`),
    /// the dependency structure of a single-request operator stream.
    #[must_use]
    pub fn chain(mut phases: Vec<OpPhases>) -> Vec<OpPhases> {
        for (k, p) in phases.iter_mut().enumerate() {
            p.producers = if k == 0 { Vec::new() } else { vec![k - 1] };
        }
        phases
    }
}

/// Scheduled phase times of one operator on the global clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledOp {
    /// DMA prefetch interval (equal `start`/`end` when the operator has no
    /// prefetch).
    pub dma_start: u64,
    /// End of the DMA prefetch.
    pub dma_end: u64,
    /// Main-phase issue cycle (dispatch begins here).
    pub main_start: u64,
    /// End of the main phase.
    pub main_end: u64,
    /// Completion of the operator (all phases done); successors may start.
    pub finish: u64,
}

impl ScheduledOp {
    /// First cycle at which any phase of the operator occupies hardware.
    #[must_use]
    pub fn span_start(&self) -> u64 {
        if self.dma_end > self.dma_start {
            self.dma_start.min(self.main_start)
        } else {
            self.main_start
        }
    }

    /// Occupancy span of the operator on the global clock.
    #[must_use]
    pub fn span_cycles(&self) -> u64 {
        self.finish.saturating_sub(self.span_start())
    }
}

/// Cheap, always-on counters of one engine run — the "how did the event
/// loop behave" numbers (queue pressure, release-clamp stalls, collective
/// occupancy) that end-of-run aggregates cannot reconstruct. Counted
/// inline in the event loop with plain integer arithmetic, so every run —
/// observed or not — carries them at no measurable cost.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunCounters {
    /// Events popped off the queue over the whole run.
    pub events_popped: u64,
    /// Largest number of events ever on the queue's heap at once (sampled
    /// at every pop, which bounds the heap's true peak: the heap only
    /// grows between pops). Seed events scheduled before the first pop
    /// wait in a sorted list instead and are not counted, so the peak
    /// tracks in-flight work, not trace length.
    pub heap_peak: u64,
    /// Operators retired (all phases complete).
    pub ops_retired: u64,
    /// Phases that were ready before their operator's release cycle and
    /// had to be clamped to it.
    pub release_stalls: u64,
    /// Total cycles of release clamping across those stalls.
    pub release_stall_cycles: u64,
    /// Lowered collectives gang-issued on link resources.
    pub collectives_issued: u64,
    /// Total per-hop steps across those collectives.
    pub collective_hops: u64,
    /// Busy cycles charged to each fabric link by collectives, indexed by
    /// link number (empty on single-chip runs, which have no links).
    pub link_busy_cycles: Vec<u64>,
}

impl RunCounters {
    /// A zeroed counter block sized for a resource set's links.
    #[must_use]
    pub fn for_set(set: &ResourceSet) -> Self {
        RunCounters { link_busy_cycles: vec![0; set.num_links()], ..RunCounters::default() }
    }
}

/// Result of scheduling a compiled operator stream on the timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Per-operator phase times, in anchor order.
    pub ops: Vec<ScheduledOp>,
    /// Completion time of the last phase (total execution length).
    pub makespan: u64,
    /// Merged per-component busy intervals (finalized). On pod runs every
    /// chip's activity of a kind merges into the one kind track.
    pub timeline: BusyTimeline,
    /// The resource set the schedule was produced against.
    pub resources: ResourceSet,
    /// Per-resource-instance busy tracks (finalized) — one per chip unit
    /// and one per ICI link.
    pub resource_timeline: ResourceTimeline,
    /// Event-loop counters of the run that produced the schedule.
    #[serde(default)]
    pub counters: RunCounters,
}

/// Scheduling state of one operator inside the engine.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpState {
    pub(crate) pending_producers: usize,
    pub(crate) buffer_ready: bool,
    lead_ready: bool,
    pub(crate) dma_issued: bool,
    pub(crate) main_issued: bool,
    main_done: bool,
    dma_done: bool,
    pub(crate) finished: bool,
    pub(crate) dma_start: u64,
    pub(crate) dma_end: u64,
    pub(crate) main_start: u64,
    pub(crate) main_end: u64,
    pub(crate) finish: u64,
}

impl OpState {
    /// The operator's phase times as scheduled so far.
    pub(crate) fn scheduled(&self) -> ScheduledOp {
        ScheduledOp {
            dma_start: self.dma_start,
            dma_end: self.dma_end,
            main_start: self.main_start,
            main_end: self.main_end,
            finish: self.finish,
        }
    }
}

/// Reusable run-state buffers for [`TimelineEngine::run_with_scratch`]:
/// the per-operator state arena and the event queue (its heap and seed
/// list storage). Holding one scratch across many runs (a serving sweep,
/// a bench loop) keeps the hot loop free of per-run allocations.
#[derive(Debug, Default)]
pub struct EngineScratch {
    pub(crate) state: Vec<OpState>,
    pub(crate) queue: EventQueue,
}

/// The event-driven timeline engine.
///
/// The phase vector is a topologically ordered operator DAG: every
/// operator carries an explicit [`OpPhases::producers`] set (empty for
/// sources), so independent subgraphs — DLRM's per-table gathers feeding
/// one all-to-all, or a batch of requests sharing a chip — overlap freely
/// instead of being serialized into a chain.
///
/// The engine itself is an immutable topology: the phase vector plus the
/// reverse producer and buffer edges flattened into CSR index ranges. All
/// per-run state (operator states, the event heap, the busy timeline)
/// lives in an [`EngineScratch`], so one engine can be run many times —
/// with different release vectors — without rebuilding or reallocating
/// anything, and event completion iterates edge slices instead of cloning
/// dependent lists.
///
/// Dependency rules, per operator `k` (topological order):
///
/// * **DMA prefetch** waits for the DMA engine's *prefetch channel* and
///   for a free input buffer — with double buffering, the buffer released
///   when the second-to-last DMA-using operator (in topological order)
///   finishes. Demand traffic (embedding gathers, whose main phase *is*
///   the transfer) runs on a separate demand channel with its own queue,
///   so a speculative prefetch never delays a gather on the producer
///   chain — which keeps the overlapped makespan provably at or below the
///   serial per-op sum.
/// * **Main phase** waits for *all* of its producers to finish, for the
///   lead portion of its own DMA, and for its execution unit. It does
///   *not* wait for unrelated phases of other operators, and never for
///   successors' prefetches.
/// * **Release times**: no phase of an operator issues before its release
///   cycle (the `releases` argument of
///   [`TimelineEngine::run_with_scratch`]) — the arrival/dispatch time of
///   the request the operator serves. Before it the operator's inputs do
///   not exist, so queueing delay and inter-request gaps appear on every
///   resource track as real idle intervals the gating model prices like
///   any other.
/// * The operator **finishes** when both its DMA stream and its main phase
///   (including fused vector post-processing) are complete.
#[derive(Debug)]
pub struct TimelineEngine {
    phases: Vec<OpPhases>,
    /// The resource instances the phase vector schedules over.
    resources: ResourceSet,
    /// CSR reverse producer edges: the operators whose main phase waits
    /// for `k` to finish are `dep_edges[dep_starts[k]..dep_starts[k + 1]]`.
    dep_starts: Vec<usize>,
    dep_edges: Vec<usize>,
    /// `buffer_dep[k]`: operator whose completion frees `k`'s input buffer.
    buffer_dep: Vec<Option<usize>>,
    /// CSR reverse edges of `buffer_dep`, laid out like `dep_*`.
    buf_starts: Vec<usize>,
    buf_edges: Vec<usize>,
}

/// Mutable state of one engine run, borrowed against the immutable
/// topology. `releases` (one entry per operator; empty = every operator
/// released at cycle 0) lets a prepared engine serve many release
/// vectors.
pub(crate) struct EngineRun<'a> {
    pub(crate) topo: &'a TimelineEngine,
    releases: &'a [u64],
    pub(crate) state: &'a mut [OpState],
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) timeline: BusyTimeline,
    pub(crate) tracks: ResourceTimeline,
    /// When each resource instance frees up, indexed by [`ResourceId`].
    free_at: Vec<u64>,
    /// When each chip's DMA prefetch channel frees up. Demand traffic
    /// (gather main phases) queues on the chip's [`Resource::HbmDma`]
    /// entry in `free_at` instead.
    prefetch_free: Vec<u64>,
    /// Inline event-loop counters, handed to the schedule at the end.
    pub(crate) counters: RunCounters,
}

impl TimelineEngine {
    /// How many operators' input buffers may be in flight at once
    /// (double buffering: compute tile `k` while prefetching `k+1`).
    pub const DMA_BUFFER_DEPTH: usize = 2;

    /// Builds the engine over a compiled operator DAG.
    ///
    /// # Panics
    ///
    /// Panics if a producer index is not smaller than its consumer's
    /// position — the phase vector must be a topological order, which the
    /// graph layer guarantees by construction.
    #[must_use]
    pub fn new(phases: Vec<OpPhases>) -> Self {
        Self::with_resources(phases, ResourceSet::single_chip())
    }

    /// Builds the engine over a compiled operator DAG scheduled against
    /// an explicit resource set — the multi-chip entry point. Phase units
    /// and collective link ids must all name resources of the set.
    ///
    /// # Panics
    ///
    /// Panics if the phase vector is not a topological order, or if any
    /// operator addresses a resource outside the set.
    #[must_use]
    pub fn with_resources(phases: Vec<OpPhases>, resources: ResourceSet) -> Self {
        for (k, p) in phases.iter().enumerate() {
            assert!(
                resources.contains(p.unit),
                "operator {k}: unit {} outside the resource set ({} resources)",
                p.unit.0,
                resources.num_resources()
            );
            if let Some(c) = &p.collective {
                for link in &c.links {
                    assert!(
                        resources.link_of(*link).is_some(),
                        "operator {k}: collective link {} is not a link resource",
                        link.0
                    );
                }
            }
        }
        let n = phases.len();
        // Reverse producer edges, flattened: count per producer, prefix
        // sum, then fill in consumer order — the same per-producer edge
        // order `Vec<Vec<usize>>` adjacency produced.
        let mut dep_starts = vec![0usize; n + 1];
        for (k, p) in phases.iter().enumerate() {
            for &producer in &p.producers {
                assert!(
                    producer < k,
                    "operator {k}: producer {producer} does not precede it (not a topological \
                     order)"
                );
                dep_starts[producer + 1] += 1;
            }
        }
        for i in 0..n {
            dep_starts[i + 1] += dep_starts[i];
        }
        let mut cursor = dep_starts.clone();
        let mut dep_edges = vec![0usize; dep_starts[n]];
        for (k, p) in phases.iter().enumerate() {
            for &producer in &p.producers {
                dep_edges[cursor[producer]] = k;
                cursor[producer] += 1;
            }
        }
        // The DMA of the j-th DMA-using operator waits for the
        // (j - DMA_BUFFER_DEPTH)-th DMA-using operator to release its
        // buffer.
        let mut buffer_dep = vec![None; n];
        let mut buf_starts = vec![0usize; n + 1];
        let dma_users: Vec<usize> = (0..n).filter(|&k| phases[k].dma_cycles > 0).collect();
        for (j, &k) in dma_users.iter().enumerate() {
            if j >= Self::DMA_BUFFER_DEPTH {
                let owner = dma_users[j - Self::DMA_BUFFER_DEPTH];
                buffer_dep[k] = Some(owner);
                buf_starts[owner + 1] += 1;
            }
        }
        for i in 0..n {
            buf_starts[i + 1] += buf_starts[i];
        }
        let mut cursor = buf_starts.clone();
        let mut buf_edges = vec![0usize; buf_starts[n]];
        for (k, dep) in buffer_dep.iter().enumerate() {
            if let Some(owner) = dep {
                buf_edges[cursor[*owner]] = k;
                cursor[*owner] += 1;
            }
        }
        TimelineEngine {
            phases,
            resources,
            dep_starts,
            dep_edges,
            buffer_dep,
            buf_starts,
            buf_edges,
        }
    }

    /// The resource set the engine schedules over.
    #[must_use]
    pub fn resources(&self) -> ResourceSet {
        self.resources
    }

    /// The per-operator phase durations the engine was built over, in
    /// topological order — the static view the schedule analyzer consumes
    /// to bound the makespan without running the event loop.
    #[must_use]
    pub fn phases(&self) -> &[OpPhases] {
        &self.phases
    }

    /// Runs the event loop to completion and returns the schedule.
    #[must_use]
    pub fn run(self) -> Schedule {
        self.run_with_scratch(&[], &mut EngineScratch::default())
    }

    /// Runs the event loop against reusable scratch buffers, optionally
    /// overriding every operator's release cycle. The engine is untouched
    /// and may be run again — the compile-once/run-many path of the
    /// serving layer. An empty `releases` releases every operator at
    /// cycle 0 (identical to [`TimelineEngine::run`]).
    ///
    /// # Panics
    ///
    /// Panics if `releases` is neither empty nor exactly one entry per
    /// operator.
    #[must_use]
    pub fn run_with_scratch(&self, releases: &[u64], scratch: &mut EngineScratch) -> Schedule {
        // `NullObserver`'s hooks are empty defaults on a zero-sized type,
        // so this instantiation monomorphizes to the unobserved loop —
        // bit-identical schedules, no extra work on the serving hot path.
        self.run_with_scratch_observed(releases, scratch, &mut NullObserver)
    }

    /// Runs the event loop like [`TimelineEngine::run_with_scratch`],
    /// reporting every issue, retirement, occupancy record, prefetch,
    /// collective gang-issue, and release-clamp stall to `obs`. Observers
    /// never influence scheduling: an observed run produces the same
    /// [`Schedule`], byte for byte, as an unobserved one.
    ///
    /// # Panics
    ///
    /// Panics if `releases` is neither empty nor exactly one entry per
    /// operator.
    #[must_use]
    pub fn run_with_scratch_observed<O: SimObserver>(
        &self,
        releases: &[u64],
        scratch: &mut EngineScratch,
        obs: &mut O,
    ) -> Schedule {
        let mut run = self.begin(releases, scratch);
        run.seed_all(obs);
        loop {
            // Sampling the heap length right before each pop captures the
            // true heap peak: the heap only grows between two pops.
            run.counters.heap_peak = run.counters.heap_peak.max(run.queue.heap_len() as u64);
            let Some(ev) = run.queue.pop() else { break };
            run.counters.events_popped += 1;
            obs.event_popped(ev.at, run.queue.len());
            run.dispatch(ev.kind, ev.at, obs);
        }
        run.finish()
    }

    /// A fresh run over this engine: every operator's state reset, the
    /// queue empty, every resource free at cycle 0. Nothing is seeded.
    ///
    /// # Panics
    ///
    /// Panics if `releases` is neither empty nor exactly one entry per
    /// operator.
    pub(crate) fn begin<'a>(
        &'a self,
        releases: &'a [u64],
        scratch: &'a mut EngineScratch,
    ) -> EngineRun<'a> {
        let n = self.phases.len();
        assert!(
            releases.is_empty() || releases.len() == n,
            "release vector covers {} operators but the engine has {n}",
            releases.len()
        );
        scratch.state.clear();
        scratch.state.resize(n, OpState::default());
        scratch.queue.clear();
        EngineRun {
            topo: self,
            releases,
            state: &mut scratch.state,
            queue: &mut scratch.queue,
            timeline: BusyTimeline::default(),
            // Single-chip per-resource tracks duplicate the kind-level
            // timeline record for record, so the hot loop skips them (an
            // empty-track `ResourceTimeline` drops every `record`) and the
            // view is derived from the merged component tracks in
            // `EngineRun::finish`.
            tracks: if self.resources == ResourceSet::single_chip() {
                ResourceTimeline::default()
            } else {
                ResourceTimeline::for_set(&self.resources)
            },
            free_at: vec![0; self.resources.num_resources()],
            prefetch_free: vec![0; self.resources.num_chips()],
            counters: RunCounters::for_set(&self.resources),
        }
    }

    /// The operators whose input buffer `op`'s completion frees.
    pub(crate) fn buffer_consumers(&self, op: usize) -> &[usize] {
        &self.buf_edges[self.buf_starts[op]..self.buf_starts[op + 1]]
    }
}

impl EngineRun<'_> {
    /// Seeds the whole phase vector: buffer-free prefetches, then every
    /// source operator (all producers already satisfied). These events
    /// land in the queue's seed list, not its heap, so release-clamped
    /// sources of later batches wait there without growing the heap.
    pub(crate) fn seed_all<O: SimObserver>(&mut self, obs: &mut O) {
        let topo = self.topo;
        let n = topo.phases.len();
        for k in 0..n {
            self.state[k].buffer_ready = topo.buffer_dep[k].is_none();
            self.state[k].pending_producers = topo.phases[k].producers.len();
            if topo.phases[k].dma_cycles > 0 {
                self.try_issue_dma(k, 0, obs);
            }
        }
        for k in 0..n {
            if self.state[k].pending_producers == 0 {
                self.try_issue_main(k, 0, obs);
            }
        }
    }

    /// Handles one popped event firing at cycle `t`.
    pub(crate) fn dispatch<O: SimObserver>(&mut self, kind: EventKind, t: u64, obs: &mut O) {
        match kind {
            EventKind::IssueDma { op } => self.issue_dma(op, t, obs),
            EventKind::DmaLeadArrived { op } => {
                self.state[op].lead_ready = true;
                self.try_issue_main(op, t, obs);
            }
            EventKind::DmaComplete { op } => {
                self.state[op].dma_done = true;
                self.check_finish(op, t, obs);
            }
            EventKind::IssueMain { op } => self.issue_main(op, t, obs),
            EventKind::MainComplete { op } => {
                self.state[op].main_done = true;
                self.check_finish(op, t, obs);
            }
        }
    }

    /// Turns the finished run into its [`Schedule`].
    pub(crate) fn finish(self) -> Schedule {
        let topo = self.topo;
        let makespan = self.state.iter().map(|s| s.finish).max().unwrap_or(0);
        let ops = self.state.iter().map(OpState::scheduled).collect();
        let mut timeline = self.timeline;
        let mut resource_timeline = self.tracks;
        // The SRAM has no blanket busy interval here: the engine layer
        // above maps the allocator's per-segment lifetimes through the
        // scheduled operator spans and records the union of *live* segment
        // intervals instead (see `Simulator::run`). Peripheral logic is
        // genuinely always on.
        timeline.record(ComponentKind::Other, 0, makespan);
        timeline.finalize();
        if topo.resources == ResourceSet::single_chip() {
            resource_timeline = ResourceTimeline::single_chip_view(&timeline);
        } else {
            resource_timeline.finalize();
        }
        Schedule {
            ops,
            makespan,
            timeline,
            resources: topo.resources,
            resource_timeline,
            counters: self.counters,
        }
    }

    pub(crate) fn release_of(&self, op: usize) -> u64 {
        self.releases.get(op).copied().unwrap_or(0)
    }

    fn resource_free(&self, r: ResourceId) -> u64 {
        self.free_at[r.index()]
    }

    /// The chip an operator's phases run on (chip 0 for pure-link
    /// collective ops, whose DMA/prefetch phases are zero anyway).
    fn chip_of(&self, op: usize) -> usize {
        self.topo.resources.chip_of(self.topo.phases[op].unit).unwrap_or(0)
    }

    /// Counts (and reports) a phase that was ready at `now` but clamped
    /// to a later release cycle.
    fn note_release_clamp<O: SimObserver>(
        &mut self,
        op: usize,
        now: u64,
        release: u64,
        obs: &mut O,
    ) {
        if release > now {
            self.counters.release_stalls += 1;
            self.counters.release_stall_cycles += release - now;
            obs.release_stall(op, now, release);
        }
    }

    fn try_issue_dma<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        if self.state[op].dma_issued || !self.state[op].buffer_ready {
            return;
        }
        self.state[op].dma_issued = true;
        // A prefetch may not run ahead of its operator's release: before
        // the request arrives there is nothing to stream.
        let release = self.release_of(op);
        self.note_release_clamp(op, now, release, obs);
        let at = now.max(release);
        self.queue.schedule(at, EventKind::IssueDma { op });
    }

    fn issue_dma<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        let p = &self.topo.phases[op];
        let (dma_cycles, lead_cycles) = (p.dma_cycles, p.dma_lead_cycles.min(p.dma_cycles));
        // Prefetches queue on their chip's DMA prefetch channel only:
        // demand traffic (gathers) is never stuck behind speculation.
        let chip = self.chip_of(op);
        let start = now.max(self.prefetch_free[chip]);
        let end = start + dma_cycles;
        self.prefetch_free[chip] = end;
        self.state[op].dma_start = start;
        self.state[op].dma_end = end;
        self.timeline.record(ComponentKind::Hbm, start, end);
        self.timeline.record(ComponentKind::Dma, start, end);
        self.tracks.record(self.topo.resources.unit(chip, Resource::HbmDma), start, end);
        obs.dma_transfer(op, chip, start, end);
        self.queue.schedule(start + lead_cycles, EventKind::DmaLeadArrived { op });
        self.queue.schedule(end, EventKind::DmaComplete { op });
    }

    fn try_issue_main<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        let s = &self.state[op];
        let needs_lead = self.topo.phases[op].dma_cycles > 0;
        if s.main_issued || s.pending_producers > 0 || (needs_lead && !s.lead_ready) {
            return;
        }
        self.state[op].main_issued = true;
        let release = self.release_of(op);
        self.note_release_clamp(op, now, release, obs);
        let at = now.max(release);
        self.queue.schedule(at, EventKind::IssueMain { op });
    }

    fn issue_main<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        let q = &self.topo.phases[op];
        if q.collective.is_some() {
            self.issue_collective(op, now, obs);
            return;
        }
        obs.op_issued(op, now);
        let (unit, main_cycles, fused_vu_cycles, dispatch_cycles, sa_active_cycles) =
            (q.unit, q.main_cycles, q.fused_vu_cycles, q.dispatch_cycles, q.sa_active_cycles);
        let start = now.max(self.resource_free(unit));
        let active_start = start + dispatch_cycles;
        let unit_end = active_start + main_cycles;
        self.free_at[unit.index()] = unit_end;
        // Fused vector post-processing overlaps the SA drain but can
        // outlast it; the operator is complete only when both are done.
        let mut end = unit_end;
        match self.topo.resources.kind(unit) {
            Resource::Sa => {
                let sa_end = active_start + sa_active_cycles.min(main_cycles);
                self.timeline.record(ComponentKind::Sa, active_start, sa_end);
                self.tracks.record(unit, active_start, sa_end);
                obs.resource_busy(unit, op, active_start, sa_end);
                if fused_vu_cycles > 0 {
                    // Fused post-processing runs on the vector units,
                    // overlapped with the SA dataflow. It does not delay
                    // the SA issue, but it *does* queue on the VU gang:
                    // with DAG overlap an independent VU operator may
                    // already be in flight, and one gang cannot run both
                    // at once (in a chain the producer edge guarantees the
                    // VU is free by now, so this wait never fires there).
                    let chip = self.chip_of(op);
                    let vu = self.topo.resources.unit(chip, Resource::Vu);
                    let fused_start = active_start.max(self.resource_free(vu));
                    let fused_end = fused_start + fused_vu_cycles;
                    self.timeline.record(ComponentKind::Vu, fused_start, fused_end);
                    self.tracks.record(vu, fused_start, fused_end);
                    obs.resource_busy(vu, op, fused_start, fused_end);
                    self.free_at[vu.index()] = fused_end;
                    end = end.max(fused_end);
                }
            }
            Resource::Vu => {
                self.timeline.record(ComponentKind::Vu, active_start, unit_end);
                self.tracks.record(unit, active_start, unit_end);
                obs.resource_busy(unit, op, active_start, unit_end);
            }
            Resource::HbmDma => {
                self.timeline.record(ComponentKind::Hbm, active_start, unit_end);
                self.timeline.record(ComponentKind::Dma, active_start, unit_end);
                self.tracks.record(unit, active_start, unit_end);
                obs.resource_busy(unit, op, active_start, unit_end);
            }
            Resource::Ici => {
                self.timeline.record(ComponentKind::Ici, active_start, unit_end);
                self.timeline.record(ComponentKind::Dma, active_start, unit_end);
                self.tracks.record(unit, active_start, unit_end);
                obs.resource_busy(unit, op, active_start, unit_end);
            }
        }
        self.state[op].main_start = start;
        self.state[op].main_end = end;
        self.queue.schedule(end, EventKind::MainComplete { op });
    }

    /// Gang-issues a lowered collective: every link of the plan is held
    /// for the whole transfer (each step of a ring collective drives each
    /// ring link concurrently), so the issue waits for the *latest* of
    /// the links to free up and two collectives sharing any link
    /// serialize on it.
    fn issue_collective<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        let topo = self.topo;
        let q = &topo.phases[op];
        let Some(c) = &q.collective else { return };
        obs.op_issued(op, now);
        let mut start = now;
        for link in &c.links {
            start = start.max(self.free_at[link.index()]);
        }
        let active_start = start + q.dispatch_cycles;
        let end = active_start + q.main_cycles;
        self.counters.collectives_issued += 1;
        self.counters.collective_hops += c.step_cycles.len() as u64;
        for link in &c.links {
            self.free_at[link.index()] = end;
            self.tracks.record(*link, active_start, end);
            obs.resource_busy(*link, op, active_start, end);
            if let Some(l) = topo.resources.link_of(*link) {
                self.counters.link_busy_cycles[l] += end - active_start;
            }
        }
        obs.collective_start(op, &c.links, active_start, end);
        self.timeline.record(ComponentKind::Ici, active_start, end);
        self.state[op].main_start = start;
        self.state[op].main_end = end;
        self.queue.schedule(end, EventKind::MainComplete { op });
    }

    fn check_finish<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        let has_dma = self.topo.phases[op].dma_cycles > 0;
        let s = &self.state[op];
        if s.finished || !s.main_done || (has_dma && !s.dma_done) {
            return;
        }
        self.state[op].finished = true;
        self.state[op].finish = now;
        self.counters.ops_retired += 1;
        obs.op_retired(op, now);
        // Producer edges: consumers with no remaining producers may start.
        // Indexing the CSR slices (one copied edge at a time) keeps the
        // topology borrow disjoint from the state mutations — no cloned
        // dependent lists, no per-event allocation.
        for i in self.topo.dep_starts[op]..self.topo.dep_starts[op + 1] {
            let k = self.topo.dep_edges[i];
            self.state[k].pending_producers -= 1;
            if self.state[k].pending_producers == 0 {
                self.try_issue_main(k, now, obs);
            }
        }
        // Buffer edges: release this operator's input buffer.
        for i in self.topo.buf_starts[op]..self.topo.buf_starts[op + 1] {
            self.release_buffer(self.topo.buf_edges[i], now, obs);
        }
    }

    /// Frees `op`'s input buffer at `now` and tries to issue its prefetch.
    pub(crate) fn release_buffer<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        self.state[op].buffer_ready = true;
        self.try_issue_dma(op, now, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa_op(main: u64, dma: u64) -> OpPhases {
        OpPhases {
            unit: Resource::Sa.into(),
            main_cycles: main,
            dma_cycles: dma,
            dma_lead_cycles: (dma / 4).max(1).min(dma),
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: main,
            producers: Vec::new(),
            collective: None,
        }
    }

    #[test]
    fn empty_stream_schedules_nothing() {
        let schedule = TimelineEngine::new(Vec::new()).run();
        assert_eq!(schedule.makespan, 0);
        assert!(schedule.ops.is_empty());
        assert!(schedule.timeline.intervals(ComponentKind::Sa).is_empty());
    }

    #[test]
    fn dma_prefetch_overlaps_previous_compute() {
        // Two identical ops: op 1's DMA must stream while op 0 computes.
        let ops = OpPhases::chain(vec![sa_op(1000, 400), sa_op(1000, 400)]);
        let schedule = TimelineEngine::new(ops).run();
        let [a, b] = [schedule.ops[0], schedule.ops[1]];
        assert!(b.dma_start < a.main_end, "op 1's prefetch starts during op 0's compute");
        assert!(b.main_start >= a.finish, "op 1 computes only after its producer finishes");
        // Serial cost would be 2 * (max(1000, 400) + 10); overlap beats it.
        assert!(schedule.makespan < 2 * 1010 + 400);
    }

    #[test]
    fn consumer_never_starts_before_producer_finishes() {
        let ops =
            OpPhases::chain(vec![sa_op(100, 800), sa_op(50, 20), sa_op(700, 100), sa_op(5, 5)]);
        let schedule = TimelineEngine::new(ops).run();
        for pair in schedule.ops.windows(2) {
            assert!(pair[1].main_start >= pair[0].finish, "{pair:?}");
        }
    }

    #[test]
    fn double_buffering_throttles_prefetch_depth() {
        // Op 2's DMA may not start before op 0 releases its buffer, even
        // though the HBM queue is free much earlier.
        let ops = OpPhases::chain(vec![sa_op(10_000, 10), sa_op(10_000, 10), sa_op(10_000, 10)]);
        let schedule = TimelineEngine::new(ops).run();
        assert!(schedule.ops[1].dma_start < schedule.ops[0].finish, "depth-2 prefetch runs ahead");
        assert!(
            schedule.ops[2].dma_start >= schedule.ops[0].finish,
            "depth-3 prefetch waits for the buffer"
        );
    }

    #[test]
    fn busy_intervals_are_disjoint_and_sorted() {
        let ops = OpPhases::chain(vec![
            sa_op(300, 500),
            sa_op(40, 700),
            sa_op(900, 100),
            sa_op(10, 2000),
        ]);
        let schedule = TimelineEngine::new(ops).run();
        for kind in ComponentKind::ALL {
            let intervals = schedule.timeline.intervals(kind);
            for iv in intervals {
                assert!(iv.start < iv.end, "{kind:?}: empty interval {iv:?}");
            }
            for pair in intervals.windows(2) {
                assert!(pair[0].end < pair[1].start, "{kind:?}: overlapping/abutting {pair:?}");
            }
        }
    }

    #[test]
    fn idle_intervals_complement_busy_intervals() {
        let ops = OpPhases::chain(vec![sa_op(300, 500), sa_op(40, 700), sa_op(900, 100)]);
        let schedule = TimelineEngine::new(ops).run();
        let total = schedule.makespan;
        for kind in ComponentKind::ALL {
            let busy = schedule.timeline.busy_cycles(kind);
            let idle: u64 =
                schedule.timeline.idle_intervals(kind, total).iter().map(CycleInterval::len).sum();
            assert_eq!(busy + idle, total, "{kind:?}");
        }
    }

    #[test]
    fn histogram_buckets_account_for_every_idle_cycle() {
        let ops =
            OpPhases::chain(vec![sa_op(300, 500), sa_op(40, 700), sa_op(900, 100), sa_op(10, 90)]);
        let schedule = TimelineEngine::new(ops).run();
        let histogram = IdleHistogram::from_timeline(&schedule.timeline, schedule.makespan);
        for kind in ComponentKind::ALL {
            let idle: u64 = schedule
                .timeline
                .idle_intervals(kind, schedule.makespan)
                .iter()
                .map(CycleInterval::len)
                .sum();
            assert_eq!(histogram.total_idle_cycles(kind), idle, "{kind:?}");
            for bucket in histogram.buckets(kind) {
                assert!(bucket.count > 0);
                assert!(bucket.total_cycles >= bucket.count * bucket.lower);
                assert!(bucket.lower < bucket.upper);
            }
        }
    }

    #[test]
    fn merge_coalesces_overlapping_records() {
        let mut tl = BusyTimeline::default();
        tl.record(ComponentKind::Vu, 10, 20);
        tl.record(ComponentKind::Vu, 15, 30);
        tl.record(ComponentKind::Vu, 30, 40);
        tl.record(ComponentKind::Vu, 50, 60);
        tl.record(ComponentKind::Vu, 55, 55); // empty: dropped
        tl.finalize();
        assert_eq!(
            tl.intervals(ComponentKind::Vu),
            &[CycleInterval { start: 10, end: 40 }, CycleInterval { start: 50, end: 60 }]
        );
        assert_eq!(tl.busy_cycles(ComponentKind::Vu), 40);
        let gaps = tl.idle_intervals(ComponentKind::Vu, 100);
        assert_eq!(
            gaps,
            vec![
                CycleInterval { start: 0, end: 10 },
                CycleInterval { start: 40, end: 50 },
                CycleInterval { start: 60, end: 100 },
            ]
        );
    }

    fn gather_op(main: u64) -> OpPhases {
        OpPhases {
            unit: Resource::HbmDma.into(),
            main_cycles: main,
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: 0,
            producers: Vec::new(),
            collective: None,
        }
    }

    #[test]
    fn prefetch_never_delays_a_gather() {
        // Regression: op 1's prefetch used to be seeded at cycle 0 and
        // occupy the single HBM/DMA track before op 0 — a gather whose
        // *main* phase is the transfer — could issue, delaying the
        // producer chain by the entire prefetch. Demand traffic now runs
        // on its own channel.
        let schedule =
            TimelineEngine::new(OpPhases::chain(vec![gather_op(1000), sa_op(800, 500)])).run();
        let [g, s] = [schedule.ops[0], schedule.ops[1]];
        assert_eq!(g.main_start, 0, "the gather issues immediately");
        assert!(s.main_start >= g.finish, "the consumer still waits for its producer");
        // Serial: (1000 + 10) + (max(800, 500) + 10).
        assert!(schedule.makespan <= 1010 + 810, "makespan {} exceeds serial", schedule.makespan);
    }

    #[test]
    fn gathers_are_not_stuck_behind_a_long_speculative_prefetch() {
        // A huge prefetch admitted early (op 1, buffer-free) must not push
        // back the demand gathers of ops 2-3 on the producer chain.
        let ops = OpPhases::chain(vec![
            sa_op(50, 40),
            sa_op(50, 100_000),
            gather_op(200),
            gather_op(200),
        ]);
        let schedule = TimelineEngine::new(ops).run();
        let serial: u64 = (50 + 10) + (100_000 + 10) + (200 + 10) + (200 + 10);
        assert!(
            schedule.makespan <= serial,
            "makespan {} exceeds serial {serial}",
            schedule.makespan
        );
        // Each gather issues as soon as its producer finishes.
        assert_eq!(schedule.ops[2].main_start, schedule.ops[1].finish);
        assert_eq!(schedule.ops[3].main_start, schedule.ops[2].finish);
    }

    #[test]
    fn fused_vu_longer_than_compute_extends_the_op() {
        // Regression: fused post-processing outlasting the SA compute used
        // to leak a VU busy interval past the operator's finish (and, on
        // the last operator, past the makespan).
        let mut op = sa_op(100, 50);
        op.fused_vu_cycles = 700;
        let schedule = TimelineEngine::new(vec![op]).run();
        let s = schedule.ops[0];
        assert!(s.finish >= s.main_start + 10 + 700, "finish covers the fused tail");
        assert_eq!(schedule.makespan, s.finish);
        let total = schedule.makespan;
        for kind in ComponentKind::ALL {
            let busy = schedule.timeline.busy_cycles(kind);
            assert!(busy <= total, "{kind:?}: busy {busy} leaks past makespan {total}");
            let idle: u64 =
                schedule.timeline.idle_intervals(kind, total).iter().map(CycleInterval::len).sum();
            assert_eq!(busy + idle, total, "{kind:?}");
        }
    }

    #[test]
    fn independent_sources_overlap_across_units() {
        // A gather and an SA op with no edge between them must run
        // concurrently; chained, they would serialize.
        let dag = TimelineEngine::new(vec![gather_op(1000), sa_op(1000, 0)]).run();
        assert_eq!(dag.ops[0].main_start, 0);
        assert_eq!(dag.ops[1].main_start, 0);
        assert!(dag.makespan <= 1010, "independent ops serialized: {}", dag.makespan);
        let chained =
            TimelineEngine::new(OpPhases::chain(vec![gather_op(1000), sa_op(1000, 0)])).run();
        assert!(chained.makespan >= 2 * 1010 - 10);
    }

    #[test]
    fn fan_in_waits_for_every_producer() {
        // Diamond: 0 -> {1, 2} -> 3. Op 3 must wait for the slower branch.
        let mut ops = vec![sa_op(100, 0), gather_op(5000), sa_op(200, 0), sa_op(50, 0)];
        ops[1].producers = vec![0];
        ops[2].producers = vec![0];
        ops[3].producers = vec![1, 2];
        let schedule = TimelineEngine::new(ops).run();
        let [a, g, b, join] = [schedule.ops[0], schedule.ops[1], schedule.ops[2], schedule.ops[3]];
        assert!(g.main_start >= a.finish && b.main_start >= a.finish);
        assert_eq!(g.main_start, b.main_start, "both branches start when the source finishes");
        assert!(join.main_start >= g.finish.max(b.finish), "the join waits for both branches");
        assert!(g.finish > b.finish, "the gather is the slow branch in this topology");
    }

    #[test]
    fn fan_out_branches_share_a_resource_in_issue_order() {
        // 0 -> {1, 2}, both SA: the branches contend for the SA gang and
        // serialize on it, but neither waits for the other's *completion*
        // dependency-wise (op 2 issues the moment the SA frees up).
        let mut ops = vec![sa_op(100, 0), sa_op(1000, 0), sa_op(1000, 0)];
        ops[1].producers = vec![0];
        ops[2].producers = vec![0];
        let schedule = TimelineEngine::new(ops).run();
        let [_, b, c] = [schedule.ops[0], schedule.ops[1], schedule.ops[2]];
        assert_eq!(c.main_start, b.main_start + 10 + 1000, "SA issues back to back");
        assert!(schedule.makespan < 3 * 1010 + 10, "dispatch of the branches overlaps");
    }

    #[test]
    fn fused_tail_queues_behind_an_in_flight_vu_op() {
        // Regression: with DAG overlap, an SA op's fused VU tail and an
        // independent VU op can be in flight at once; the single VU gang
        // must serialize them instead of being double-booked.
        let vu = OpPhases {
            unit: Resource::Vu.into(),
            main_cycles: 10_000,
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: 0,
            producers: Vec::new(),
            collective: None,
        };
        let mut sa = sa_op(100, 0);
        sa.fused_vu_cycles = 5000;
        let schedule = TimelineEngine::new(vec![vu, sa]).run();
        let [v, s] = [schedule.ops[0], schedule.ops[1]];
        assert_eq!(v.main_end, 10_010);
        assert_eq!(s.finish, 15_010, "the fused tail starts only when the VU frees up");
        assert_eq!(
            schedule.timeline.busy_cycles(ComponentKind::Vu),
            15_000,
            "one VU gang cannot run the fused tail and the VU op at once"
        );
        assert_eq!(schedule.makespan, 15_010);
    }

    #[test]
    fn release_times_hold_back_every_phase() {
        // Two independent requests: the second is released at cycle 50,000,
        // long after the first finishes. Neither its prefetch nor its main
        // phase may start earlier, and the gap must surface as SA idle time.
        let schedule = TimelineEngine::new(vec![sa_op(1000, 400), sa_op(1000, 400)])
            .run_with_scratch(&[0, 50_000], &mut EngineScratch::default());
        let [a, b] = [schedule.ops[0], schedule.ops[1]];
        assert!(a.finish < 50_000, "the first request finishes well before the release");
        assert!(b.dma_start >= 50_000, "prefetch ran before the request arrived");
        assert!(b.main_start >= 50_000, "main phase ran before the request arrived");
        // The inter-request gap is a real idle interval on the SA track.
        let gaps = schedule.timeline.idle_intervals(ComponentKind::Sa, schedule.makespan);
        assert!(
            gaps.iter().any(|g| g.len() > 40_000),
            "no long inter-request idle interval: {gaps:?}"
        );
    }

    #[test]
    fn releases_at_or_below_the_natural_start_are_the_identity() {
        // Re-running a chain with each operator's release pinned to the
        // start it naturally achieved must reproduce the schedule exactly:
        // the release clamp only ever *delays* issue, it never reorders a
        // schedule that already satisfies it.
        let ops = OpPhases::chain(vec![sa_op(300, 500), sa_op(40, 700), sa_op(900, 100)]);
        let engine = TimelineEngine::new(ops);
        let mut scratch = EngineScratch::default();
        let base = engine.run_with_scratch(&[], &mut scratch);
        let releases: Vec<u64> = base.ops.iter().map(|s| s.span_start()).collect();
        let with_releases = engine.run_with_scratch(&releases, &mut scratch);
        assert_eq!(base.ops, with_releases.ops);
        assert_eq!(base.makespan, with_releases.makespan);
        assert_eq!(base.timeline, with_releases.timeline);
    }

    #[test]
    fn release_later_than_producer_finish_delays_the_consumer() {
        // Chain 0 -> 1, but op 1's request only arrives at 10,000 even
        // though op 0 finishes much earlier.
        let ops = OpPhases::chain(vec![sa_op(100, 0), sa_op(100, 0)]);
        let schedule =
            TimelineEngine::new(ops).run_with_scratch(&[0, 10_000], &mut EngineScratch::default());
        assert!(schedule.ops[0].finish < 1000);
        assert_eq!(schedule.ops[1].main_start, 10_000);
    }

    #[test]
    fn union_intervals_merge_across_components() {
        let mut tl = BusyTimeline::default();
        tl.record(ComponentKind::Sa, 0, 10);
        tl.record(ComponentKind::Vu, 5, 20);
        tl.record(ComponentKind::Hbm, 40, 50);
        tl.finalize();
        let union = tl.union_intervals(&[ComponentKind::Sa, ComponentKind::Vu, ComponentKind::Hbm]);
        assert_eq!(
            union,
            vec![CycleInterval { start: 0, end: 20 }, CycleInterval { start: 40, end: 50 }]
        );
        assert_eq!(
            tl.union_busy_cycles(&[ComponentKind::Sa, ComponentKind::Vu, ComponentKind::Hbm]),
            30
        );
        assert_eq!(tl.union_busy_cycles(&[ComponentKind::Ici]), 0);
    }

    #[test]
    #[should_panic(expected = "not a topological order")]
    fn forward_producer_edges_are_rejected() {
        let mut ops = vec![sa_op(100, 0), sa_op(100, 0)];
        ops[0].producers = vec![1];
        let _ = TimelineEngine::new(ops);
    }

    #[test]
    fn ici_op_does_not_prefetch() {
        let ops = vec![OpPhases {
            unit: Resource::Ici.into(),
            main_cycles: 500,
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: 0,
            producers: Vec::new(),
            collective: None,
        }];
        let schedule = TimelineEngine::new(ops).run();
        assert_eq!(schedule.makespan, 510);
        assert_eq!(schedule.timeline.busy_cycles(ComponentKind::Ici), 500);
        assert_eq!(schedule.timeline.busy_cycles(ComponentKind::Hbm), 0);
        assert_eq!(schedule.timeline.busy_cycles(ComponentKind::Dma), 500);
    }

    #[test]
    fn single_chip_resource_ids_match_enum_order() {
        let set = ResourceSet::single_chip();
        assert_eq!(set.num_resources(), 4);
        for kind in [Resource::Sa, Resource::Vu, Resource::HbmDma, Resource::Ici] {
            let id = ResourceId::from(kind);
            assert_eq!(set.unit(0, kind), id);
            assert_eq!(set.kind(id), kind);
            assert_eq!(set.chip_of(id), Some(0));
            assert_eq!(set.link_of(id), None);
        }
    }

    #[test]
    fn pod_layout_places_links_after_chip_units() {
        let set = ResourceSet::pod(4, 8);
        assert_eq!(set.num_resources(), 4 * 4 + 8);
        assert_eq!(set.unit(3, Resource::Ici), ResourceId(15));
        assert_eq!(set.link(0), ResourceId(16));
        assert_eq!(set.kind(set.link(7)), Resource::Ici);
        assert_eq!(set.chip_of(set.link(3)), None);
        assert_eq!(set.link_of(set.link(3)), Some(3));
        assert_eq!(set.link_of(set.unit(2, Resource::Vu)), None);
        assert_eq!(set.chip_of(set.unit(2, Resource::Vu)), Some(2));
    }

    #[test]
    fn chips_of_a_pod_compute_concurrently() {
        // The same two independent SA ops that would serialize on one
        // chip's array run fully overlapped on two chips.
        let set = ResourceSet::pod(2, 0);
        let mut a = sa_op(1000, 0);
        let mut b = sa_op(1000, 0);
        a.unit = set.unit(0, Resource::Sa);
        b.unit = set.unit(1, Resource::Sa);
        let schedule = TimelineEngine::with_resources(vec![a, b], set).run();
        assert_eq!(schedule.ops[0].main_start, 0);
        assert_eq!(schedule.ops[1].main_start, 0, "chip 1's SA is its own resource");
        assert_eq!(schedule.makespan, 1010);
        let sa0 = set.unit(0, Resource::Sa);
        let sa1 = set.unit(1, Resource::Sa);
        assert_eq!(schedule.resource_timeline.busy_cycles(sa0), 1000);
        assert_eq!(schedule.resource_timeline.busy_cycles(sa1), 1000);
    }

    #[test]
    fn collectives_sharing_a_link_serialize() {
        // Two independent collectives gang-occupy the same two-link ring:
        // the engine must serialize them on the shared links instead of
        // double-booking, and each link's busy track must show both.
        let set = ResourceSet::pod(2, 2);
        let links = vec![set.link(0), set.link(1)];
        let coll = || OpPhases {
            unit: set.link(0),
            main_cycles: 1000,
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: 0,
            producers: Vec::new(),
            collective: Some(Box::new(CollectiveSchedule {
                links: links.clone(),
                step_cycles: vec![500, 500],
            })),
        };
        let schedule = TimelineEngine::with_resources(vec![coll(), coll()], set).run();
        let [a, b] = [schedule.ops[0], schedule.ops[1]];
        assert_eq!(a.main_end, 1010);
        assert!(b.main_start >= a.main_end, "shared links must serialize the collectives");
        assert_eq!(schedule.makespan, 2020);
        for &link in &links {
            assert_eq!(schedule.resource_timeline.busy_cycles(link), 2000);
        }
        assert_eq!(schedule.timeline.busy_cycles(ComponentKind::Ici), 2000);
    }

    #[test]
    fn single_chip_resource_tracks_mirror_the_component_timeline() {
        // Single-chip runs derive the per-resource tracks from the
        // kind-level timeline instead of recording them live (the hot
        // loop skips the doubled recording); the published equivalence —
        // unit track == component track — must hold on a schedule that
        // exercises every unit kind plus a fused VU tail.
        let mut sa = sa_op(800, 400);
        sa.fused_vu_cycles = 300;
        let gather = gather_op(500);
        let ici = OpPhases {
            unit: Resource::Ici.into(),
            main_cycles: 600,
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: 0,
            producers: Vec::new(),
            collective: None,
        };
        let schedule = TimelineEngine::new(OpPhases::chain(vec![sa, gather, ici])).run();
        let set = schedule.resources;
        assert_eq!(set, ResourceSet::single_chip());
        for (kind, component) in [
            (Resource::Sa, ComponentKind::Sa),
            (Resource::Vu, ComponentKind::Vu),
            (Resource::HbmDma, ComponentKind::Hbm),
            (Resource::Ici, ComponentKind::Ici),
        ] {
            let unit = set.unit(0, kind);
            assert_eq!(
                schedule.resource_timeline.track(unit),
                schedule.timeline.intervals(component),
                "{kind:?} unit track must equal the {component:?} component track"
            );
            assert!(schedule.resource_timeline.busy_cycles(unit) > 0, "{kind:?} was exercised");
        }
    }

    #[test]
    fn chip_idle_intervals_surface_pipeline_bubbles() {
        // Chip 1 runs one op in the middle of a long chip-0 stream: its
        // whole-chip idle view is the leading and trailing bubble.
        let set = ResourceSet::pod(2, 0);
        let mut ops = OpPhases::chain(vec![sa_op(1000, 0), sa_op(1000, 0), sa_op(1000, 0)]);
        ops[1].unit = set.unit(1, Resource::Sa);
        let schedule = TimelineEngine::with_resources(ops, set).run();
        let bubbles = schedule.resource_timeline.chip_idle_intervals(&set, 1, schedule.makespan);
        assert_eq!(bubbles.len(), 2, "leading and trailing whole-chip bubbles: {bubbles:?}");
        assert!(bubbles[0].len() >= 1000 && bubbles[1].len() >= 1000);
    }
}
