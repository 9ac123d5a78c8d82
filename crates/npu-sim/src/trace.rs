//! Chrome trace-event export of an observed engine run.
//!
//! [`TraceRecorder`] implements [`SimObserver`] and materializes the hook
//! stream into *display tracks*: one per resource instance of the run's
//! [`ResourceSet`] (each chip's SA/VU/HBM-DMA/ICI unit, each fabric
//! link), plus one per chip's DMA *prefetch channel* — prefetches and
//! demand gathers share the HBM-DMA unit's busy track in the timeline but
//! are separate in-order queues in the engine, so rendering them on one
//! display track would show false overlap. Serving batches ride along as
//! flow events, and power waveforms (see `npu_power`'s telemetry layer)
//! attach as counter tracks.
//!
//! [`TraceRecorder::chrome_json`] renders everything as Chrome
//! trace-event JSON (the `{"traceEvents": [...]}` object form), directly
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>. The
//! writer is hand-rolled and fully deterministic: two observed runs of
//! the same prepared engine produce byte-identical exports.

use std::fmt::Write as _;

use crate::observer::SimObserver;
use crate::timeline::{merge_intervals, CycleInterval, Resource, ResourceId, ResourceSet};

/// One busy slice on a display track: resource occupancy on behalf of
/// one operator over `[start, end)` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSlice {
    /// Operator (anchor index) the occupancy belongs to.
    pub op: usize,
    /// First busy cycle.
    pub start: u64,
    /// First cycle after the slice.
    pub end: u64,
}

/// A named counter track: `(cycle, value)` samples of a step function,
/// rendered as Chrome `"C"` (counter) events. Cycles are `f64` because
/// power-state boundaries (idle-detection windows) can be fractional.
#[derive(Debug, Clone, PartialEq)]
struct CounterTrack {
    name: String,
    unit: String,
    samples: Vec<(f64, f64)>,
}

/// One serving batch as a flow: dispatched at `dispatch`, completed at
/// `completion`, rendered as an `"X"` span plus `"s"`/`"f"` flow events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BatchFlow {
    index: usize,
    dispatch: u64,
    completion: u64,
}

/// A [`SimObserver`] that records every occupancy hook into per-resource
/// display tracks and renders them as Chrome trace-event JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecorder {
    resources: ResourceSet,
    /// One track per resource instance, indexed by [`ResourceId`].
    unit_slices: Vec<Vec<TraceSlice>>,
    /// One track per chip's DMA prefetch channel.
    prefetch_slices: Vec<Vec<TraceSlice>>,
    counters: Vec<CounterTrack>,
    batches: Vec<BatchFlow>,
}

impl TraceRecorder {
    /// An empty recorder sized for a resource set.
    #[must_use]
    pub fn for_set(set: &ResourceSet) -> Self {
        TraceRecorder {
            resources: *set,
            unit_slices: vec![Vec::new(); set.num_resources()],
            prefetch_slices: vec![Vec::new(); set.num_chips()],
            counters: Vec::new(),
            batches: Vec::new(),
        }
    }

    /// The resource set the recorder's tracks are addressed against.
    #[must_use]
    pub fn resources(&self) -> ResourceSet {
        self.resources
    }

    /// Recorded slices of one resource's display track, in hook order.
    #[must_use]
    pub fn unit_slices(&self, id: ResourceId) -> &[TraceSlice] {
        self.unit_slices.get(id.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Recorded slices of one chip's prefetch-channel display track.
    #[must_use]
    pub fn prefetch_slices(&self, chip: usize) -> &[TraceSlice] {
        self.prefetch_slices.get(chip).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total recorded slices across every display track.
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.unit_slices.iter().chain(self.prefetch_slices.iter()).map(Vec::len).sum()
    }

    /// Injects a raw slice onto a resource's display track, bypassing the
    /// observer hooks. Exists for the `obs.*` analyzer-rule fixtures,
    /// which need *broken* exports (overlaps, out-of-window events,
    /// timeline disagreements) that no real observed run produces.
    pub fn record_raw_slice(&mut self, id: ResourceId, op: usize, start: u64, end: u64) {
        if id.index() < self.unit_slices.len() {
            self.unit_slices[id.index()].push(TraceSlice { op, start, end });
        }
    }

    /// Attaches a named counter track (rendered as `"C"` events), e.g. a
    /// component's watts-over-time waveform. `unit` labels the value in
    /// the event args (`"watts"`, `"events"`, …).
    pub fn add_counter_track(
        &mut self,
        name: impl Into<String>,
        unit: impl Into<String>,
        samples: Vec<(f64, f64)>,
    ) {
        self.counters.push(CounterTrack { name: name.into(), unit: unit.into(), samples });
    }

    /// Attaches one serving batch as a flow event from its dispatch cycle
    /// to its completion cycle.
    pub fn add_batch_flow(&mut self, index: usize, dispatch: u64, completion: u64) {
        self.batches.push(BatchFlow { index, dispatch, completion });
    }

    /// Every display track as `(name, slices)`, units first (in dense-id
    /// order), then the per-chip prefetch channels — the per-track view
    /// the `obs.*` analyzer rules walk.
    #[must_use]
    pub fn display_tracks(&self) -> Vec<(String, &[TraceSlice])> {
        let mut tracks = Vec::with_capacity(self.unit_slices.len() + self.prefetch_slices.len());
        for (index, slices) in self.unit_slices.iter().enumerate() {
            tracks.push((self.track_name(ResourceId(index as u32)), slices.as_slice()));
        }
        for (chip, slices) in self.prefetch_slices.iter().enumerate() {
            tracks.push((format!("chip{chip}.prefetch"), slices.as_slice()));
        }
        tracks
    }

    /// The merged busy intervals a resource's recorded slices imply: the
    /// unit track plus — for HBM-DMA units — the owning chip's prefetch
    /// channel, coalesced exactly like the engine's own
    /// `ResourceTimeline` finalization. Record-for-record agreement with
    /// the schedule's finalized track is the `obs.timeline-mismatch`
    /// analyzer contract.
    #[must_use]
    pub fn merged_resource_intervals(&self, id: ResourceId) -> Vec<CycleInterval> {
        let mut intervals: Vec<CycleInterval> = self
            .unit_slices(id)
            .iter()
            .filter(|s| s.end > s.start)
            .map(|s| CycleInterval { start: s.start, end: s.end })
            .collect();
        if self.resources.kind(id) == Resource::HbmDma {
            if let Some(chip) = self.resources.chip_of(id) {
                intervals.extend(
                    self.prefetch_slices(chip)
                        .iter()
                        .filter(|s| s.end > s.start)
                        .map(|s| CycleInterval { start: s.start, end: s.end }),
                );
            }
        }
        merge_intervals(&mut intervals);
        intervals
    }

    /// Display name of one resource's track.
    #[must_use]
    pub fn track_name(&self, id: ResourceId) -> String {
        if let Some(link) = self.resources.link_of(id) {
            return format!("link{link}");
        }
        let chip = self.resources.chip_of(id).unwrap_or(0);
        let kind = match self.resources.kind(id) {
            Resource::Sa => "sa",
            Resource::Vu => "vu",
            Resource::HbmDma => "hbm",
            Resource::Ici => "ici",
        };
        format!("chip{chip}.{kind}")
    }

    /// Renders the recorded run as Chrome trace-event JSON (object form),
    /// loadable in `chrome://tracing` and Perfetto. Timestamps and
    /// durations are in *cycles* (the trace viewer's "µs" unit label is
    /// cosmetic). Output is deterministic byte for byte.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let num_units = self.unit_slices.len();
        let num_chips = self.prefetch_slices.len();
        let batch_tid = num_units + num_chips;
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |event: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&event);
        };
        push(
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"npu-sim\"}}"
                .to_string(),
            &mut out,
        );
        for index in 0..num_units {
            push(thread_metadata(index, &self.track_name(ResourceId(index as u32))), &mut out);
        }
        for chip in 0..num_chips {
            push(thread_metadata(num_units + chip, &format!("chip{chip}.prefetch")), &mut out);
        }
        if !self.batches.is_empty() {
            push(thread_metadata(batch_tid, "batches"), &mut out);
        }
        for (index, slices) in self.unit_slices.iter().enumerate() {
            for s in slices {
                push(complete_event(index, s), &mut out);
            }
        }
        for (chip, slices) in self.prefetch_slices.iter().enumerate() {
            for s in slices {
                push(complete_event(num_units + chip, s), &mut out);
            }
        }
        for b in &self.batches {
            let dur = b.completion.saturating_sub(b.dispatch);
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{batch_tid},\"ts\":{},\"dur\":{dur},\
                     \"name\":\"batch{}\",\"cat\":\"serving\"}}",
                    b.dispatch, b.index
                ),
                &mut out,
            );
            push(
                format!(
                    "{{\"ph\":\"s\",\"pid\":0,\"tid\":{batch_tid},\"ts\":{},\"id\":{},\
                     \"name\":\"batch\",\"cat\":\"serving\"}}",
                    b.dispatch, b.index
                ),
                &mut out,
            );
            push(
                format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{batch_tid},\"ts\":{},\
                     \"id\":{},\"name\":\"batch\",\"cat\":\"serving\"}}",
                    b.completion, b.index
                ),
                &mut out,
            );
        }
        for track in &self.counters {
            for &(ts, value) in &track.samples {
                push(
                    format!(
                        "{{\"ph\":\"C\",\"pid\":0,\"ts\":{ts},\"name\":{},\"args\":{{{}:{value}}}}}",
                        json_string(&track.name),
                        json_string(&track.unit)
                    ),
                    &mut out,
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A `thread_name` metadata event naming one display track.
fn thread_metadata(tid: usize, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
        json_string(name)
    )
}

/// An `"X"` (complete) event for one busy slice.
fn complete_event(tid: usize, s: &TraceSlice) -> String {
    format!(
        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"op{}\"}}",
        s.start,
        s.end.saturating_sub(s.start),
        s.op
    )
}

/// Quotes and escapes a string as an RFC 8259 JSON string literal: `"`
/// and `\\` are backslash-escaped, `\n`/`\r`/`\t` use their short
/// escapes, other control characters below U+0020 become `\u00XX`, and
/// everything else passes through unchanged.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl SimObserver for TraceRecorder {
    fn resource_busy(&mut self, id: ResourceId, op: usize, start: u64, end: u64) {
        // Empty slices (an SA phase with zero active cycles) match the
        // timeline's `record` semantics by being dropped.
        if end > start && id.index() < self.unit_slices.len() {
            self.unit_slices[id.index()].push(TraceSlice { op, start, end });
        }
    }

    fn dma_transfer(&mut self, op: usize, chip: usize, start: u64, end: u64) {
        if end > start && chip < self.prefetch_slices.len() {
            self.prefetch_slices[chip].push(TraceSlice { op, start, end });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_names_cover_units_links_and_prefetch() {
        let set = ResourceSet::pod(2, 3);
        let rec = TraceRecorder::for_set(&set);
        assert_eq!(rec.track_name(set.unit(0, Resource::Sa)), "chip0.sa");
        assert_eq!(rec.track_name(set.unit(1, Resource::HbmDma)), "chip1.hbm");
        assert_eq!(rec.track_name(set.link(2)), "link2");
        let tracks = rec.display_tracks();
        assert_eq!(tracks.len(), set.num_resources() + 2);
        assert_eq!(tracks.last().expect("prefetch track").0, "chip1.prefetch");
    }

    #[test]
    fn recorder_drops_empty_slices_and_merges_prefetch_into_hbm() {
        let set = ResourceSet::single_chip();
        let mut rec = TraceRecorder::for_set(&set);
        let hbm = set.unit(0, Resource::HbmDma);
        rec.resource_busy(hbm, 0, 100, 100); // empty → dropped
        rec.resource_busy(hbm, 1, 200, 300); // demand gather
        rec.dma_transfer(2, 0, 250, 400); // overlapping prefetch
        assert_eq!(rec.unit_slices(hbm).len(), 1);
        assert_eq!(rec.prefetch_slices(0).len(), 1);
        let merged = rec.merged_resource_intervals(hbm);
        assert_eq!(merged, vec![CycleInterval { start: 200, end: 400 }]);
    }

    #[test]
    fn chrome_json_is_object_form_with_metadata() {
        let set = ResourceSet::single_chip();
        let mut rec = TraceRecorder::for_set(&set);
        rec.resource_busy(set.unit(0, Resource::Sa), 0, 10, 20);
        rec.add_batch_flow(0, 5, 25);
        rec.add_counter_track("power.sa", "watts", vec![(0.0, 12.5), (10.0, 40.0)]);
        let json = rec.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("\n]}\n"));
        assert!(json.contains("\"name\":\"chip0.sa\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"power.sa\""));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(json, rec.chrome_json());
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("a\tb\r"), "\"a\\tb\\r\"");
    }
}
