//! Batch-aware replay: isolated batches are stamped from a recorded
//! schedule instead of being run through the event loop.
//!
//! A serving trace concatenates batches that share a handful of templates
//! (one per request count). The engine is deterministic and counts in
//! integer cycles, and none of its rules depends on absolute time, so a
//! batch that runs alone on an idle chip always produces its template's
//! schedule shifted by its dispatch cycle. [`TimelineEngine::run_batches`]
//! uses that: when the clock reaches a batch's dispatch cycle `D` and
//!
//! 1. every operator of the earlier batches has retired (so each finished
//!    strictly before `D` and every resource is free), and
//! 2. `D` plus the recorded makespan falls strictly before the next
//!    batch's dispatch (so no later event fires while it runs),
//!
//! the batch is *isolated*: its pending events are taken off the queue and
//! its recorded schedule is written in their place, shifted by `D`. Every
//! other batch runs through the event loop with the usual `(cycle,
//! sequence)` tie order, so the result equals
//! [`TimelineEngine::run_with_scratch`]'s on the same releases — every
//! phase time, busy interval and [`crate::timeline::RunCounters`] field.
//!
//! What a batch does in the event loop also depends on the order of the
//! events that start it: the seeded sources, and the prefetches whose DMA
//! buffers earlier batches released (in the order those owners retired).
//! The very first batch gets its first prefetches as seeds, ahead of its
//! sources; later ones get them afterwards, off the heap. So a
//! [`BatchStamps`] keeps one recording per distinct start: the exact
//! start events, replayed alone on a scoped run of the same engine (no
//! separate preparation), from which the schedule, the busy intervals,
//! the counters and the heap-length profile are kept. Stamping adds the
//! events the full loop would have popped, and the heap peak it would
//! have seen given the events of later batches waiting on the heap. It
//! then fires the DMA-buffer edges into later batches in the order their
//! owners retired.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use crate::events::{EventKind, ScheduledEvent};
use crate::observer::NullObserver;
use crate::timeline::{
    BusyTimeline, EngineRun, EngineScratch, OpPhases, ResourceTimeline, RunCounters, Schedule,
    ScheduledOp, TimelineEngine,
};

/// One batch of a batch-aware replay: a contiguous range of operators
/// (anchor indices) that share one release cycle, and the recordings of
/// the template the range was built from.
#[derive(Debug, Clone)]
pub struct ReplayBatch<'a> {
    /// Operators of the batch, in topological order.
    pub anchors: Range<usize>,
    /// Recorded schedules of the batch's template. Every range that shares
    /// one `BatchStamps` must have the same phases (producers relative to
    /// the range start), like copies of one compiled template do.
    pub stamps: &'a BatchStamps,
}

/// The recorded schedules of one batch template, one per distinct set of
/// start events (see the [module docs](self)). Filled lazily by
/// [`TimelineEngine::run_batches`] and shared by every replay whose
/// batches come from the template.
#[derive(Debug, Default)]
pub struct BatchStamps {
    recorded: Mutex<Vec<Arc<BatchSchedule>>>,
}

impl BatchStamps {
    /// Number of start variants recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while recording.
    #[must_use]
    pub fn recorded(&self) -> usize {
        self.recorded.lock().expect("batch stamps").len()
    }
}

/// One batch run alone from one set of start events, on a clock that
/// starts at the batch's dispatch.
#[derive(Debug)]
struct BatchSchedule {
    /// The start events (ops relative to the batch) and whether each
    /// waited in the seed list: the recording's key.
    start: Vec<(EventKind, bool)>,
    /// [`shape_digest`] of the phases it was recorded over.
    shape: u64,
    ops: Vec<ScheduledOp>,
    makespan: u64,
    /// Merged busy intervals, without the always-on track.
    timeline: BusyTimeline,
    /// Merged per-resource tracks (empty on a single chip, whose view is
    /// derived from `timeline`).
    tracks: ResourceTimeline,
    /// Counters of the recording run (its heap peak lives in
    /// `heap_after`).
    counters: RunCounters,
    /// Index of the pop that retired each operator.
    retire_pop: Vec<usize>,
    /// `heap_after[i]`: the largest heap length sampled before pop `i` or
    /// any later pop of the batch itself.
    heap_after: Vec<u64>,
}

impl BatchSchedule {
    fn matches(&self, base: usize, taken: &[(ScheduledEvent, bool)]) -> bool {
        self.start.len() == taken.len()
            && self.start.iter().zip(taken).all(|(&(kind, seed), (ev, from_seeds))| {
                kind == ev.kind.relative_to(base) && seed == *from_seeds
            })
    }
}

/// `phases[range]` with producers counted from the range start.
fn relative_phases(phases: &[OpPhases], range: Range<usize>) -> Vec<OpPhases> {
    phases[range.clone()]
        .iter()
        .map(|p| OpPhases {
            producers: p.producers.iter().map(|&q| q - range.start).collect(),
            ..p.clone()
        })
        .collect()
}

/// FNV-1a over every field of `phases[range]`, producers counted from the
/// range start: equal for every range copied from one template.
fn shape_digest(phases: &[OpPhases], range: Range<usize>) -> u64 {
    let mut digest = 0xCBF2_9CE4_8422_2325_u64;
    let mut push = |word: u64| digest = (digest ^ word).wrapping_mul(0x0100_0000_01B3);
    for p in &phases[range.clone()] {
        for word in [
            u64::from(p.unit.0),
            p.main_cycles,
            p.dma_cycles,
            p.dma_lead_cycles,
            p.fused_vu_cycles,
            p.dispatch_cycles,
            p.sa_active_cycles,
            p.producers.len() as u64,
        ] {
            push(word);
        }
        p.producers.iter().for_each(|&q| push((q - range.start) as u64));
        if let Some(c) = &p.collective {
            c.links.iter().for_each(|link| push(u64::from(link.0)));
            c.step_cycles.iter().for_each(|&step| push(step));
        }
    }
    digest
}

impl TimelineEngine {
    /// Runs the event loop like [`TimelineEngine::run_with_scratch`], but
    /// stamps every isolated batch from its template's recorded schedule
    /// instead of popping its events (see the [module docs](self)). The
    /// schedule equals `run_with_scratch(releases, ..)`'s exactly. Returns
    /// it with the number of batches stamped.
    ///
    /// # Panics
    ///
    /// Panics if `releases` does not have one entry per operator, if the
    /// batches do not tile the operators in order, or if a producer edge
    /// crosses from one batch into another.
    #[must_use]
    pub fn run_batches(
        &self,
        releases: &[u64],
        batches: &[ReplayBatch<'_>],
        scratch: &mut EngineScratch,
    ) -> (Schedule, usize) {
        let n = self.phases().len();
        assert_eq!(releases.len(), n, "a batched replay needs one release per operator");
        let mut end = 0;
        for batch in batches {
            assert!(
                batch.anchors.start == end && batch.anchors.end > end,
                "batches must tile the operators in order: {:?} follows {end}",
                batch.anchors
            );
            end = batch.anchors.end;
        }
        assert_eq!(end, n, "batches cover {end} of {n} operators");

        let mut run = self.begin(releases, scratch);
        run.seed_all(&mut NullObserver);
        let (mut next, mut stamped) = (0, 0);
        let mut buffers = StampBuffers::default();
        loop {
            // Each batch is considered once, just before the first pop at
            // or after its dispatch cycle.
            while let (Some(batch), Some(at)) = (batches.get(next), run.queue.next_at()) {
                if at < releases[batch.anchors.start] {
                    break;
                }
                next += 1;
                if stamp(&mut run, batch, batches.get(next), &mut buffers) {
                    stamped += 1;
                }
            }
            run.counters.heap_peak = run.counters.heap_peak.max(run.queue.heap_len() as u64);
            let Some(ev) = run.queue.pop() else { break };
            run.counters.events_popped += 1;
            run.dispatch(ev.kind, ev.at, &mut NullObserver);
        }
        assert_eq!(
            run.counters.ops_retired, n as u64,
            "operators never retired: a producer edge crosses a stamped batch"
        );
        (run.finish(), stamped)
    }

    /// Runs the operators of `range` alone from the start events `taken`
    /// (absolute op indices, in pop order, tagged with whether each
    /// waited in the seed list), everything released at cycle 0, and keeps
    /// what stamping needs.
    fn record_batch(&self, range: Range<usize>, taken: &[(ScheduledEvent, bool)]) -> BatchSchedule {
        for (k, p) in self.phases()[range.clone()].iter().enumerate() {
            assert!(
                p.producers.iter().all(|&q| q >= range.start),
                "operator {}: a producer lies before its batch {range:?}",
                range.start + k
            );
        }
        // The batch on an engine of its own: its first prefetches have no
        // buffer owner there, like they have none inside the full engine.
        let engine = TimelineEngine::with_resources(
            relative_phases(self.phases(), range.clone()),
            self.resources(),
        );
        let mut scratch = EngineScratch::default();
        let mut run = engine.begin(&[], &mut scratch);
        for (state, p) in run.state.iter_mut().zip(engine.phases()) {
            state.pending_producers = p.producers.len();
        }
        let start: Vec<(EventKind, bool)> =
            taken.iter().map(|&(ev, seed)| (ev.kind.relative_to(range.start), seed)).collect();
        // Seeds first, then the heap events, each in its original order:
        // the pop order and the heap contents of the full run.
        for seeds in [true, false] {
            if !seeds {
                run.queue.start();
            }
            for &(kind, _) in start.iter().filter(|(_, from_seeds)| *from_seeds == seeds) {
                match kind {
                    EventKind::IssueDma { op } => {
                        run.state[op].buffer_ready = true;
                        run.state[op].dma_issued = true;
                    }
                    _ => run.state[kind.op()].main_issued = true,
                }
                run.queue.schedule(0, kind);
            }
        }
        let mut heap = Vec::new();
        let mut retire_pop = vec![usize::MAX; range.len()];
        loop {
            let heap_len = run.queue.heap_len() as u64;
            let Some(ev) = run.queue.pop() else { break };
            heap.push(heap_len);
            run.counters.events_popped += 1;
            let retired = run.counters.ops_retired;
            run.dispatch(ev.kind, ev.at, &mut NullObserver);
            if run.counters.ops_retired > retired {
                retire_pop[ev.kind.op()] = heap.len() - 1;
            }
        }
        assert_eq!(run.counters.ops_retired, range.len() as u64, "batch {range:?} never finished");
        for i in (1..heap.len()).rev() {
            heap[i - 1] = heap[i - 1].max(heap[i]);
        }
        let ops: Vec<ScheduledOp> = run.state.iter().map(|s| s.scheduled()).collect();
        let mut timeline = std::mem::take(&mut run.timeline);
        timeline.finalize();
        let mut tracks = std::mem::take(&mut run.tracks);
        tracks.finalize();
        BatchSchedule {
            start,
            shape: shape_digest(self.phases(), range),
            makespan: ops.iter().map(|s| s.finish).max().unwrap_or(0),
            ops,
            timeline,
            tracks,
            counters: std::mem::take(&mut run.counters),
            retire_pop,
            heap_after: heap,
        }
    }
}

/// Buffers one batched replay reuses across its stamps.
#[derive(Debug, Default)]
struct StampBuffers {
    /// The events a candidate batch starts from.
    taken: Vec<(ScheduledEvent, bool)>,
    /// Buffer edges out of a stamped batch: `(retiring pop, owner,
    /// consumer)`.
    edges: Vec<(usize, usize, usize)>,
}

/// Stamps `batch` if it is isolated, at the moment the clock reaches its
/// dispatch cycle; returns whether it did. Otherwise the queue is left as
/// it was and the batch runs through the event loop.
fn stamp(
    run: &mut EngineRun<'_>,
    batch: &ReplayBatch<'_>,
    next: Option<&ReplayBatch<'_>>,
    buffers: &mut StampBuffers,
) -> bool {
    let StampBuffers { taken, edges } = buffers;
    let range = batch.anchors.clone();
    let dispatch = run.release_of(range.start);
    let next_dispatch = next.map(|b| run.release_of(b.anchors.start));
    // Every earlier operator retired (so before `dispatch`: nothing at or
    // after it has popped yet), the next batch dispatches later, and the
    // whole batch shares one release.
    if run.counters.ops_retired != range.start as u64
        || next_dispatch.is_some_and(|d| d <= dispatch)
        || range.clone().any(|k| run.release_of(k) != dispatch)
    {
        return false;
    }
    // What is due now is this batch's start: its seeded sources and the
    // prefetches earlier batches freed buffers for, all clamped to
    // `dispatch`.
    taken.clear();
    run.queue.take_due(dispatch, taken);
    let starts_batch = taken.iter().all(|(ev, _)| {
        range.contains(&ev.kind.op())
            && matches!(ev.kind, EventKind::IssueDma { .. } | EventKind::IssueMain { .. })
    });
    let schedule = starts_batch
        .then(|| recorded(run.topo, batch, taken))
        .filter(|s| next_dispatch.is_none_or(|d| dispatch + s.makespan < d));
    let Some(schedule) = schedule else {
        run.queue.restore(taken);
        return false;
    };
    assert_eq!(schedule.ops.len(), range.len(), "batch {range:?} differs from its template");
    debug_assert_eq!(
        schedule.shape,
        shape_digest(run.topo.phases(), range.clone()),
        "batch {range:?} differs from its template"
    );

    for (state, op) in run.state[range.clone()].iter_mut().zip(&schedule.ops) {
        // An operator without a prefetch never sets its DMA times.
        if op.dma_end > op.dma_start {
            state.dma_start = op.dma_start + dispatch;
            state.dma_end = op.dma_end + dispatch;
        }
        state.main_start = op.main_start + dispatch;
        state.main_end = op.main_end + dispatch;
        state.finish = op.finish + dispatch;
        state.finished = true;
    }
    run.timeline.extend_shifted(&schedule.timeline, dispatch);
    run.tracks.extend_shifted(&schedule.tracks, dispatch);
    let (counters, own) = (&mut run.counters, &schedule.counters);
    counters.events_popped += own.events_popped;
    counters.ops_retired += own.ops_retired;
    counters.collectives_issued += own.collectives_issued;
    counters.collective_hops += own.collective_hops;
    for (total, cycles) in counters.link_busy_cycles.iter_mut().zip(&own.link_busy_cycles) {
        *total += cycles;
    }

    // Buffer edges into later batches fire as their owners retire; each
    // puts one prefetch on the heap, beside what already waits there.
    edges.clear();
    for owner in range.clone() {
        for &consumer in run.topo.buffer_consumers(owner) {
            if consumer >= range.end {
                edges.push((schedule.retire_pop[owner - range.start], owner, consumer));
            }
        }
    }
    edges.sort_by_key(|&(pop, ..)| pop);
    let waiting = run.queue.heap_len() as u64;
    let mut peak = schedule.heap_after.first().copied().unwrap_or(0);
    for (fired, &(pop, ..)) in edges.iter().enumerate() {
        if let Some(&after) = schedule.heap_after.get(pop + 1) {
            peak = peak.max(after + fired as u64 + 1);
        }
    }
    run.counters.heap_peak = run.counters.heap_peak.max(waiting + peak);
    for &(_, owner, consumer) in edges.iter() {
        run.release_buffer(consumer, run.state[owner].finish, &mut NullObserver);
    }
    true
}

/// The recording of `batch`'s template for the start events `taken`,
/// recorded now from `engine` if it is the first batch to start this way.
fn recorded(
    engine: &TimelineEngine,
    batch: &ReplayBatch<'_>,
    taken: &[(ScheduledEvent, bool)],
) -> Arc<BatchSchedule> {
    let base = batch.anchors.start;
    let mut recorded = batch.stamps.recorded.lock().expect("batch stamps");
    if let Some(schedule) = recorded.iter().find(|s| s.matches(base, taken)) {
        return Arc::clone(schedule);
    }
    let schedule = Arc::new(engine.record_batch(batch.anchors.clone(), taken));
    recorded.push(Arc::clone(&schedule));
    schedule
}
