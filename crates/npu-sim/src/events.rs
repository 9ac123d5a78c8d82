//! Discrete-event machinery for the timeline engine: a deterministic
//! min-time event queue.
//!
//! `std::collections::BinaryHeap` is a max-heap, so [`ScheduledEvent`]
//! reverses its ordering to pop the earliest event first. Events carry a
//! monotonically increasing sequence number that breaks time ties, which
//! makes the simulation fully deterministic: two runs over the same
//! compiled graph schedule every phase at identical cycles.
//!
//! Events scheduled before the first pop — the engine's seed events, most
//! of them clamped to their request's release cycle — never enter the
//! heap. They go into a seed list that is sorted once at the first pop,
//! latest first, so its earliest event sits at the end; every pop takes
//! the earlier of the list's last event and the heap top. The pop order
//! is the exact `(at, seq)` order of one heap holding everything, while
//! the heap itself only holds events scheduled inside the loop, so its
//! size tracks in-flight work instead of trace length.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// What happened (or must be attempted) at an event's firing time.
///
/// All payloads reference operators by their anchor index in the compiled
/// graph; the [`crate::timeline::TimelineEngine`] owns the per-operator
/// state the handlers mutate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The operator's input buffer is free and its DMA prefetch may be
    /// issued to the HBM/DMA queue.
    IssueDma {
        /// Anchor index of the operator.
        op: usize,
    },
    /// Enough of the operator's DMA has landed in SRAM (the first tile of a
    /// double-buffered stream) for its main phase to begin consuming data.
    DmaLeadArrived {
        /// Anchor index of the operator.
        op: usize,
    },
    /// The operator's full DMA stream has finished.
    DmaComplete {
        /// Anchor index of the operator.
        op: usize,
    },
    /// All issue dependencies of the operator's main phase are satisfied
    /// and it may be dispatched to its execution unit.
    IssueMain {
        /// Anchor index of the operator.
        op: usize,
    },
    /// The operator's main (compute / gather / collective) phase finished.
    MainComplete {
        /// Anchor index of the operator.
        op: usize,
    },
}

impl EventKind {
    /// Anchor index of the operator the event belongs to.
    pub(crate) fn op(self) -> usize {
        match self {
            EventKind::IssueDma { op }
            | EventKind::DmaLeadArrived { op }
            | EventKind::DmaComplete { op }
            | EventKind::IssueMain { op }
            | EventKind::MainComplete { op } => op,
        }
    }

    /// The same event for operator `op - base`: its index within a batch
    /// that starts at `base`.
    pub(crate) fn relative_to(self, base: usize) -> Self {
        match self {
            EventKind::IssueDma { op } => EventKind::IssueDma { op: op - base },
            EventKind::DmaLeadArrived { op } => EventKind::DmaLeadArrived { op: op - base },
            EventKind::DmaComplete { op } => EventKind::DmaComplete { op: op - base },
            EventKind::IssueMain { op } => EventKind::IssueMain { op: op - base },
            EventKind::MainComplete { op } => EventKind::MainComplete { op: op - base },
        }
    }
}

/// An event scheduled at an absolute cycle, ordered for a min-heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// Absolute firing time in cycles on the global clock.
    pub at: u64,
    /// Insertion sequence number; breaks ties deterministically.
    pub seq: u64,
    /// Event payload.
    pub kind: EventKind,
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest (and, on
        // ties, the first-scheduled) event first.
        match self.at.cmp(&other.at) {
            Ordering::Equal => self.seq.cmp(&other.seq),
            ord => ord,
        }
        .reverse()
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic min-time event queue driving the timeline engine.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
    /// Events scheduled before the first pop; sorted at that pop, latest
    /// first, and popped from the end.
    seeds: Vec<ScheduledEvent>,
    /// Whether the first pop happened (later events go to the heap).
    started: bool,
    next_seq: u64,
    now: u64,
}

impl EventQueue {
    /// Creates an empty queue at cycle 0.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Empties the queue and rewinds it to cycle 0, keeping the heap's and
    /// the seed list's storage so many simulations can reuse one queue
    /// without reallocating.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seeds.clear();
        self.started = false;
        self.next_seq = 0;
        self.now = 0;
    }

    /// The current simulation time (the firing time of the last popped
    /// event).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules an event at an absolute cycle. Before the first pop the
    /// event goes to the seed list, afterwards onto the heap.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past: the engine never rewinds the clock.
    pub fn schedule(&mut self, at: u64, kind: EventKind) {
        assert!(at >= self.now, "event at cycle {at} scheduled before now ({})", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = ScheduledEvent { at, seq, kind };
        if self.started {
            self.heap.push(ev);
        } else {
            self.seeds.push(ev);
        }
    }

    /// Ends seeding: sorts the seed list, and every later event goes onto
    /// the heap. The first pop does this implicitly; calling it again is a
    /// no-op.
    pub(crate) fn start(&mut self) {
        if !self.started {
            self.started = true;
            // Sequence numbers are unique, so the unstable sort is exact
            // and needs no scratch buffer.
            self.seeds.sort_unstable_by_key(|e| Reverse((e.at, e.seq)));
        }
    }

    /// Pops the earliest event and advances the clock to its firing time.
    /// The first pop sorts the seed list.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.pop_tagged().map(|(ev, _)| ev)
    }

    /// Like [`EventQueue::pop`], also telling whether the event came from
    /// the seed list (`true`) or the heap.
    fn pop_tagged(&mut self) -> Option<(ScheduledEvent, bool)> {
        self.start();
        let from_seeds = match (self.seeds.last(), self.heap.peek()) {
            (Some(s), Some(h)) => (s.at, s.seq) < (h.at, h.seq),
            (seed, _) => seed.is_some(),
        };
        let ev = if from_seeds { self.seeds.pop() } else { self.heap.pop() }?;
        self.now = ev.at;
        Some((ev, from_seeds))
    }

    /// Firing time of the earliest pending event, without popping it.
    /// Ends seeding like a pop would.
    pub(crate) fn next_at(&mut self) -> Option<u64> {
        self.start();
        match (self.seeds.last(), self.heap.peek()) {
            (Some(s), Some(h)) => Some(s.at.min(h.at)),
            (s, h) => s.or(h).map(|e| e.at),
        }
    }

    /// Pops every event firing at cycle `at` while that is the earliest
    /// pending time, appending each (in pop order) to `out` with whether
    /// it came from the seed list. [`EventQueue::restore`] undoes it.
    pub(crate) fn take_due(&mut self, at: u64, out: &mut Vec<(ScheduledEvent, bool)>) {
        while self.next_at() == Some(at) {
            out.extend(self.pop_tagged());
        }
    }

    /// Puts back events taken by [`EventQueue::take_due`], each into the
    /// store it came from with its original sequence number, so the pop
    /// order is exactly as if they had never been taken.
    pub(crate) fn restore(&mut self, taken: &[(ScheduledEvent, bool)]) {
        // The seed list pops from its end: push the seeds back latest first.
        for &(ev, from_seeds) in taken.iter().rev() {
            if from_seeds {
                self.seeds.push(ev);
            } else {
                self.heap.push(ev);
            }
        }
    }

    /// Number of pending events: the heap plus the seed events not yet
    /// popped.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.seeds.len()
    }

    /// Number of events on the heap alone — those scheduled after the
    /// first pop and not yet popped.
    #[must_use]
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending, on the heap or in the seed list.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, EventKind::MainComplete { op: 2 });
        q.schedule(10, EventKind::IssueDma { op: 0 });
        q.schedule(20, EventKind::IssueMain { op: 1 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, EventKind::IssueDma { op: 7 });
        q.schedule(5, EventKind::IssueDma { op: 3 });
        q.schedule(5, EventKind::IssueDma { op: 9 });
        let ops: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::IssueDma { op } => op,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ops, vec![7, 3, 9], "same-cycle events fire in scheduling order");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(4, EventKind::DmaComplete { op: 0 });
        q.schedule(9, EventKind::DmaComplete { op: 1 });
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 4);
        q.schedule(9, EventKind::DmaLeadArrived { op: 1 });
        q.pop();
        q.pop();
        assert_eq!(q.now(), 9);
        assert!(q.is_empty());
    }

    #[test]
    fn seed_list_and_heap_pop_in_plain_heap_order() {
        // Oracle: one `BinaryHeap` holding every event, seeds included.
        use crate::rng::SplitMix64;
        for seed in 0..20 {
            let mut rng = SplitMix64::new(seed);
            let mut q = EventQueue::new();
            let mut oracle = BinaryHeap::new();
            let mut next_seq = 0;
            let mut schedule = |q: &mut EventQueue, oracle: &mut BinaryHeap<_>, at, op| {
                let kind = EventKind::IssueMain { op };
                q.schedule(at, kind);
                oracle.push(ScheduledEvent { at, seq: next_seq, kind });
                next_seq += 1;
            };
            // Seeds with many time ties, like release-clamped sources.
            for op in 0..rng.range(0, 200) as usize {
                schedule(&mut q, &mut oracle, rng.range(0, 50) * 100, op);
            }
            let mut popped = 0;
            while let Some(ev) = q.pop() {
                assert_eq!(Some(ev), oracle.pop(), "seed {seed}, pop {popped}");
                popped += 1;
                for _ in 0..rng.range(0, 2) {
                    if popped < 2_000 {
                        let at = q.now() + rng.range(0, 300);
                        schedule(&mut q, &mut oracle, at, popped);
                    }
                }
                assert_eq!(q.len(), oracle.len(), "pending count covers both stores");
            }
            assert!(oracle.is_empty() && q.is_empty(), "seed {seed}: queues drained together");
        }
    }

    #[test]
    fn heap_holds_only_events_scheduled_after_the_first_pop() {
        let mut q = EventQueue::new();
        for op in 0..100 {
            q.schedule(op as u64 * 10, EventKind::IssueDma { op });
        }
        assert_eq!((q.len(), q.heap_len()), (100, 0));
        q.pop();
        q.schedule(5, EventKind::DmaComplete { op: 0 });
        assert_eq!((q.len(), q.heap_len()), (100, 1));
        q.clear();
        assert!(q.is_empty() && q.now() == 0);
        q.schedule(3, EventKind::IssueDma { op: 0 });
        assert_eq!((q.len(), q.heap_len()), (1, 0), "a cleared queue seeds again");
    }

    #[test]
    fn taken_events_restore_to_the_same_pop_order() {
        // Seeds and heap events tied at cycle 20, around other times.
        let fill = |q: &mut EventQueue| {
            for (at, op) in [(20, 0), (10, 1), (20, 2), (30, 3)] {
                q.schedule(at, EventKind::IssueMain { op });
            }
            q.start();
            for (at, op) in [(20, 4), (25, 5), (20, 6)] {
                q.schedule(at, EventKind::IssueDma { op });
            }
        };
        let ops = |q: &mut EventQueue| -> Vec<usize> {
            std::iter::from_fn(|| q.pop()).map(|e| e.kind.op()).collect()
        };
        let mut plain = EventQueue::new();
        fill(&mut plain);
        let expected = ops(&mut plain);

        let mut q = EventQueue::new();
        fill(&mut q);
        assert_eq!(q.pop().map(|e| e.kind.op()), Some(1));
        let mut taken = Vec::new();
        q.take_due(20, &mut taken);
        let tagged: Vec<(usize, bool)> = taken.iter().map(|(e, s)| (e.kind.op(), *s)).collect();
        assert_eq!(tagged, [(0, true), (2, true), (4, false), (6, false)]);
        assert_eq!(q.next_at(), Some(25));
        q.restore(&taken);
        assert_eq!((q.len(), q.heap_len()), (6, 3));
        let mut order = vec![1];
        order.extend(ops(&mut q));
        assert_eq!(order, expected);
    }

    #[test]
    #[should_panic(expected = "scheduled before now")]
    fn scheduling_in_the_past_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule(10, EventKind::IssueDma { op: 0 });
        q.pop();
        q.schedule(5, EventKind::IssueDma { op: 1 });
    }
}
