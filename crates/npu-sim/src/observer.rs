//! Engine observation hooks: a statically dispatched [`SimObserver`]
//! trait the event loop calls at every semantically meaningful point —
//! operator issue/retire, resource occupancy, prefetch transfers,
//! collective gang-issues, release-clamp stalls, and event pops.
//!
//! The default observer, [`NullObserver`], is a zero-sized type whose
//! hooks are empty default methods: the engine's observed run is generic
//! over `O: SimObserver`, so the `NullObserver` instantiation monomorphizes
//! every hook away and the unobserved hot path stays bit-identical
//! (pinned by the digest tests) at no added cost. Real observers —
//! [`crate::trace::TraceRecorder`], ad-hoc test probes, the host-time
//! observer in `servebench/` — pay only for what they record.
//!
//! This crate reads no wall clock: host-time profiling lives in
//! `servebench/`, so the xtask determinism lint keeps holding the
//! simulation crates to pure-function output.

use crate::timeline::ResourceId;

/// Observer of one engine run. Every hook has an empty default body, so
/// an observer implements only the events it cares about; hook arguments
/// are plain scalars (plus borrowed link slices) and never require the
/// observer to allocate.
///
/// Hooks fire in event-loop order, which is deterministic for a given
/// phase vector and release vector — two observed runs of the same
/// prepared engine see byte-identical hook sequences.
pub trait SimObserver {
    /// An event was popped off the queue at cycle `at`; `pending` events
    /// remain scheduled.
    fn event_popped(&mut self, at: u64, pending: usize) {
        let _ = (at, pending);
    }

    /// Operator `op`'s main phase was issued at cycle `at` (dispatch
    /// begins here; for collectives this is the gang-issue point).
    fn op_issued(&mut self, op: usize, at: u64) {
        let _ = (op, at);
    }

    /// Operator `op` retired (all phases complete) at cycle `at`.
    fn op_retired(&mut self, op: usize, at: u64) {
        let _ = (op, at);
    }

    /// A phase of operator `op` was ready at `now` but clamped to its
    /// release cycle `release > now` — the queueing-delay stall the
    /// serving layer's admission trace induces.
    fn release_stall(&mut self, op: usize, now: u64, release: u64) {
        let _ = (op, now, release);
    }

    /// Resource `id` is busy on behalf of operator `op` over
    /// `[start, end)`. Fired at every per-resource occupancy record: SA
    /// active slices, (fused) VU work, demand gathers, analytic ICI
    /// phases, and each link of a gang-issued collective.
    fn resource_busy(&mut self, id: ResourceId, op: usize, start: u64, end: u64) {
        let _ = (id, op, start, end);
    }

    /// Operator `op`'s HBM prefetch streamed over `[start, end)` on chip
    /// `chip`'s DMA prefetch channel (demand gathers surface as
    /// [`SimObserver::resource_busy`] on the HBM-DMA unit instead).
    fn dma_transfer(&mut self, op: usize, chip: usize, start: u64, end: u64) {
        let _ = (op, chip, start, end);
    }

    /// A lowered collective gang-issued `links` for `[start, end)` (hop
    /// boundaries within the window are the plan's step cycles).
    fn collective_start(&mut self, op: usize, links: &[ResourceId], start: u64, end: u64) {
        let _ = (op, links, start, end);
    }
}

/// The zero-cost default observer: a zero-sized type with every hook left
/// at its empty default, so observed runs instantiated with it compile to
/// exactly the unobserved event loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NullObserver>(), 0);
    }

    #[test]
    fn default_hooks_are_no_ops() {
        let mut obs = NullObserver;
        obs.event_popped(0, 3);
        obs.op_issued(1, 10);
        obs.op_retired(1, 20);
        obs.release_stall(2, 5, 9);
        obs.resource_busy(ResourceId(0), 1, 0, 10);
        obs.dma_transfer(1, 0, 0, 4);
        obs.collective_start(3, &[ResourceId(4)], 7, 9);
        assert_eq!(obs, NullObserver);
    }
}
