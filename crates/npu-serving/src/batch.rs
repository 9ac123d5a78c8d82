//! Request queue and pluggable batch-formation policies.
//!
//! Requests are served FIFO: a policy walks the arrival trace in order and
//! decides when the open batch *closes* (dispatches). Two policies cover
//! the production spectrum:
//!
//! * [`BatchPolicy::Static`] — the classic fixed-batch server: dispatch
//!   the moment `batch` requests are queued (the trailing partial batch
//!   flushes at the last arrival).
//! * [`BatchPolicy::DynamicWindow`] — continuous-batching style: a batch
//!   closes on max-batch **or** deadline, whichever comes first, bounding
//!   the queueing delay the first request of a window can suffer.
//!
//! Formation is a pure function of the arrival trace, so a seeded trace
//! yields a bit-for-bit reproducible batch sequence.

use serde::{Deserialize, Serialize};

/// How queued requests are grouped into dispatchable batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchPolicy {
    /// Dispatch every `batch` requests; the trailing partial batch
    /// flushes at the final arrival.
    Static {
        /// Requests per batch (at least 1).
        batch: usize,
    },
    /// Dispatch when `max_batch` requests are queued or when the oldest
    /// queued request has waited `max_wait_cycles`, whichever is first.
    /// The trailing partial batch flushes at its last arrival (no one can
    /// join a window after the trace is exhausted).
    DynamicWindow {
        /// Largest batch the window may close with (at least 1).
        max_batch: usize,
        /// Longest the first request of a window waits before the batch
        /// closes regardless of occupancy.
        max_wait_cycles: u64,
    },
}

impl BatchPolicy {
    /// Short label for sweep tables, e.g. `"static-8"`, `"window-8/5000"`.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            BatchPolicy::Static { batch } => format!("static-{batch}"),
            BatchPolicy::DynamicWindow { max_batch, max_wait_cycles } => {
                format!("window-{max_batch}/{max_wait_cycles}")
            }
        }
    }

    /// Groups a non-decreasing arrival trace into dispatchable batches,
    /// FIFO. Every request lands in exactly one batch, batches are
    /// contiguous index ranges, and each dispatch cycle is at least every
    /// member's arrival (a batch cannot ship requests that do not exist).
    ///
    /// # Panics
    ///
    /// Panics if the arrivals are not sorted in non-decreasing order, or
    /// if the policy's batch size (`Static::batch`,
    /// `DynamicWindow::max_batch`) is zero: no batch could ever close.
    #[must_use]
    pub fn form(&self, arrivals: &[u64]) -> Vec<FormedBatch> {
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "arrival trace must be non-decreasing");
        let n = arrivals.len();
        let mut batches = Vec::new();
        match *self {
            BatchPolicy::Static { batch } => {
                assert!(batch >= 1, "BatchPolicy::Static needs a batch of at least 1 request");
                let mut start = 0usize;
                while start < n {
                    let end = (start + batch).min(n);
                    batches.push(FormedBatch {
                        requests: start..end,
                        dispatch_cycle: arrivals[end - 1],
                    });
                    start = end;
                }
            }
            BatchPolicy::DynamicWindow { max_batch, max_wait_cycles } => {
                assert!(
                    max_batch >= 1,
                    "BatchPolicy::DynamicWindow needs a max_batch of at least 1 request"
                );
                let mut start = 0usize;
                while start < n {
                    let deadline = arrivals[start].saturating_add(max_wait_cycles);
                    let mut end = start + 1;
                    while end < n && end - start < max_batch && arrivals[end] <= deadline {
                        end += 1;
                    }
                    // A full window closes the instant its last member
                    // arrives; a window that timed out mid-trace closes at
                    // the deadline even if the queue has gone quiet. The
                    // *trailing* window can never be joined by anyone —
                    // the trace is exhausted — so it flushes at its last
                    // arrival (matching `Static`'s trailing-flush
                    // semantics) instead of waiting out a deadline nothing
                    // can beat.
                    let dispatch_cycle = if end - start == max_batch || end == n {
                        arrivals[end - 1]
                    } else {
                        deadline
                    };
                    batches.push(FormedBatch { requests: start..end, dispatch_cycle });
                    start = end;
                }
            }
        }
        batches
    }
}

/// One dispatched batch: which requests (FIFO index range into the
/// arrival trace) and when it closed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FormedBatch {
    /// Half-open range of request indices the batch carries.
    pub requests: std::ops::Range<usize>,
    /// Cycle the batch closed and was handed to the scheduler — the
    /// release cycle of every operator lowered from it.
    pub dispatch_cycle: u64,
}

impl FormedBatch {
    /// Number of requests in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty (never produced by a policy).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_chunks_fifo_and_flushes_the_tail() {
        let arrivals = [0, 10, 20, 30, 40, 50, 60];
        let batches = BatchPolicy::Static { batch: 3 }.form(&arrivals);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0], FormedBatch { requests: 0..3, dispatch_cycle: 20 });
        assert_eq!(batches[1], FormedBatch { requests: 3..6, dispatch_cycle: 50 });
        assert_eq!(batches[2], FormedBatch { requests: 6..7, dispatch_cycle: 60 });
    }

    #[test]
    #[should_panic(expected = "BatchPolicy::Static needs a batch of at least 1 request")]
    fn zero_static_batch_is_rejected() {
        let _ = BatchPolicy::Static { batch: 0 }.form(&[0, 10]);
    }

    #[test]
    #[should_panic(expected = "BatchPolicy::DynamicWindow needs a max_batch of at least 1 request")]
    fn zero_window_max_batch_is_rejected() {
        let _ = BatchPolicy::DynamicWindow { max_batch: 0, max_wait_cycles: 100 }.form(&[0, 10]);
    }

    #[test]
    fn window_closes_on_max_batch_or_deadline() {
        // Burst of 4 at t=0..30, then a straggler at t=10_000.
        let arrivals = [0, 10, 20, 30, 10_000];
        let batches =
            BatchPolicy::DynamicWindow { max_batch: 4, max_wait_cycles: 5_000 }.form(&arrivals);
        assert_eq!(batches.len(), 2);
        // The burst fills the window: closes at its 4th arrival, not the deadline.
        assert_eq!(batches[0], FormedBatch { requests: 0..4, dispatch_cycle: 30 });
        // The straggler is the trailing window: nothing can join it, so it
        // flushes at its own arrival instead of waiting out the deadline.
        assert_eq!(batches[1], FormedBatch { requests: 4..5, dispatch_cycle: 10_000 });
    }

    #[test]
    fn window_deadline_bounds_queueing_delay() {
        // Slow trickle: one request per 4,000 cycles, window of 8 with a
        // 1,000-cycle deadline -> every mid-trace request ships alone,
        // 1,000 cycles after it arrived; the trailing request flushes
        // immediately (the trace is exhausted).
        let arrivals: Vec<u64> = (0..5).map(|i| i * 4_000).collect();
        let batches =
            BatchPolicy::DynamicWindow { max_batch: 8, max_wait_cycles: 1_000 }.form(&arrivals);
        assert_eq!(batches.len(), 5);
        for (i, b) in batches.iter().enumerate().take(4) {
            assert_eq!(b.len(), 1);
            assert_eq!(b.dispatch_cycle, arrivals[i] + 1_000);
        }
        assert_eq!(batches[4], FormedBatch { requests: 4..5, dispatch_cycle: 16_000 });
    }

    #[test]
    fn trailing_window_flushes_at_trace_exhaustion_but_mid_trace_still_times_out() {
        // Regression: the trailing partial window used to wait the full
        // `max_wait_cycles` deadline even though the arrival trace was
        // exhausted, inflating tail queueing latency on every finite
        // trace.
        let arrivals = [0, 4_000, 4_100];
        let batches =
            BatchPolicy::DynamicWindow { max_batch: 3, max_wait_cycles: 1_000 }.form(&arrivals);
        assert_eq!(batches.len(), 2);
        // Mid-trace window: more arrivals exist beyond the deadline, so
        // the timeout semantics are unchanged.
        assert_eq!(batches[0], FormedBatch { requests: 0..1, dispatch_cycle: 1_000 });
        // Trailing window: flushes at its last arrival, not at 5_000.
        assert_eq!(batches[1], FormedBatch { requests: 1..3, dispatch_cycle: 4_100 });
    }

    #[test]
    fn every_request_lands_in_exactly_one_batch_with_dispatch_after_arrival() {
        let arrivals = [0u64, 0, 5, 5, 5, 100, 2_000, 2_001, 2_002, 9_999];
        for policy in [
            BatchPolicy::Static { batch: 4 },
            BatchPolicy::DynamicWindow { max_batch: 3, max_wait_cycles: 50 },
        ] {
            let batches = policy.form(&arrivals);
            let mut cursor = 0usize;
            for b in &batches {
                assert_eq!(b.requests.start, cursor, "{policy:?}: batches must be contiguous");
                cursor = b.requests.end;
                for r in b.requests.clone() {
                    assert!(
                        b.dispatch_cycle >= arrivals[r],
                        "{policy:?}: batch dispatched before request {r} arrived"
                    );
                }
            }
            assert_eq!(cursor, arrivals.len(), "{policy:?}: requests dropped");
        }
    }

    #[test]
    fn saturating_trace_forms_one_full_batch() {
        let arrivals = vec![0u64; 6];
        for policy in [
            BatchPolicy::Static { batch: 6 },
            BatchPolicy::DynamicWindow { max_batch: 6, max_wait_cycles: 10_000 },
        ] {
            let batches = policy.form(&arrivals);
            assert_eq!(batches.len(), 1, "{policy:?}");
            assert_eq!(batches[0], FormedBatch { requests: 0..6, dispatch_cycle: 0 }, "{policy:?}");
        }
    }

    #[test]
    fn empty_trace_forms_no_batches() {
        assert!(BatchPolicy::Static { batch: 4 }.form(&[]).is_empty());
        assert!(BatchPolicy::DynamicWindow { max_batch: 4, max_wait_cycles: 10 }
            .form(&[])
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unsorted_arrivals_are_rejected() {
        let _ = BatchPolicy::Static { batch: 2 }.form(&[10, 5]);
    }
}
