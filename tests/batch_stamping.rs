//! Differential net for the batch-aware replay
//! ([`TimelineEngine::run_batches`]), which stamps isolated batches from a
//! recorded schedule instead of running their events.
//!
//! A seeded corpus concatenates random batch templates (layered random
//! DAGs on one chip, and random unit/collective mixes on a 4-chip pod)
//! with random gaps — zero, overlapping, near the template's makespan and
//! far apart — and asserts for every trace that the stamped replay equals
//! the plain event loop ([`TimelineEngine::run_with_scratch`]) on the same
//! releases: every phase time, busy interval, per-resource track and
//! counter, including `events_popped` and `heap_peak`. It also asserts
//! that exactly the isolated batches were stamped — those whose earlier
//! batches all finished strictly before their dispatch and which finished
//! strictly before the next dispatch, read off the plain schedule — and
//! that the corpus holds both kinds. The recordings are shared across the
//! corpus, as a serving simulator shares them across traces.
//!
//! Two fixed cases pin the edges: boundary ties (a dispatch at exactly the
//! previous batch's end goes to the event loop), and a heap peak set by
//! the next batch's prefetches, which wait on the heap from the moment
//! the stamped batch frees their buffers.

use std::ops::Range;

use npu_arch::{LinkGraph, PodTopology, TorusKind};
use npu_compiler::CollectivePlan;
use npu_models::CollectiveKind;
use npu_sim::pod::PodBuilder;
use npu_sim::timeline::{EngineScratch, OpPhases, Resource, ResourceSet, Schedule, TimelineEngine};
use npu_sim::{BatchStamps, ReplayBatch, SplitMix64 as Rng};

/// Traces per corpus.
const NUM_TRACES: u64 = 40;

/// One operator of a random single-chip template: SA ops with a streamed
/// prefetch and optional fused VU tail, VU ops, demand gathers and ICI
/// transfers.
fn random_op(rng: &mut Rng) -> OpPhases {
    let (unit, main, dma) = match rng.range(0, 9) {
        0..=4 => (Resource::Sa, rng.range(200, 8_000), rng.range(0, 6_000)),
        5 | 6 => (Resource::Vu, rng.range(100, 3_000), rng.range(0, 2_000)),
        7 | 8 => (Resource::HbmDma, rng.range(300, 10_000), 0),
        _ => (Resource::Ici, rng.range(500, 20_000), 0),
    };
    OpPhases {
        unit: unit.into(),
        main_cycles: main,
        dma_cycles: dma,
        dma_lead_cycles: 0,
        fused_vu_cycles: if unit == Resource::Sa && rng.range(0, 2) == 0 {
            rng.range(0, main / 2)
        } else {
            0
        },
        dispatch_cycles: 100,
        sa_active_cycles: if unit == Resource::Sa { rng.range(main / 2, main) } else { 0 },
        producers: Vec::new(),
        collective: None,
    }
}

/// A layered random DAG of 2–5 layers, 1–4 operators wide: each operator
/// past the first layer draws 1–2 producers from the layer before it.
fn random_template(rng: &mut Rng) -> Vec<OpPhases> {
    let mut ops: Vec<OpPhases> = Vec::new();
    let mut previous: Vec<usize> = Vec::new();
    for layer in 0..rng.range(2, 5) {
        let mut this = Vec::new();
        for _ in 0..rng.range(1, 4) {
            let mut op = random_op(rng);
            if layer > 0 {
                let mut producers: Vec<usize> = (0..rng.range(1, 2))
                    .map(|_| previous[rng.range(0, previous.len() as u64 - 1) as usize])
                    .collect();
                producers.sort_unstable();
                producers.dedup();
                op.producers = producers;
            }
            this.push(ops.len());
            ops.push(op);
        }
        previous = this;
    }
    ops
}

fn torus() -> LinkGraph {
    LinkGraph::torus(&PodTopology::for_chips(TorusKind::Torus2D, 4))
}

/// A random pod template: unit work spread over four chips plus the
/// occasional ring collective, with random backward edges.
fn random_pod_template(rng: &mut Rng, graph: &LinkGraph) -> Vec<OpPhases> {
    let mut builder = PodBuilder::new(graph);
    for k in 0..rng.range(4, 14) {
        let mut producers: Vec<usize> =
            (0..rng.range(0, 2)).filter(|_| k > 0).map(|_| rng.range(0, k - 1) as usize).collect();
        producers.sort_unstable();
        producers.dedup();
        if rng.range(0, 9) < 2 {
            let plan =
                CollectivePlan::lower(CollectiveKind::AllReduce, rng.range(100, 9_000), graph);
            builder.push_collective(&plan, producers);
        } else {
            let unit = [Resource::Sa, Resource::Vu, Resource::HbmDma, Resource::Ici]
                [rng.range(0, 3) as usize];
            let chip = rng.range(0, 3) as usize;
            builder.push_unit(chip, unit, rng.range(10, 5_000), rng.range(0, 2_000), producers);
        }
    }
    builder.phases().to_vec()
}

/// A trace of concatenated templates: its engine, releases and batch
/// ranges (with the template each range was copied from).
struct Trace {
    engine: TimelineEngine,
    releases: Vec<u64>,
    batches: Vec<(Range<usize>, usize)>,
}

impl Trace {
    /// Concatenates `templates[pick]` for each `(pick, dispatch)`.
    fn new(templates: &[Vec<OpPhases>], set: ResourceSet, plan: &[(usize, u64)]) -> Self {
        let (mut phases, mut releases, mut batches) = (Vec::new(), Vec::new(), Vec::new());
        for &(pick, dispatch) in plan {
            let base = phases.len();
            for op in &templates[pick] {
                let producers = op.producers.iter().map(|&p| p + base).collect();
                phases.push(OpPhases { producers, ..op.clone() });
                releases.push(dispatch);
            }
            batches.push((base..phases.len(), pick));
        }
        Trace { engine: TimelineEngine::with_resources(phases, set), releases, batches }
    }

    /// The plain event loop's schedule.
    fn event_loop(&self) -> Schedule {
        self.engine.run_with_scratch(&self.releases, &mut EngineScratch::default())
    }

    /// The batch-aware replay: its schedule and how many batches it
    /// stamped.
    fn stamped(&self, stamps: &[BatchStamps]) -> (Schedule, usize) {
        let batches: Vec<ReplayBatch<'_>> = self
            .batches
            .iter()
            .map(|(anchors, pick)| ReplayBatch { anchors: anchors.clone(), stamps: &stamps[*pick] })
            .collect();
        self.engine.run_batches(&self.releases, &batches, &mut EngineScratch::default())
    }

    /// Batches of `schedule` that ran alone: every earlier operator
    /// finished strictly before the batch's dispatch, and its own last
    /// operator strictly before the next dispatch.
    fn isolated(&self, schedule: &Schedule) -> usize {
        let end = |range: &Range<usize>| schedule.ops[range.clone()].iter().map(|s| s.finish).max();
        let mut earlier_end = None;
        let mut isolated = 0;
        for (index, (range, _)) in self.batches.iter().enumerate() {
            let dispatch = self.releases[range.start];
            let finish = end(range).unwrap_or(0);
            let next = self.batches.get(index + 1).map(|(r, _)| self.releases[r.start]);
            if earlier_end.is_none_or(|e| e < dispatch) && next.is_none_or(|n| finish < n) {
                isolated += 1;
            }
            earlier_end = earlier_end.max(Some(finish));
        }
        isolated
    }
}

/// Runs the corpus over `templates`, returning (batches, stamped).
fn check_corpus(templates: &[Vec<OpPhases>], set: ResourceSet, seed: u64) -> (usize, usize) {
    // Each template's makespan alone sizes the gaps.
    let alone: Vec<u64> = templates
        .iter()
        .map(|t| TimelineEngine::with_resources(t.clone(), set).run().makespan)
        .collect();
    let stamps: Vec<BatchStamps> = templates.iter().map(|_| BatchStamps::default()).collect();
    let (mut batches, mut stamped) = (0, 0);
    for trace_seed in 0..NUM_TRACES {
        let mut rng = Rng::new(seed ^ trace_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut dispatch = rng.range(0, 2) * 1_000;
        let mut plan = Vec::new();
        for _ in 0..rng.range(1, 12) {
            let pick = rng.range(0, templates.len() as u64 - 1) as usize;
            plan.push((pick, dispatch));
            dispatch += match rng.range(0, 5) {
                0 => 0,
                1 => rng.range(1, alone[pick]),
                2 => alone[pick] + rng.range(0, 2),
                _ => alone[pick] + rng.range(1, 4 * alone[pick]),
            };
        }
        let trace = Trace::new(templates, set, &plan);
        let expected = trace.event_loop();
        let (schedule, count) = trace.stamped(&stamps);
        assert_eq!(schedule, expected, "trace {trace_seed}: stamped replay diverges");
        assert_eq!(count, trace.isolated(&expected), "trace {trace_seed}: stamped batches");
        batches += plan.len();
        stamped += count;
    }
    (batches, stamped)
}

#[test]
fn stamped_replay_equals_the_event_loop_on_a_single_chip_corpus() {
    let mut rng = Rng::new(0x5747_0001);
    let templates: Vec<Vec<OpPhases>> = (0..4).map(|_| random_template(&mut rng)).collect();
    let (batches, stamped) = check_corpus(&templates, ResourceSet::single_chip(), 0x5747);
    assert!(stamped > 0 && stamped < batches, "{stamped} of {batches} stamped: need both kinds");
}

#[test]
fn stamped_replay_equals_the_event_loop_on_a_pod_corpus() {
    let graph = torus();
    let set = PodBuilder::new(&graph).resources();
    let mut rng = Rng::new(0x5747_0002);
    let templates: Vec<Vec<OpPhases>> =
        (0..3).map(|_| random_pod_template(&mut rng, &graph)).collect();
    assert!(
        templates.iter().flatten().any(|op| op.collective.is_some()),
        "the pod corpus must carry a collective"
    );
    let (batches, stamped) = check_corpus(&templates, set, 0x9D0D);
    assert!(stamped > 0 && stamped < batches, "{stamped} of {batches} stamped: need both kinds");
}

/// Two SA operators with prefetches, then `fan_out` VU operators that
/// all become ready when the second finishes: the batch's heap peaks
/// after its DMA users, which own the next batch's first buffers, retire.
fn fan_out_template(fan_out: usize) -> Vec<OpPhases> {
    let sa = |producers: Vec<usize>| OpPhases {
        unit: Resource::Sa.into(),
        main_cycles: 1_000,
        dma_cycles: 400,
        dma_lead_cycles: 0,
        fused_vu_cycles: 0,
        dispatch_cycles: 100,
        sa_active_cycles: 1_000,
        producers,
        collective: None,
    };
    let mut ops = vec![sa(Vec::new()), sa(vec![0])];
    for _ in 0..fan_out {
        ops.push(OpPhases {
            unit: Resource::Vu.into(),
            main_cycles: 300,
            dma_cycles: 0,
            sa_active_cycles: 0,
            ..sa(vec![1])
        });
    }
    ops
}

#[test]
fn heap_peak_counts_the_next_batch_prefetches_waiting_on_the_heap() {
    let templates = vec![fan_out_template(6)];
    let alone = TimelineEngine::new(templates[0].clone()).run();
    let far = 10 * alone.makespan;
    let trace = Trace::new(&templates, ResourceSet::single_chip(), &[(0, 0), (0, far)]);
    let stamps = [BatchStamps::default()];
    let expected = trace.event_loop();
    let (schedule, stamped) = trace.stamped(&stamps);
    assert_eq!(stamped, 2);
    assert_eq!(schedule, expected);
    // The first batch's fan-out peaks while the second batch's two
    // prefetches already wait on the heap for its dispatch.
    assert_eq!(
        expected.counters.heap_peak,
        alone.counters.heap_peak + 2,
        "the fixture must peak after the buffer owners retire"
    );
    assert_eq!(stamps[0].recorded(), 2, "the first batch starts from seeds, the second does not");
}

#[test]
fn dispatches_tied_to_a_batch_end_go_through_the_event_loop() {
    let mut rng = Rng::new(0x7135);
    let templates: Vec<Vec<OpPhases>> = (0..2).map(|_| random_template(&mut rng)).collect();
    let stamps = [BatchStamps::default(), BatchStamps::default()];
    // Dispatch each batch at the previous one's end plus `slack`, reading
    // the end off the plain schedule of the prefix (a batch that starts at
    // or after the previous end cannot move it).
    let tied = |slacks: &[u64]| {
        let mut plan = vec![(0, 0)];
        for (k, &slack) in slacks.iter().enumerate() {
            let prefix = Trace::new(&templates, ResourceSet::single_chip(), &plan);
            plan.push(((k + 1) % 2, prefix.event_loop().makespan + slack));
        }
        let trace = Trace::new(&templates, ResourceSet::single_chip(), &plan);
        let expected = trace.event_loop();
        let (schedule, stamped) = trace.stamped(&stamps);
        assert_eq!(schedule, expected, "slacks {slacks:?}");
        stamped
    };
    // Batch 1 dispatches at batch 0's end: neither is stamped. Batch 2
    // starts one cycle after batch 1 ends, batch 3 far later.
    assert_eq!(tied(&[0, 1, 1_000_000]), 2);
    // Every dispatch one cycle after the previous end: all stamped.
    assert_eq!(tied(&[1, 1, 1]), 4);
    // Every dispatch at the previous end: none.
    assert_eq!(tied(&[0, 0, 0]), 0);
}
