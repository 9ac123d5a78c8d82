//! The workloads and the serving pipeline under test.
//!
//! One trace goes through `ServingSimulator::run`, `ServingReport::evaluate`,
//! `Evaluator::evaluate_policies` over every preset and extended policy, and
//! `ServingSimulator::verify` ([`Server::serve`]). The traced run also
//! rebuilds the same replay from the layers' public calls ([`Layered`]) so
//! each layer gets its own span.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use npu_arch::{ChipConfig, ComponentKind, NpuGeneration, ParallelismConfig};
use npu_compiler::{CompiledGraph, Compiler};
use npu_models::{DlrmSize, LlamaModel, LlmPhase, Workload};
use npu_serving::{ArrivalProcess, BatchPolicy, ServingReport, ServingSimulator};
use npu_sim::{EngineScratch, PreparedSimulator, SimulationResult, Simulator};
use regate::{Design, Evaluator, PolicyKind};
use regate_bench::Fnv1a;

use crate::spans::{PhaseClock, Spans};

/// One benchmark workload: a per-request workload, an arrival process and
/// a batching policy, served on one NPU-D chip.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Per-request workload (its batch is the samples one request carries).
    pub workload: Workload,
    /// Mean gap between Poisson arrivals, in simulated cycles.
    pub mean_gap_cycles: f64,
    /// How arrivals are grouped into batches.
    pub policy: BatchPolicy,
    /// Requests per trace.
    pub requests: usize,
    /// Traces one simulator serves before a fresh one replaces it, or
    /// `None` to keep one simulator for the whole run.
    pub epoch: Option<usize>,
}

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let dlrm = Workload::dlrm(DlrmSize::Small).with_batch(32);
        let spec = match name {
            // Every trace forms the same 128 batches of four, so after the
            // first trace only warm replays run, and the event heap grows
            // with trace length: the event loop dominates.
            "dlrm_poisson" => Spec {
                name: "dlrm_poisson",
                workload: dlrm,
                mean_gap_cycles: 100_000.0,
                policy: BatchPolicy::Static { batch: 4 },
                requests: 512,
                epoch: None,
            },
            // Long gaps keep the heap at a handful of events; host time goes
            // to result building, evaluation and the policy walks over real
            // idle intervals (the chip is busy about 60% of the trace).
            "decode_sparse" => Spec {
                name: "decode_sparse",
                workload: Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(2),
                mean_gap_cycles: 20_000_000.0,
                policy: BatchPolicy::Static { batch: 4 },
                requests: 256,
                epoch: None,
            },
            // The window forms a different batch-size sequence on every
            // trace, so every trace pays concatenation and preparation and
            // adds one entry to the trace cache. A fresh simulator every 32
            // traces bounds the memory one run holds.
            "sweep_churn" => Spec {
                name: "sweep_churn",
                workload: dlrm,
                mean_gap_cycles: 100_000.0,
                policy: BatchPolicy::DynamicWindow { max_batch: 8, max_wait_cycles: 200_000 },
                requests: 64,
                epoch: Some(32),
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The arrival trace of trace `index`: Poisson arrivals drawn with
    /// seed `base_seed + index`.
    pub fn arrivals(&self, base_seed: u64, index: usize) -> Vec<u64> {
        let seed = base_seed.wrapping_add(index as u64);
        ArrivalProcess::Poisson { mean_interval_cycles: self.mean_gap_cycles, seed }
            .arrivals(self.requests)
    }

    /// A fresh serving simulator with empty caches.
    pub fn simulator(&self) -> ServingSimulator {
        ServingSimulator::new(NpuGeneration::D, 1, self.workload)
    }

    /// Whether trace `index` is served by a fresh simulator.
    pub fn starts_epoch(&self, index: usize) -> bool {
        self.epoch.is_some_and(|epoch| index > 0 && index.is_multiple_of(epoch))
    }
}

/// FNV-1a digest of a schedule: makespan, every anchor's start, compute
/// start and duration, and the idle histogram of every component.
pub fn schedule_digest(sim: &SimulationResult) -> u64 {
    let mut fnv = Fnv1a::new();
    fnv.push(sim.total_cycles());
    for t in sim.timings() {
        fnv.push(t.start_cycle);
        fnv.push(t.compute_start_cycle);
        fnv.push(t.duration_cycles);
    }
    let histogram = sim.idle_histogram();
    for kind in ComponentKind::ALL {
        for b in histogram.buckets(kind) {
            fnv.push(b.lower);
            fnv.push(b.count);
            fnv.push(b.total_cycles);
        }
    }
    fnv.digest()
}

/// What one served trace produced, reduced to the numbers the benchmark
/// reports and checks.
#[derive(Debug, Clone)]
pub struct Served {
    /// Simulated makespan in cycles.
    pub makespan_cycles: u64,
    /// 99th-percentile request latency in cycles.
    pub p99_latency_cycles: u64,
    /// Measured duty cycle of the chip.
    pub duty_cycle: f64,
    /// ReGate-Full energy savings against NoPG.
    pub savings_full: f64,
    /// Batches dispatched.
    pub batches: usize,
    /// Engine events popped.
    pub events_popped: u64,
    /// Largest number of pending engine events.
    pub heap_peak: u64,
    /// Phases clamped to their release cycle.
    pub release_stalls: u64,
    /// Schedule digest, when asked for.
    pub digest: Option<u64>,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
}

/// A serving simulator plus the evaluator and policy set it is priced with.
#[derive(Debug)]
pub struct Server {
    /// The simulator, with its compile caches.
    pub sim: ServingSimulator,
    evaluator: Evaluator,
    kinds: Vec<PolicyKind>,
}

impl Server {
    /// A fresh server for `spec`.
    pub fn new(spec: &Spec) -> Self {
        let mut kinds: Vec<PolicyKind> = Design::ALL.into_iter().map(PolicyKind::Preset).collect();
        kinds.extend(PolicyKind::EXTENDED);
        Server { sim: spec.simulator(), evaluator: Evaluator::new(NpuGeneration::D), kinds }
    }

    /// The evaluator traces are priced with.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Serves one trace through the whole pipeline and checks the result:
    /// the verifier finds no Deny diagnostic, the makespan lies inside
    /// the static window, every request is served, and the preset policy
    /// rows reproduce the report's design savings exactly.
    pub fn serve(&self, spec: &Spec, arrivals: &[u64], digest: bool, spans: &mut Spans) -> Served {
        let outcome = spans.time("serving.run", || self.sim.run(arrivals, &spec.policy));
        let report =
            spans.time("serving.report", || ServingReport::evaluate(&outcome, &self.evaluator));
        let policies = spans.time("core.policies", || {
            self.evaluator.evaluate_policies(
                outcome.num_chips,
                &outcome.compiled,
                &outcome.simulation,
                1.0,
                &self.kinds,
            )
        });
        let verdict = spans.time("serving.verify", || self.sim.verify(&outcome));

        let makespan = outcome.makespan_cycles();
        let mut failures = Vec::new();
        if let Some(denial) = verdict.denials().next() {
            failures.push(format!(
                "verify: {} Deny diagnostics, first {}: {}",
                verdict.deny_count(),
                denial.rule_id,
                denial.message
            ));
        }
        match verdict.makespan_window {
            Some(window) if window.contains(makespan) => {}
            Some(window) => failures.push(format!(
                "makespan {makespan} outside the static window [{}, {}]",
                window.lower_cycles, window.upper_cycles
            )),
            None => failures.push("verify established no makespan window".to_string()),
        }
        if outcome.requests.len() != arrivals.len() || report.num_requests != arrivals.len() {
            failures.push(format!(
                "served {} of {} requests",
                outcome.requests.len().min(report.num_requests),
                arrivals.len()
            ));
        }
        for design in Design::ALL {
            let row = policies.row(PolicyKind::Preset(design)).savings;
            let reported = report.design(design).savings;
            if row.to_bits() != reported.to_bits() {
                failures.push(format!(
                    "{} savings: policy row {row} differs from the report's {reported}",
                    design.label()
                ));
            }
        }
        if policies.rows.iter().any(|row| !row.savings.is_finite()) {
            failures.push("a policy row has non-finite savings".to_string());
        }

        let counters = outcome.simulation.counters();
        Served {
            makespan_cycles: makespan,
            p99_latency_cycles: report.p99_latency_cycles,
            duty_cycle: report.measured_duty_cycle,
            savings_full: report.design(Design::ReGateFull).savings,
            batches: outcome.batches.len(),
            events_popped: counters.events_popped,
            heap_peak: counters.heap_peak,
            release_stalls: counters.release_stalls,
            digest: digest.then(|| schedule_digest(&outcome.simulation)),
            failures,
        }
    }
}

/// One batch-size sequence compiled, concatenated and prepared.
#[derive(Debug)]
struct PreparedShape {
    shape: Vec<usize>,
    compiled: CompiledGraph,
    prepared: PreparedSimulator,
    op_ranges: Vec<Range<usize>>,
    anchors: usize,
}

/// What [`Layered::trace`] measured beyond its spans.
#[derive(Debug, Clone, Copy)]
pub struct LayerOut {
    /// Digest of the replayed schedule.
    pub digest: u64,
    /// Operators in the concatenated graph.
    pub ops: usize,
    /// Engine events the replay popped.
    pub events_popped: u64,
}

/// The serving replay rebuilt from each layer's public calls, the way
/// `ServingSimulator::run` composes them: batch formation, request-graph
/// lowering and compilation per batch size, concatenation and preparation
/// per batch-size sequence, and the replay. Templates are kept per batch
/// size; only the latest prepared sequence is kept.
#[derive(Debug)]
pub struct Layered {
    chip: ChipConfig,
    workload: Workload,
    parallelism: ParallelismConfig,
    compiler: Compiler,
    templates: BTreeMap<usize, CompiledGraph>,
    current: Option<PreparedShape>,
    scratch: EngineScratch,
}

impl Layered {
    /// A rebuild of `sim`'s pipeline with empty caches.
    pub fn new(sim: &ServingSimulator) -> Self {
        Layered {
            chip: sim.chip().clone(),
            workload: *sim.workload(),
            parallelism: *sim.parallelism(),
            compiler: Compiler::new(sim.chip().spec().clone()),
            templates: BTreeMap::new(),
            current: None,
            scratch: EngineScratch::default(),
        }
    }

    /// Runs one trace through the layers, one span per layer call: the
    /// replay split into release mapping, event loop and materialization,
    /// then a clone of the result and its pricing by `evaluate_compiled`.
    pub fn trace(
        &mut self,
        spec: &Spec,
        arrivals: &[u64],
        evaluator: &Evaluator,
        spans: &mut Spans,
    ) -> LayerOut {
        let formed = spans.time("serving.form", || spec.policy.form(arrivals));
        let shape: Vec<usize> = formed.iter().map(|b| b.len()).collect();
        if self.current.as_ref().is_none_or(|current| current.shape != shape) {
            // Free the previous sequence before preparing the next one.
            self.current = None;
            self.current = Some(self.prepare(shape, arrivals.len(), spans));
        }
        let current = self.current.as_ref().expect("prepared above");

        let mut op_releases: Vec<u64> = Vec::with_capacity(current.compiled.len());
        for (batch, range) in formed.iter().zip(&current.op_ranges) {
            op_releases.resize(range.end, batch.dispatch_cycle);
        }

        let mut clock = PhaseClock::new(current.anchors);
        let (start, allocs_at_start) = (Instant::now(), crate::alloc::count());
        let result =
            current.prepared.run_with_scratch_observed(&op_releases, &mut self.scratch, &mut clock);
        let (end, allocs_at_end) = (Instant::now(), crate::alloc::count());
        let (first_pop, pop_allocs) = clock.first_pop.expect("a non-empty trace pops events");
        let (last_retire, retire_allocs) =
            clock.last_retire.expect("every anchor of a replay retires");
        let replay = spans.record("sim.replay", start, end, allocs_at_end - allocs_at_start);
        let replay = Some(replay);
        spans.record_under("sim.releases", replay, start, first_pop, pop_allocs - allocs_at_start);
        spans.record_under(
            "sim.event_loop",
            replay,
            first_pop,
            last_retire,
            retire_allocs - pop_allocs,
        );
        spans.record_under(
            "sim.materialize",
            replay,
            last_retire,
            end,
            allocs_at_end - retire_allocs,
        );

        let copy = spans.time("sim.result_clone", || result.clone());
        let samples = self.workload.batch() * arrivals.len() as u64;
        let evaluation = spans.time("core.evaluate", || {
            evaluator.evaluate_compiled(
                &self.workload.with_batch(samples),
                self.chip.num_chips(),
                self.parallelism,
                &current.compiled,
                copy,
                1.0,
            )
        });
        drop(evaluation);

        LayerOut {
            digest: schedule_digest(&result),
            ops: current.compiled.len(),
            events_popped: result.counters().events_popped,
        }
    }

    /// Lowers and compiles the batch sizes not seen yet, concatenates the
    /// templates in dispatch order and prepares the result for replay.
    fn prepare(&mut self, shape: Vec<usize>, requests: usize, spans: &mut Spans) -> PreparedShape {
        for &count in &shape {
            if self.templates.contains_key(&count) {
                continue;
            }
            let samples = self.workload.batch() * count as u64;
            let request_graph = spans.time("models.lower", || {
                self.workload
                    .with_batch(samples)
                    .try_build_request_graph(&self.parallelism, &vec![0u64; count])
                    .expect("a formed batch has at least one request and one sample")
            });
            let compiled =
                spans.time("compiler.compile", || self.compiler.compile(&request_graph.graph));
            self.templates.insert(count, compiled);
        }
        let (compiled, op_ranges) = spans.time("compiler.concat", || {
            let mut combined = CompiledGraph::empty(format!(
                "{}-serving-{requests}req-{}",
                self.workload.label(),
                self.parallelism
            ));
            let ranges: Vec<Range<usize>> =
                shape.iter().map(|count| combined.extend_from(&self.templates[count])).collect();
            (combined, ranges)
        });
        let prepared =
            spans.time("sim.prepare", || Simulator::new(self.chip.clone()).prepare(&compiled));
        let anchors = compiled.num_anchors();
        PreparedShape { shape, compiled, prepared, op_ranges, anchors }
    }
}

/// Serves a trace with `run_traced` and renders its Chrome trace JSON,
/// returning the JSON's length in bytes.
pub fn export(sim: &ServingSimulator, spec: &Spec, arrivals: &[u64], spans: &mut Spans) -> usize {
    spans.time("sim.export", || {
        let (_, recorder) = sim.run_traced(arrivals, &spec.policy);
        recorder.chrome_json().len()
    })
}
