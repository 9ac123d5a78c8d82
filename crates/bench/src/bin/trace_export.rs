//! Observability export harness: runs a multi-chip pipeline trace and a
//! serving trace with a [`TraceRecorder`] attached, validates both
//! exports against the `obs.*` analyzer rules, folds the pod run's busy
//! timeline into a power-over-time waveform, cross-checks the waveform's
//! integral against [`EnergyBreakdown`] totals, and writes everything as
//! Chrome trace-event JSON (open in `chrome://tracing` or Perfetto).
//!
//! Run with `cargo run --release -p regate_bench --bin trace_export`.
//! Writes `TRACE_pod.json`, `POWER_pod.json`, and `TRACE_serving.json`
//! into the current directory (override with `--out-dir <dir>`). Exits
//! nonzero if any `obs.*` rule denies an export or the waveform integral
//! disagrees with the energy breakdown.

use std::collections::BTreeMap;

use npu_arch::{ComponentKind, LinkGraph, NpuGeneration, NpuSpec, PodTopology, TorusKind};
use npu_compiler::CollectivePlan;
use npu_models::{CollectiveKind, DlrmSize, Workload};
use npu_power::energy::ChipUsage;
use npu_power::{EnergyBreakdown, GatePolicy, GatingParams, PowerModel, PowerPolicy};
use npu_power::{PowerTimeline, SramGateMode, NPU_DUTY_CYCLE};
use npu_serving::{ArrivalProcess, BatchPolicy, ServingSimulator};
use npu_sim::pod::pipeline_trace;
use npu_sim::{EngineScratch, ResourceTimeline, TraceRecorder};
use regate_bench::{kv, section};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir: String = args
        .iter()
        .position(|a| a == "--out-dir")
        .map(|i| args[i + 1..].first().expect("--out-dir takes a path").clone())
        .unwrap_or_else(|| ".".to_string());

    pod_export(&out_dir);
    serving_export(&out_dir);
}

/// Requires zero `obs.*` diagnostics from one validated export.
fn assert_clean(what: &str, diagnostics: &[npu_sim::analysis::Diagnostic]) {
    assert!(
        diagnostics.is_empty(),
        "{what} failed obs.* validation:\n{}",
        diagnostics
            .iter()
            .map(|d| format!("  [{}] {}", d.rule_id, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    println!("obs.* validation: {what} clean");
}

/// Pipeline-parallel decode on a 4-chip torus with an imbalanced stage
/// split (chip 1 on the critical path, the rest in bubbles) plus a
/// trailing all-reduce, exported with per-unit tracks, link tracks, and
/// per-component power-state counter tracks.
fn pod_export(out_dir: &str) {
    section("Pod pipeline trace export");
    let graph = LinkGraph::torus(&PodTopology::for_chips(TorusKind::Torus2D, 4));
    let mut builder = pipeline_trace(&graph, &[9_000, 15_000, 11_000, 7_000], 6);
    let plan = CollectivePlan::lower(CollectiveKind::AllReduce, 14_000, &graph);
    let tail = builder.len() - 1;
    builder.push_collective(&plan, vec![tail]);

    let engine = builder.engine();
    let mut recorder = TraceRecorder::for_set(&engine.resources());
    let schedule =
        engine.run_with_scratch_observed(&[], &mut EngineScratch::default(), &mut recorder);
    kv("makespan (cycles)", schedule.makespan);
    kv("trace slices", recorder.num_slices());
    kv("engine events popped", schedule.counters.events_popped);
    kv("collective link hops", schedule.counters.collective_hops);

    assert_clean(
        "pod pipeline trace",
        &npu_sim::analysis::check_trace_export(
            &recorder,
            &schedule.resource_timeline,
            schedule.makespan,
        ),
    );

    // Fold the kind-level busy timeline into watts(t) under the default
    // gating parameters, then require the waveform's integral to agree
    // with the energy breakdown built from the identical interval walks.
    let spec = NpuSpec::generation(NpuGeneration::D);
    let model = PowerModel::new(&spec);
    let params = GatingParams::default();
    let spc = spec.cycle_seconds();
    let makespan = schedule.makespan;
    let busy_of = |kind: ComponentKind| -> Vec<(u64, u64)> {
        schedule.timeline.intervals(kind).iter().map(|iv| (iv.start, iv.end)).collect()
    };
    // Dynamic energy needs a usage profile; activate each term only when
    // the schedule actually exercised the component (the waveform layer
    // refuses dynamic joules it has no busy interval to spread over).
    let usage = ChipUsage {
        busy_seconds: makespan as f64 * spc,
        sa_flops: if busy_of(ComponentKind::Sa).is_empty() { 0.0 } else { 1e12 },
        vu_flops: if busy_of(ComponentKind::Vu).is_empty() { 0.0 } else { 2e11 },
        hbm_bytes: if busy_of(ComponentKind::Hbm).is_empty() { 0.0 } else { 3e9 },
        ici_bytes: if busy_of(ComponentKind::Ici).is_empty() { 0.0 } else { 1e9 },
        sram_bytes: if busy_of(ComponentKind::Sram).is_empty() { 0.0 } else { 9e9 },
        dma_bytes: if busy_of(ComponentKind::Dma).is_empty() { 0.0 } else { 3e9 },
    };
    let baseline = EnergyBreakdown::no_power_gating_with_duty(&model, &usage, NPU_DUTY_CYCLE);

    let mut tl = PowerTimeline::new(spc, makespan);
    let mut equivalent_seconds = BTreeMap::new();
    for kind in ComponentKind::ALL {
        let intervals = busy_of(kind);
        // Logic components gate compiler-directed at their own BET and
        // delay, SRAM in the drowsy retention mode; the peripheral logic
        // cannot gate.
        let gating = match kind {
            ComponentKind::Other => None,
            ComponentKind::Sram => Some(params.sram_mode_gating(SramGateMode::Drowsy)),
            _ => Some(params.component_gating(kind, GatePolicy::CompilerDirected, 1.0)),
        };
        tl.add_component(
            kind,
            model.static_power_w(kind),
            baseline.component(kind).dynamic_j,
            &intervals,
            gating,
        );
        let busy_cycles: u64 = intervals.iter().map(|(s, e)| e - s).sum();
        let eq = match gating {
            None => makespan as f64,
            Some(g) => {
                let gaps: Vec<u64> = schedule
                    .timeline
                    .idle_intervals(kind, makespan)
                    .iter()
                    .map(|iv| iv.len())
                    .collect();
                busy_cycles as f64 + g.walk_intervals(&gaps, &[]).equivalent_cycles
            }
        };
        equivalent_seconds.insert(kind, eq * spc);
    }
    let gated = EnergyBreakdown::gated(&baseline, &model, &equivalent_seconds, 0.0, 0.0);
    assert!(
        tl.energy_matches(gated.total_j(), 1e-9),
        "waveform integral {} J disagrees with the energy breakdown {} J",
        tl.total_energy_j(),
        gated.total_j()
    );
    kv("waveform energy (J)", format!("{:.6}", tl.total_energy_j()));
    kv("breakdown energy (J)", format!("{:.6}", gated.total_j()));
    println!("waveform integral matches EnergyBreakdown totals (rel 1e-9)");

    // Attach each component's watts(t) as a counter track so the power
    // states render alongside the unit and link tracks in the same view.
    for kind in ComponentKind::ALL {
        if let Some(samples) = tl.counter_samples(kind) {
            recorder.add_counter_track(format!("power.{kind}"), "watts", samples);
        }
    }

    let trace_path = format!("{out_dir}/TRACE_pod.json");
    std::fs::write(&trace_path, recorder.chrome_json())
        .unwrap_or_else(|e| panic!("write {trace_path}: {e}"));
    println!("wrote {trace_path}");
    let power_path = format!("{out_dir}/POWER_pod.json");
    std::fs::write(&power_path, tl.waveform_json())
        .unwrap_or_else(|e| panic!("write {power_path}: {e}"));
    println!("wrote {power_path}");
}

/// A short DLRM serving run through [`ServingSimulator::run_traced`]:
/// batch flow events connect each batch's dispatch to its completion on
/// top of the single-chip unit tracks.
fn serving_export(out_dir: &str) {
    section("Serving trace export");
    let server =
        ServingSimulator::new(NpuGeneration::D, 1, Workload::dlrm(DlrmSize::Small).with_batch(8));
    let arrivals =
        ArrivalProcess::Poisson { mean_interval_cycles: 100_000.0, seed: 11 }.arrivals(12);
    let policy = BatchPolicy::Static { batch: 4 };
    let (outcome, recorder) = server.run_traced(&arrivals, &policy);
    kv("makespan (cycles)", outcome.makespan_cycles());
    kv("batches", outcome.batches.len());
    kv("trace slices", recorder.num_slices());
    kv("batch cache", format!("{:?}", outcome.cache));

    let timeline = ResourceTimeline::single_chip_view(outcome.simulation.busy_timeline());
    assert_clean(
        "serving trace",
        &npu_sim::analysis::check_trace_export(&recorder, &timeline, outcome.makespan_cycles()),
    );

    let trace_path = format!("{out_dir}/TRACE_serving.json");
    std::fs::write(&trace_path, recorder.chrome_json())
        .unwrap_or_else(|e| panic!("write {trace_path}: {e}"));
    println!("wrote {trace_path}");
}
