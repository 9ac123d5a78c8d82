//! Host-time benchmark of the ReGate serving pipeline.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` it measures the untraced pipeline end to end: cold
//! start-up, warm per-trace host time, throughput and peak memory. With
//! `--trace 1` it measures each layer from a traced run and the tracing
//! overhead against an untraced run in the same process. Every served
//! trace is checked; the first trace and one sampled later trace are
//! compared with the uncached oracle. The last line of standard output is
//! one JSON object with the result. `--out` names a directory the result,
//! the per-trace samples and the spans are also written to; nothing is
//! written without it. See `README.md` for the workloads and metrics.

mod alloc;
mod pipeline;
mod spans;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pipeline::{LayerOut, Layered, Served, Server, Spec};
use regate_bench::Fnv1a;
use spans::Spans;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Cold starts per run: at least the first bound, then more until they
/// have taken `COLD_START_TIME`, at most the second bound. `setup_s` is
/// their median.
const COLD_STARTS: (usize, usize) = (5, 100);
const COLD_START_TIME: Duration = Duration::from_secs(2);
/// Fewest warm traces a run measures, so that p90 has ten samples beyond it.
const MIN_WARM_TRACES: usize = 100;
/// Traces from which the traced run takes its counts, from trace 0 on.
const COUNTED_TRACES: usize = 15;
/// Traced traces that are also exported as Chrome trace JSON.
const EXPORTED_TRACES: [usize; 3] = [1, 2, 3];
/// A phase that has measured `--seconds` stops here even if it has too
/// few samples.
const MAX_PHASE: Duration = Duration::from_secs(120);

const USAGE: &str =
    "usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::named(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; expected dlrm_poisson, decode_sparse or \
                         sweep_churn"
                    )
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err(format!("--seconds must be 1..=600, got {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
            },
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servebench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run { args, tally: Tally::default(), metrics: Vec::new(), samples: Vec::new() };
    let spans = if run.args.trace {
        run.traced()
    } else {
        run.untraced();
        Spans::off()
    };
    let line = run.result_json();
    if let Some(dir) = &run.args.out {
        if let Err(error) = run.write_out(dir, &line, &spans) {
            eprintln!("servebench: cannot write to {}: {error}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Traces checked and traces that failed a check. Every failure is printed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: BTreeSet<String>,
}

impl Tally {
    fn check(&mut self, label: &str, failures: &[String]) {
        self.attempted += 1;
        for failure in failures {
            eprintln!("servebench: FAILED {label}: {failure}");
            self.failed.insert(label.to_string());
        }
    }
}

/// One benchmark run.
struct Run {
    args: Args,
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
    /// Per-trace samples, written with `--out`.
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Run {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Index of the later trace compared with the oracle: a function of
    /// the seed, within the traces every run serves.
    fn sampled_trace(&self, traces: usize) -> usize {
        1 + usize::try_from(self.args.seed % (traces as u64 - 1)).expect("below traces")
    }

    /// The end-to-end run: cold starts, then warm traces for `--seconds`.
    fn untraced(&mut self) {
        let spec = self.args.spec;
        let mut off = Spans::off();
        let first = spec.arrivals(self.args.seed, 0);

        let mut setup_s = Vec::new();
        let mut first_digest = None;
        let mut server = None;
        let phase = Instant::now();
        while setup_s.len() < COLD_STARTS.0
            || (phase.elapsed() < COLD_START_TIME && setup_s.len() < COLD_STARTS.1)
        {
            let start = setup_s.len();
            drop(server.take());
            let clock = Instant::now();
            let fresh = Server::new(&spec);
            let served = fresh.serve(&spec, &first, true, &mut off);
            setup_s.push(clock.elapsed().as_secs_f64());
            let mut failures = served.failures;
            if first_digest.is_some_and(|digest| Some(digest) != served.digest) {
                failures.push("schedule digest differs from the first cold start".to_string());
            }
            first_digest = first_digest.or(served.digest);
            self.tally.check(&format!("cold start {start} (trace 0)"), &failures);
            server = Some(fresh);
        }
        let mut server = server.expect("at least one cold start");

        let sampled = self.sampled_trace(MIN_WARM_TRACES);
        let mut sampled_digest = None;
        let (mut trace_ms, mut cycles_per_s) = (Vec::new(), Vec::new());
        let budget = Duration::from_secs(self.args.seconds);
        let phase = Instant::now();
        let mut index = 1;
        while phase.elapsed() < budget
            || (trace_ms.len() < MIN_WARM_TRACES && phase.elapsed() < MAX_PHASE)
        {
            if spec.starts_epoch(index) {
                server = Server::new(&spec);
            }
            let arrivals = spec.arrivals(self.args.seed, index);
            let clock = Instant::now();
            let served = server.serve(&spec, &arrivals, index == sampled, &mut off);
            let seconds = clock.elapsed().as_secs_f64();
            trace_ms.push(seconds * 1e3);
            cycles_per_s.push(served.makespan_cycles as f64 / seconds);
            if index == sampled {
                sampled_digest = served.digest;
            }
            self.tally.check(&format!("trace {index}"), &served.failures);
            index += 1;
        }
        let peak_rss_mib = vm_hwm_kib() as f64 / 1024.0;
        drop(server);
        self.check_oracle(&[(0, first_digest), (sampled, sampled_digest)]);

        let p50 = median(&trace_ms);
        let (p90, beyond) = nearest_rank(&trace_ms, 0.9);
        println!(
            "servebench: {} seed {}: {} warm traces of {} requests (p90 has {beyond} beyond it), \
             {} cold starts, first-trace digest {:016x}",
            spec.name,
            self.args.seed,
            trace_ms.len(),
            spec.requests,
            setup_s.len(),
            first_digest.unwrap_or(0)
        );
        self.metric("requests_per_s", spec.requests as f64 / (p50 / 1e3), "1/s");
        self.metric("sim_cycles_per_s", median(&cycles_per_s), "cycles/s");
        self.metric("trace_ms_p50", p50, "ms");
        self.metric("trace_ms_p90", p90, "ms");
        self.metric("setup_s", median(&setup_s), "s");
        self.metric("peak_rss_mib", peak_rss_mib, "MiB");
        self.samples = vec![("trace_ms", trace_ms), ("setup_s", setup_s)];
    }

    /// The per-layer run: the same per-trace work twice, each time from a
    /// fresh simulator for half of `--seconds`, first with the span
    /// recorder off and then on. The ratio of the two phases' pipeline
    /// times is the tracing overhead.
    fn traced(&mut self) -> Spans {
        let half = Duration::from_secs_f64(self.args.seconds as f64 / 2.0);
        let reference = self.layered_phase(&mut Spans::off(), half, "reference");
        let mut spans = Spans::on();
        let traced = self.layered_phase(&mut spans, half, "traced");

        let digests = |phase: &Phase| -> Vec<Option<u64>> {
            phase.counted.iter().map(|(served, _)| served.digest).collect()
        };
        let mut failures = Vec::new();
        if digests(&reference) != digests(&traced) {
            failures.push("schedule digests differ between the untraced and traced phases".into());
        }
        self.tally.check("phase determinism", &failures);
        let sampled = self.sampled_trace(COUNTED_TRACES);
        let digest = |index: usize| traced.counted.get(index).and_then(|(served, _)| served.digest);
        self.check_oracle(&[(0, digest(0)), (sampled, digest(sampled))]);

        self.layer_metrics(&spans, &traced);
        let overhead = median(&traced.pipeline_ms) / median(&reference.pipeline_ms);
        self.metric("bench.trace_overhead", overhead, "ratio");
        println!(
            "servebench: {} seed {}: {} traced and {} untraced traces ({COUNTED_TRACES} counted), \
             {} spans",
            self.args.spec.name,
            self.args.seed,
            traced.traces,
            reference.traces,
            spans.spans().len()
        );
        self.samples = vec![
            ("reference_pipeline_ms", reference.pipeline_ms),
            ("traced_pipeline_ms", traced.pipeline_ms),
        ];
        spans
    }

    /// Serves traces for `budget`, and for at least `COUNTED_TRACES`, from
    /// a fresh simulator: each trace first through the layer calls, then
    /// through the pipeline, and a few also through the trace exporter.
    fn layered_phase(&mut self, spans: &mut Spans, budget: Duration, label: &str) -> Phase {
        let spec = self.args.spec;
        let mut server = Server::new(&spec);
        let mut layered = Layered::new(&server.sim);
        let mut phase = Phase::default();
        let start = Instant::now();
        while start.elapsed() < budget
            || (phase.traces < COUNTED_TRACES && start.elapsed() < MAX_PHASE)
        {
            let index = phase.traces;
            if spec.starts_epoch(index) {
                server = Server::new(&spec);
                layered = Layered::new(&server.sim);
            }
            let arrivals = spec.arrivals(self.args.seed, index);
            spans.set_trace(index);
            spans.begin("trace");
            let layer = layered.trace(&spec, &arrivals, server.evaluator(), spans);
            let before = server.sim.cache_counters();
            spans.begin("pipeline");
            let clock = Instant::now();
            let served = server.serve(&spec, &arrivals, true, spans);
            let pipeline_ms = clock.elapsed().as_secs_f64() * 1e3;
            spans.end();
            let after = server.sim.cache_counters();
            if EXPORTED_TRACES.contains(&index) {
                let bytes = pipeline::export(&server.sim, &spec, &arrivals, spans);
                phase.export_bytes.push(bytes as f64);
            }
            spans.end();

            let mut failures = served.failures.clone();
            if served.digest != Some(layer.digest) || served.events_popped != layer.events_popped {
                failures.push(
                    "the replay rebuilt from layer calls differs from ServingSimulator::run"
                        .to_string(),
                );
            }
            self.tally.check(&format!("{label} trace {index}"), &failures);
            if index > 0 {
                phase.pipeline_ms.push(pipeline_ms);
            }
            phase.events_by_trace.push(served.events_popped);
            if index < COUNTED_TRACES {
                phase.cache_hits[0] += after.batch_hits - before.batch_hits;
                phase.cache_hits[1] += after.trace_hits - before.trace_hits;
                phase.cache_lookups[0] += (after.batch_hits + after.batch_misses)
                    - (before.batch_hits + before.batch_misses);
                phase.cache_lookups[1] += (after.trace_hits + after.trace_misses)
                    - (before.trace_hits + before.trace_misses);
                phase.counted.push((served, layer));
            }
            phase.traces += 1;
        }
        phase
    }

    /// Per-layer metrics from the spans and the counted traces.
    fn layer_metrics(&mut self, spans: &Spans, phase: &Phase) {
        const TIMED: [&str; 15] = [
            "serving.form",
            "serving.run",
            "serving.report",
            "serving.verify",
            "models.lower",
            "compiler.compile",
            "compiler.concat",
            "sim.prepare",
            "sim.releases",
            "sim.event_loop",
            "sim.materialize",
            "sim.result_clone",
            "sim.export",
            "core.evaluate",
            "core.policies",
        ];
        for name in TIMED {
            let of_name: Vec<&spans::Span> =
                spans.spans().iter().filter(|s| s.name == name).collect();
            // Warm calls where there are any; layers that run only on a
            // cache miss may have run in trace 0 alone.
            let warm: Vec<f64> = of_name.iter().filter(|s| s.trace > 0).map(|s| s.ms()).collect();
            let ms = if warm.is_empty() { of_name.iter().map(|s| s.ms()).collect() } else { warm };
            let allocs: Vec<f64> = of_name
                .iter()
                .filter(|s| s.trace < COUNTED_TRACES)
                .map(|s| s.allocs as f64)
                .collect();
            self.metric(format!("{name}_ms"), median(&ms), "ms");
            self.metric(format!("{name}_allocs"), median(&allocs), "count");
        }

        let per_trace = |name: &str| -> Vec<(usize, f64)> {
            spans
                .spans()
                .iter()
                .filter(|s| s.name == name && s.trace > 0)
                .map(|s| (s.trace, s.ms()))
                .collect()
        };
        let replay = per_trace("sim.replay");
        let finish: Vec<f64> = per_trace("serving.run")
            .iter()
            .zip(&replay)
            .map(|(&(_, run), &(_, replay))| run - replay)
            .collect();
        self.metric("serving.finish_ms", median(&finish), "ms");
        let event_ns: Vec<f64> = per_trace("sim.event_loop")
            .iter()
            .map(|&(trace, ms)| ms * 1e6 / phase.events_by_trace[trace] as f64)
            .collect();
        self.metric("sim.event_ns", median(&event_ns), "ns");

        let column = |f: &dyn Fn(&(Served, LayerOut)) -> f64| -> f64 {
            median(&phase.counted.iter().map(f).collect::<Vec<f64>>())
        };
        self.metric("serving.batches", column(&|(s, _)| s.batches as f64), "count");
        let ratio = |hits: u64, lookups: u64| hits as f64 / lookups.max(1) as f64;
        self.metric(
            "serving.batch_cache_hit_ratio",
            ratio(phase.cache_hits[0], phase.cache_lookups[0]),
            "ratio",
        );
        self.metric(
            "serving.trace_cache_hit_ratio",
            ratio(phase.cache_hits[1], phase.cache_lookups[1]),
            "ratio",
        );
        self.metric("compiler.ops", column(&|(_, l)| l.ops as f64), "count");
        self.metric("sim.events_popped", column(&|(s, _)| s.events_popped as f64), "count");
        self.metric("sim.heap_peak", column(&|(s, _)| s.heap_peak as f64), "count");
        self.metric("sim.release_stalls", column(&|(s, _)| s.release_stalls as f64), "count");
        self.metric("model.makespan_cycles", column(&|(s, _)| s.makespan_cycles as f64), "cycles");
        self.metric(
            "model.p99_latency_cycles",
            column(&|(s, _)| s.p99_latency_cycles as f64),
            "cycles",
        );
        self.metric("model.duty_cycle", column(&|(s, _)| s.duty_cycle), "fraction");
        self.metric("model.savings_full", column(&|(s, _)| s.savings_full), "fraction");
        let mut digest = Fnv1a::new();
        for (served, _) in &phase.counted {
            digest.push(served.digest.unwrap_or(0));
        }
        // 52 bits, so that the JSON number holds the value exactly.
        self.metric("model.digest", (digest.digest() & ((1 << 52) - 1)) as f64, "fnv52");
        self.metric("sim.export_bytes", median(&phase.export_bytes), "bytes");
    }

    /// Serves each `(trace, digest)` again through `run_uncached` and
    /// compares the schedule digests.
    fn check_oracle(&mut self, traces: &[(usize, Option<u64>)]) {
        let spec = self.args.spec;
        for &(index, digest) in traces {
            let arrivals = spec.arrivals(self.args.seed, index);
            let oracle = spec.simulator().run_uncached(&arrivals, &spec.policy);
            let expected = pipeline::schedule_digest(&oracle.simulation);
            let failures = match digest {
                Some(digest) if digest == expected => Vec::new(),
                Some(digest) => vec![format!(
                    "schedule digest {digest:016x} differs from run_uncached's {expected:016x}"
                )],
                None => vec!["the trace was not served, so it was not compared".to_string()],
            };
            self.tally.check(&format!("oracle trace {index}"), &failures);
        }
    }

    fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (index, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if index == 0 { "" } else { ", " };
            let value = if value.is_finite() { value.to_string() } else { "null".to_string() };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        let failed = self.tally.failed.len();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
            failed == 0,
            self.tally.attempted
        )
    }

    fn write_out(&self, dir: &std::path::Path, line: &str, spans: &Spans) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut samples = String::new();
        for (index, (name, values)) in self.samples.iter().enumerate() {
            let sep = if index == 0 { "" } else { ", " };
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = write!(samples, "{sep}\"{name}\": [{}]", values.join(", "));
        }
        let text = format!(
            "{{\"result\": {line},\n\"samples\": {{{samples}}},\n\"spans\": {}}}\n",
            spans.to_json()
        );
        let file = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.args.spec.name,
            self.args.seed,
            u8::from(self.args.trace)
        ));
        std::fs::write(file, text)
    }
}

/// What one phase of the traced run measured.
#[derive(Default)]
struct Phase {
    /// Traces served.
    traces: usize,
    /// Host time of the pipeline calls of each trace after the first.
    pipeline_ms: Vec<f64>,
    /// The first `COUNTED_TRACES` traces.
    counted: Vec<(Served, LayerOut)>,
    /// Engine events popped by each trace.
    events_by_trace: Vec<u64>,
    /// Batch-template and prepared-trace cache hits over the counted
    /// traces' pipeline calls.
    cache_hits: [u64; 2],
    /// Lookups in the same two caches.
    cache_lookups: [u64; 2],
    /// Chrome trace JSON bytes of the exported traces.
    export_bytes: Vec<f64>,
}

/// Peak resident set size of this process, in KiB (`VmHWM`).
fn vm_hwm_kib() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB")
}

/// Median, averaging the middle pair of an even count; 0 for no samples.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` and the number of samples above its rank.
fn nearest_rank(values: &[f64], q: f64) -> (f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}
