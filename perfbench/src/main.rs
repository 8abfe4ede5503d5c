//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <batch-day|stream-epochs|flood-day> [--seed <n>]
//!           [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Generates the workload's inputs from the seed, runs the correctness
//! gates, then measures for `--seconds` seconds and prints, as the last
//! line of standard output, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! Any failed gate exits non-zero without printing a result. See
//! `README.md` beside this package for the workloads and metrics.

mod alloc;
mod inputs;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use dnsnoise_core::{DomainTree, MiningReport};
use inputs::{Inputs, Workload};
use spans::{now, Tracer};
use workloads::{Knobs, Outcome};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Back-to-back set-ups averaged into one `setup_s` sample, so a sample
/// spans milliseconds rather than the tens of microseconds of one set-up.
const SETUPS_PER_SAMPLE: usize = 100;
/// `setup_s` samples taken before the first and after each measured run,
/// so they cover the same stretch of time as the runs; `setup_s` is their
/// median.
const SETUP_SAMPLES_PER_RUN: usize = 5;
/// Fewest measured runs, whatever `--seconds` says.
const MIN_RUNS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <batch-day|stream-epochs|flood-day> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected an integer"))?;
                if seconds == 0 {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (`q` in 0..=1).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What the gates establish.
struct Reference {
    /// The output every measured run must reproduce byte for byte. The
    /// stream has no gate run with its measured configuration, so its
    /// first measured run sets it.
    output: Option<String>,
    accuracy: Option<MiningReport>,
    /// The streamed day's pristine batch tree, to score the stream's
    /// findings once its first measured run returns them.
    stream_tree: Option<DomainTree>,
}

/// The correctness gates run before any timing.
///
/// - `batch-day`: one run; its ingest ledger must conserve bytes.
/// - `flood-day`: one run on a single thread, the baseline the
///   measured multi-threaded runs must equal byte for byte; its
///   admission ledger must conserve queries.
/// - `stream-epochs`: a run with oversized sketches must reproduce batch
///   mining of the same trace exactly.
///
/// Every run, gate or measured, also checks its own ledger.
fn gates(inputs: &Inputs) -> Result<Reference, String> {
    let mut off = Tracer::new(false);
    let gt = &inputs.ground_truth;
    match inputs.workload {
        Workload::BatchDay | Workload::FloodDay => {
            let knobs = Knobs { threads: 1, ..Knobs::default() };
            let gate = workloads::run(inputs, knobs, &mut off, Some(gt))?;
            eprintln!("gate: single-threaded run conserves ({:.3} s)", gate.wall.as_secs_f64());
            Ok(Reference { output: Some(gate.output), accuracy: gate.accuracy, stream_tree: None })
        }
        Workload::StreamEpochs => {
            let wide = Knobs { cm_width: workloads::OVERSIZED_CM_WIDTH, ..Knobs::default() };
            let exact = workloads::run(inputs, wide, &mut off, None)?;
            let (batch, pristine) = workloads::stream_reference(inputs)?;
            if workloads::findings_text(&exact.findings) != workloads::findings_text(&batch) {
                return Err("stream with oversized sketches differs from batch mining".into());
            }
            eprintln!(
                "gate: oversized-sketch stream reproduces batch mining ({} findings)",
                batch.len()
            );
            Ok(Reference { output: None, accuracy: None, stream_tree: Some(pristine) })
        }
    }
}

/// One measured run, checked against the reference output.
fn measured_run(
    inputs: &Inputs,
    tracer: &mut Tracer,
    reference: &mut Reference,
) -> Result<Outcome, String> {
    let out = workloads::run(inputs, Knobs::default(), tracer, None)?;
    match &reference.output {
        Some(expected) if *expected != out.output => {
            return Err("a measured run's output differs from the reference run's".into());
        }
        Some(_) => {}
        None => reference.output = Some(out.output.clone()),
    }
    if let Some(pristine) = reference.stream_tree.take() {
        reference.accuracy = Some(workloads::score(&out.findings, &pristine, &inputs.ground_truth));
    }
    Ok(out)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn result_json(attempted: usize, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{body}}}}}"
    )
}

fn end_to_end(
    inputs: &Inputs,
    accuracy: &MiningReport,
    setups: &[f64],
    runs: &[Outcome],
    cpus: usize,
) -> Vec<Metric> {
    let events = inputs.generated_events as f64;
    let rates: Vec<f64> = runs.iter().map(|o| events / o.wall.as_secs_f64()).collect();
    let heaps: Vec<f64> = runs.iter().map(|o| o.peak_heap as f64 / 1e6).collect();
    let verdicts: Vec<f64> = runs.iter().flat_map(|o| o.verdicts.iter().map(|&d| ms(d))).collect();
    let failed: Vec<f64> = runs.iter().map(|o| o.failed_events as f64 / events).collect();
    println!(
        "{} measured runs, {} verdict samples, {} set-up samples",
        runs.len(),
        verdicts.len(),
        setups.len()
    );
    vec![
        Metric { name: "events_per_s", value: median(&rates), unit: "1/s" },
        Metric { name: "setup_s", value: median(setups), unit: "s" },
        Metric { name: "peak_heap_mb", value: median(&heaps), unit: "MB" },
        Metric { name: "verdict_p50_ms", value: quantile(&verdicts, 0.5), unit: "ms" },
        Metric { name: "verdict_p90_ms", value: quantile(&verdicts, 0.9), unit: "ms" },
        Metric { name: "answered_frac", value: 1.0 - median(&failed), unit: "ratio" },
        Metric { name: "tpr", value: accuracy.tpr(), unit: "ratio" },
        Metric { name: "tnr", value: 1.0 - accuracy.fpr(), unit: "ratio" },
        Metric { name: "cpus", value: cpus as f64, unit: "count" },
    ]
}

/// Per-layer self-time metrics and the span name each is taken from.
const SELF_TIME_ROWS: [(&str, &str); 11] = [
    ("ingest.scan_ms", "ingest.scan"),
    ("ingest.decode_ms", "ingest.decode"),
    ("trace.parse_ms", "trace.parse"),
    ("resolver.replay_ms", "resolver.replay"),
    ("pdns.observe_ms", "pdns.observe"),
    ("pdns.merge_ms", "pdns.merge"),
    ("core.tree_ms", "core.tree"),
    ("core.mine_ms", "core.mine"),
    ("stream.push_ms", "stream.push"),
    ("stream.epoch_close_ms", "stream.epoch_close"),
    ("stream.finish_ms", "stream.finish"),
];

fn per_layer(
    inputs: &Inputs,
    accuracy: &MiningReport,
    tracer: &Tracer,
    traced: &Outcome,
    untraced_walls: &[f64],
    traced_walls: &[f64],
) -> Result<Vec<Metric>, String> {
    let rows = tracer.self_times(traced.run)?;
    if let Some(name) = rows.keys().find(|n| !SELF_TIME_ROWS.iter().any(|(_, s)| s == *n)) {
        return Err(format!("span {name} has no self-time row"));
    }
    let wall = ms(traced.wall);
    let other = wall - rows.values().sum::<f64>();
    if other < 0.0 {
        return Err(format!("layer self times exceed the traced wall by {:.3} ms", -other));
    }
    let mut table = String::from("self time (traced run with the median wall time):\n");
    let mut metrics = Vec::new();
    for (metric, span) in SELF_TIME_ROWS.into_iter().chain([("other_ms", "other")]) {
        let value = if span == "other" { other } else { rows.get(span).copied().unwrap_or(0.0) };
        if span == "other" || rows.contains_key(span) {
            let _ =
                writeln!(table, "  {metric:<24} {value:>10.1} ms {:>6.1}%", 100.0 * value / wall);
        }
        metrics.push(Metric { name: metric, value, unit: "ms" });
    }
    let _ = writeln!(table, "  {:<24} {wall:>10.1} ms", "traced wall");
    print!("{table}");
    let c = &traced.counts;
    let pdns_new_frac =
        if c.pdns_calls == 0 { 0.0 } else { c.pdns_new as f64 / c.pdns_calls as f64 };
    metrics.extend([
        Metric { name: "traced_wall_ms", value: wall, unit: "ms" },
        Metric { name: "other_frac", value: other / wall, unit: "ratio" },
        Metric {
            name: "trace_overhead_frac",
            value: median(traced_walls) / median(untraced_walls) - 1.0,
            unit: "ratio",
        },
        Metric { name: "ingest.frames", value: c.ingest_frames as f64, unit: "count" },
        Metric { name: "ingest.error_frac", value: c.ingest_error_frac, unit: "ratio" },
        Metric { name: "trace.lines", value: c.trace_lines as f64, unit: "count" },
        Metric { name: "resolver.events", value: c.resolver_events as f64, unit: "count" },
        Metric { name: "cache.hit_rate", value: c.cache_hit_rate, unit: "ratio" },
        Metric {
            name: "cache.premature_evictions",
            value: c.premature_evictions as f64,
            unit: "count",
        },
        Metric { name: "resolver.above_records", value: c.above_records as f64, unit: "count" },
        Metric { name: "resolver.shed_attack", value: c.shed_attack as f64, unit: "count" },
        Metric { name: "resolver.shed_legit", value: c.shed_legit as f64, unit: "count" },
        Metric { name: "resolver.queue_peak", value: c.queue_peak as f64, unit: "count" },
        Metric { name: "resolver.shards", value: c.shards as f64, unit: "count" },
        Metric { name: "pdns.observe_calls", value: c.pdns_calls as f64, unit: "count" },
        Metric { name: "pdns.new_frac", value: pdns_new_frac, unit: "ratio" },
        Metric { name: "pdns.storage_bytes", value: c.pdns_storage_bytes as f64, unit: "bytes" },
        Metric { name: "core.tree_nodes", value: c.tree_nodes as f64, unit: "count" },
        Metric { name: "core.findings", value: c.findings as f64, unit: "count" },
        Metric { name: "stream.epochs", value: c.stream_epochs as f64, unit: "count" },
        Metric {
            name: "stream.peak_state_bytes",
            value: c.stream_peak_state_bytes as f64,
            unit: "bytes",
        },
        Metric { name: "heap.peak_bytes", value: traced.peak_heap as f64, unit: "bytes" },
        Metric {
            name: "failed_frac",
            value: traced.failed_events as f64 / inputs.generated_events as f64,
            unit: "ratio",
        },
        Metric { name: "fpr", value: accuracy.fpr(), unit: "ratio" },
    ]);
    Ok(metrics)
}

/// Writes the traced run's spans as JSON lines beside this package.
fn write_spans(tracer: &Tracer, args: &Args) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn bench(args: &Args) -> Result<String, String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = now();
    let inputs = inputs::generate(args.workload, args.seed);
    let gen_s = t.elapsed().as_secs_f64();
    eprintln!("generated {} events in {gen_s:.3} s", inputs.generated_events);

    let mut reference = gates(&inputs)?;
    let mut setups = Vec::new();
    let time_setups = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_SAMPLES_PER_RUN {
            let mean = workloads::mean_setup(&inputs, Knobs::default(), SETUPS_PER_SAMPLE)?;
            setups.push(mean.as_secs_f64());
        }
        Ok(())
    };
    time_setups(&mut setups)?;

    let budget = Duration::from_secs(args.seconds);
    let mut tracer = Tracer::new(false);
    let mut traced_tracer = Tracer::new(args.trace);
    let mut runs = Vec::new();
    let mut traced_runs = Vec::new();
    let start = now();
    while runs.len() < MIN_RUNS || start.elapsed() < budget {
        runs.push(measured_run(&inputs, &mut tracer, &mut reference)?);
        time_setups(&mut setups)?;
        if args.trace {
            traced_runs.push(measured_run(&inputs, &mut traced_tracer, &mut reference)?);
        }
    }
    let walls: Vec<String> = runs.iter().map(|o| format!("{:.1}", ms(o.wall))).collect();
    eprintln!("measured run walls (ms): {}", walls.join(" "));

    let accuracy = reference.accuracy.as_ref().ok_or("findings were never scored")?;
    let metrics = if args.trace {
        let untraced: Vec<f64> = runs.iter().map(|o| ms(o.wall)).collect();
        let traced: Vec<f64> = traced_runs.iter().map(|o| ms(o.wall)).collect();
        let mid = median(&traced);
        let chosen = traced_runs
            .iter()
            .min_by(|a, b| (ms(a.wall) - mid).abs().total_cmp(&(ms(b.wall) - mid).abs()))
            .expect("at least one traced run");
        let mut metrics = per_layer(&inputs, accuracy, &traced_tracer, chosen, &untraced, &traced)?;
        metrics.push(Metric { name: "gen_s", value: gen_s, unit: "s" });
        metrics.push(Metric { name: "host.cpus", value: cpus as f64, unit: "count" });
        println!("spans written to {}", write_spans(&traced_tracer, args)?);
        metrics
    } else {
        end_to_end(&inputs, accuracy, &setups, &runs, cpus)
    };
    println!(
        "workload {} seed {}: {} generated events, cpus {cpus}, gen_s {gen_s:.3} (not timed)",
        args.workload.name(),
        args.seed,
        inputs.generated_events
    );
    for m in &metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(result_json(runs.len() + traced_runs.len(), &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}
