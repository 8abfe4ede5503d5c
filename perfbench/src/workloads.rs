//! The three pipelines, driven through the crates' public functions.
//!
//! Each run builds its program state (set-up, timed on its own), then
//! hands the generated input over and runs one closed loop with a single
//! caller until findings come back (the timed region). Rendering the
//! output, checking the ledgers and scoring against ground truth happen
//! after the timed region closes.

use std::fmt::Write as _;
use std::time::Duration;

use dnsnoise_core::{DomainTree, Finding, Miner, MinerConfig, MiningReport};
use dnsnoise_dns::{Record, RrKey, SuffixList};
use dnsnoise_ingest::{ingest_bytes, pcap, CaptureFormat, IngestConfig, IngestReport};
use dnsnoise_pdns::{BackendKind, DailyNewRrs, PdnsBackend, PdnsStore};
use dnsnoise_resolver::{
    DayReport, OverloadConfig, PdnsCollector, ResolverSim, ShardObserver, SimConfig,
};
use dnsnoise_stream::{StreamConfig, StreamMiner};
use dnsnoise_workload::{trace_io, DayTrace, GroundTruth};

use crate::alloc;
use crate::inputs::{Inputs, Payload, Workload, DAY};
use crate::spans::{now, Agg, Tracer};

/// Epoch length of the streamed day: 144 ten-minute windows.
pub const EPOCH_SECS: u64 = 600;
/// Count-min width large enough that the stream's estimates are exact.
pub const OVERSIZED_CM_WIDTH: usize = 1 << 20;
/// Worker threads of the flood replay.
pub const FLOOD_THREADS: usize = 2;

/// The admission budget of `experiments overload`'s guarded rows.
pub fn flood_admission() -> OverloadConfig {
    OverloadConfig::default().with_queue_depth(64).with_service_rate(2).with_rrl(3)
}

/// Knobs the correctness gates vary; the timed runs use the defaults.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Replay threads of `flood-day`.
    pub threads: usize,
    /// Count-min width of `stream-epochs`.
    pub cm_width: usize,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs { threads: FLOOD_THREADS, cm_width: StreamConfig::default().cm_width }
    }
}

/// Per-layer counts read from the reports the layers return.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub ingest_frames: u64,
    pub ingest_error_frac: f64,
    pub trace_lines: u64,
    pub resolver_events: u64,
    pub cache_hit_rate: f64,
    pub premature_evictions: u64,
    pub above_records: u64,
    pub shed_attack: u64,
    pub shed_legit: u64,
    pub queue_peak: u64,
    pub shards: u64,
    pub pdns_calls: u64,
    pub pdns_new: u64,
    pub pdns_storage_bytes: u64,
    pub tree_nodes: u64,
    pub findings: u64,
    pub stream_epochs: u64,
    pub stream_peak_state_bytes: u64,
}

/// One run's result.
#[derive(Debug)]
pub struct Outcome {
    /// Input handed over to findings returned.
    pub wall: Duration,
    /// Peak live heap during the timed region, above its start.
    pub peak_heap: usize,
    /// Findings and ledgers, rendered after the timed region; compared
    /// byte for byte across runs and thread counts.
    pub output: String,
    pub findings: Vec<Finding>,
    /// Generated events that got no answer.
    pub failed_events: u64,
    /// Duration of each verdict: every epoch-closing push for the
    /// stream, the whole run for a batch day.
    pub verdicts: Vec<Duration>,
    pub counts: Counts,
    /// Zone-level accuracy, when ground truth was supplied.
    pub accuracy: Option<MiningReport>,
    /// The tracer's run id for this run's spans.
    pub run: u64,
}

fn build_miner(model_text: &str) -> Result<Miner, String> {
    let model = dnsnoise_ml::model_from_text(model_text).map_err(|e| e.to_string())?;
    Ok(Miner::new(Box::new(model), MinerConfig::default()))
}

/// Shards the day engine runs for `threads` (clamped to the members).
fn shard_count(threads: usize) -> u64 {
    threads.min(SimConfig::default().members).max(1) as u64
}

/// Program state of a batch-style day: everything built before the
/// input is handed over.
struct DaySetup {
    miner: Miner,
    psl: SuffixList,
    sim: ResolverSim,
    backend: PdnsBackend,
}

fn day_setup(model_text: &str) -> Result<DaySetup, String> {
    Ok(DaySetup {
        miner: build_miner(model_text)?,
        psl: SuffixList::builtin(),
        sim: ResolverSim::new(SimConfig::default()),
        backend: PdnsBackend::create(BackendKind::Memory, None),
    })
}

fn stream_setup(miner: &Miner, cm_width: usize) -> StreamMiner<'_> {
    let config = StreamConfig { epoch_secs: EPOCH_SECS, cm_width, ..StreamConfig::default() };
    StreamMiner::new(config, miner).with_store(PdnsBackend::create(BackendKind::Memory, None))
}

/// Builds and drops the program state of `n` runs back to back,
/// returning the mean time one build took (drops are not timed).
pub fn mean_setup(inputs: &Inputs, knobs: Knobs, n: usize) -> Result<Duration, String> {
    let mut total = Duration::ZERO;
    for _ in 0..n {
        let start = now();
        if inputs.workload == Workload::StreamEpochs {
            let miner = build_miner(&inputs.model_text)?;
            let stream = stream_setup(&miner, knobs.cm_width);
            total += start.elapsed();
            drop(stream);
        } else {
            let setup = day_setup(&inputs.model_text)?;
            total += start.elapsed();
            drop(setup);
        }
    }
    Ok(total / n.max(1) as u32)
}

/// Runs `inputs`' workload once.
pub fn run(
    inputs: &Inputs,
    knobs: Knobs,
    tracer: &mut Tracer,
    ground_truth: Option<&GroundTruth>,
) -> Result<Outcome, String> {
    match &inputs.payload {
        Payload::Capture(bytes) => batch_day(inputs, bytes, tracer, ground_truth),
        Payload::TraceText(text) => stream_epochs(inputs, text, knobs, tracer),
        Payload::Day(trace) => flood_day(inputs, trace, knobs, tracer, ground_truth),
    }
}

/// A `PdnsStore` that times every `observe` and counts new records; the
/// traced runs put it inside `PdnsCollector`.
#[derive(Debug)]
struct TimedStore<S> {
    inner: S,
    observe: Agg,
    merge: Agg,
    new: u64,
}

impl<S: PdnsStore> TimedStore<S> {
    fn new(inner: S) -> Self {
        TimedStore { inner, observe: Agg::default(), merge: Agg::default(), new: 0 }
    }
}

impl<S: PdnsStore> PdnsStore for TimedStore<S> {
    fn observe(&mut self, record: &Record, day: u64) -> bool {
        let start = now();
        let new = self.inner.observe(record, day);
        self.observe.record(start, now());
        self.new += u64::from(new);
        new
    }

    fn first_seen(&self, key: &RrKey) -> Option<u64> {
        self.inner.first_seen(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn daily_stats(&self) -> &[DailyNewRrs] {
        self.inner.daily_stats()
    }

    fn storage_bytes(&self) -> u64 {
        self.inner.storage_bytes()
    }

    fn scan_prefix(&self, zone: &dnsnoise_dns::Name) -> Vec<(RrKey, u64)> {
        self.inner.scan_prefix(zone)
    }

    fn merge(&mut self, other: Self) {
        self.observe.merge(&other.observe);
        self.merge.merge(&other.merge);
        self.new += other.new;
        let inner = other.inner;
        self.merge.time(|| self.inner.merge(inner));
    }

    fn fork(&self) -> Self {
        TimedStore::new(self.inner.fork())
    }
}

/// pDNS counts after a replay.
struct PdnsCounts {
    calls: u64,
    new: u64,
    storage_bytes: u64,
}

/// Replays `trace` into a pDNS collector over `backend`: the plain
/// collector when untraced, the timing wrapper when traced.
fn replay(
    tracer: &mut Tracer,
    sim: &mut ResolverSim,
    trace: &DayTrace,
    backend: PdnsBackend,
    overload: Option<&OverloadConfig>,
    threads: usize,
) -> (DayReport, PdnsCounts) {
    fn go<O: ShardObserver>(
        sim: &mut ResolverSim,
        trace: &DayTrace,
        collector: &mut O,
        overload: Option<&OverloadConfig>,
        threads: usize,
    ) -> DayReport {
        let run = sim.day(trace).threads(threads).observer(collector);
        match overload {
            Some(cfg) => run.overload(cfg).run(),
            None => run.run(),
        }
    }
    let shards = shard_count(threads);
    let span = tracer.open("resolver.replay");
    let out = if tracer.is_on() {
        let mut collector = PdnsCollector::new(TimedStore::new(backend));
        let report = go(sim, trace, &mut collector, overload, threads);
        let calls = collector.records();
        let store = collector.into_store();
        tracer.add_agg("pdns.observe", &store.observe, shards);
        tracer.add_agg("pdns.merge", &store.merge, 1);
        let counts =
            PdnsCounts { calls, new: store.new, storage_bytes: store.inner.storage_bytes() };
        (report, counts)
    } else {
        let mut collector = PdnsCollector::new(backend);
        let report = go(sim, trace, &mut collector, overload, threads);
        let calls = collector.records();
        let store = collector.into_store();
        let counts =
            PdnsCounts { calls, new: store.len() as u64, storage_bytes: store.storage_bytes() };
        (report, counts)
    };
    tracer.close(span);
    out
}

fn render_findings(out: &mut String, findings: &[Finding]) {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| a.zone.cmp(&b.zone).then(a.depth.cmp(&b.depth)));
    for f in sorted {
        let _ = writeln!(out, "{}\t{}\t{:?}\t{}", f.zone, f.depth, f.confidence, f.members);
    }
}

fn render_day(out: &mut String, report: &DayReport) {
    let o = &report.overload;
    let _ = writeln!(
        out,
        "below {} above {} nx_below {} nx_above {} rrs {} hits {:?} premature {} servfail {}",
        report.below_total,
        report.above_total,
        report.nx_below,
        report.nx_above,
        report.rr_stats.len(),
        report.cache.hit_rate(),
        report.cache.premature_evictions(),
        report.resilience.servfails_below,
    );
    let _ = writeln!(
        out,
        "offered {} admitted {} dropped {} rate_limited {} shed {}/{} stale {} queue_peak {}",
        o.offered,
        o.admitted,
        o.dropped,
        o.rate_limited,
        o.shed_attack,
        o.shed_legit,
        o.stale_under_pressure,
        o.queue_peak,
    );
}

fn day_counts(report: &DayReport, pdns: &PdnsCounts, shards: u64, events: u64) -> Counts {
    Counts {
        resolver_events: events,
        cache_hit_rate: report.cache.hit_rate(),
        premature_evictions: report.cache.premature_evictions(),
        above_records: report.above_total,
        shed_attack: report.overload.shed_attack,
        shed_legit: report.overload.shed_legit,
        queue_peak: report.overload.queue_peak,
        shards,
        pdns_calls: pdns.calls,
        pdns_new: pdns.new,
        pdns_storage_bytes: pdns.storage_bytes,
        ..Counts::default()
    }
}

/// Zone-level accuracy of `findings` against ground truth. Eligibility
/// needs a pristine (never mined) tree of the same day.
pub fn score(findings: &[Finding], pristine: &DomainTree, gt: &GroundTruth) -> MiningReport {
    let min_group_size = MinerConfig::default().min_group_size;
    MiningReport::evaluate(
        DAY,
        findings.to_vec(),
        pristine,
        gt,
        &SuffixList::builtin(),
        min_group_size,
    )
}

fn batch_day(
    inputs: &Inputs,
    bytes: &[u8],
    tracer: &mut Tracer,
    gt: Option<&GroundTruth>,
) -> Result<Outcome, String> {
    let DaySetup { miner, psl, mut sim, backend } = day_setup(&inputs.model_text)?;
    let ingest_config =
        IngestConfig { format: Some(CaptureFormat::Pcap), threads: 1, ..IngestConfig::default() };

    // The scan share of ingest: a separate `pcap::scan` call made just
    // before the timed region, subtracted from `ingest_bytes`' span.
    let scan_probe = tracer.is_on().then(|| {
        let mut ledger = IngestReport { bytes_total: bytes.len() as u64, ..Default::default() };
        let t = now();
        let scanned = pcap::scan(bytes, &mut ledger);
        let took = t.elapsed();
        drop(scanned);
        took
    });

    let run = tracer.next_run();
    let baseline = alloc::reset_peak();
    let start = now();
    let root = tracer.open("run");
    let ingest_span = tracer.open("ingest.decode");
    let ingested = ingest_bytes(bytes, &ingest_config).map_err(|e| e.to_string())?;
    if let Some(took) = scan_probe {
        tracer.add_measured("ingest.scan", ingest_span, took);
    }
    tracer.close(ingest_span);
    let (report, pdns) = replay(tracer, &mut sim, &ingested.trace, backend, None, 1);
    let mut tree = tracer.span("core.tree", || DomainTree::from_day_stats(&report.rr_stats));
    let findings = tracer.span("core.mine", || miner.mine(&mut tree, &psl));
    tracer.close(root);
    let wall = start.elapsed();
    let peak_heap = alloc::peak_above(baseline);

    let ledger = &ingested.report;
    if !ledger.conserves() {
        return Err(format!("ingest ledger does not conserve bytes:\n{ledger}"));
    }
    let mut output = String::new();
    let _ = write!(output, "{ledger}");
    render_day(&mut output, &report);
    render_findings(&mut output, &findings);
    let events = ingested.trace.events.len() as u64;
    let failed_events =
        inputs.generated_events.saturating_sub(events) + report.resilience.servfails_below;
    let counts = Counts {
        ingest_frames: ledger.frames_scanned,
        ingest_error_frac: ledger.error_rate(),
        tree_nodes: tree.node_count() as u64,
        findings: findings.len() as u64,
        ..day_counts(&report, &pdns, 1, events)
    };
    let accuracy = gt.map(|gt| score(&findings, &DomainTree::from_day_stats(&report.rr_stats), gt));
    Ok(Outcome {
        wall,
        peak_heap,
        output,
        findings,
        failed_events,
        verdicts: vec![wall],
        counts,
        accuracy,
        run,
    })
}

fn flood_day(
    inputs: &Inputs,
    trace: &DayTrace,
    knobs: Knobs,
    tracer: &mut Tracer,
    gt: Option<&GroundTruth>,
) -> Result<Outcome, String> {
    let admission = flood_admission();
    let DaySetup { miner, psl, mut sim, backend } = day_setup(&inputs.model_text)?;
    let shards = shard_count(knobs.threads);

    let run = tracer.next_run();
    let baseline = alloc::reset_peak();
    let start = now();
    let root = tracer.open("run");
    let (report, pdns) = replay(tracer, &mut sim, trace, backend, Some(&admission), knobs.threads);
    let mut tree = tracer.span("core.tree", || DomainTree::from_day_stats(&report.rr_stats));
    let findings = tracer.span("core.mine", || miner.mine(&mut tree, &psl));
    tracer.close(root);
    let wall = start.elapsed();
    let peak_heap = alloc::peak_above(baseline);

    let o = &report.overload;
    if o.offered != o.admitted + o.dropped + o.rate_limited {
        return Err(format!(
            "overload ledger does not conserve: offered {} != admitted {} + dropped {} + \
             rate limited {}",
            o.offered, o.admitted, o.dropped, o.rate_limited
        ));
    }
    let mut output = String::new();
    render_day(&mut output, &report);
    render_findings(&mut output, &findings);
    let failed_events = o.shed_legit + report.resilience.servfails_below;
    let counts = Counts {
        tree_nodes: tree.node_count() as u64,
        findings: findings.len() as u64,
        ..day_counts(&report, &pdns, shards, trace.events.len() as u64)
    };
    let accuracy = gt.map(|gt| score(&findings, &DomainTree::from_day_stats(&report.rr_stats), gt));
    Ok(Outcome {
        wall,
        peak_heap,
        output,
        findings,
        failed_events,
        verdicts: vec![wall],
        counts,
        accuracy,
        run,
    })
}

fn stream_epochs(
    inputs: &Inputs,
    text: &str,
    knobs: Knobs,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let miner = build_miner(&inputs.model_text)?;
    let mut stream = stream_setup(&miner, knobs.cm_width);

    let traced = tracer.is_on();
    let mut parse = Agg::default();
    let mut push = Agg::default();
    let mut verdicts = Vec::with_capacity(160);
    let mut current: Option<u64> = None;

    let run = tracer.next_run();
    let baseline = alloc::reset_peak();
    let start = now();
    let root = tracer.open("run");
    let mut reader = trace_io::EventReader::new(text.as_bytes());
    loop {
        let next = if traced { parse.time(|| reader.next()) } else { reader.next() };
        let Some(event) = next else { break };
        let event = event.map_err(|e| e.to_string())?;
        let epoch = event.time.second_of_day() / EPOCH_SECS;
        // The push that carries the first event past a boundary closes
        // the previous epoch: its duration is that epoch's verdict delay.
        if current.is_some_and(|c| epoch > c) {
            let span = tracer.open("stream.epoch_close");
            let t = now();
            stream.push(&event);
            verdicts.push(t.elapsed());
            tracer.close(span);
        } else if traced {
            push.time(|| stream.push(&event));
        } else {
            stream.push(&event);
        }
        current = Some(current.map_or(epoch, |c| c.max(epoch)));
    }
    tracer.add_agg("trace.parse", &parse, 1);
    tracer.add_agg("stream.push", &push, 1);
    let (report, _sim) = tracer.span("stream.finish", || stream.finish());
    tracer.close(root);
    let wall = start.elapsed();
    let peak_heap = alloc::peak_above(baseline);

    if !report.conserves() {
        return Err(report.conservation_line());
    }
    let mut output = String::new();
    let _ = writeln!(output, "{}", report.conservation_line());
    output.push_str(&report.render());
    let day = &report.day_report;
    let counts = Counts {
        trace_lines: reader.lines_read() as u64,
        resolver_events: report.events_pushed,
        cache_hit_rate: day.cache.hit_rate(),
        premature_evictions: day.cache.premature_evictions(),
        above_records: day.above_total,
        shards: 1,
        pdns_calls: report.pdns.total_records,
        pdns_new: report.rpdns_store.records,
        pdns_storage_bytes: report.rpdns_store.storage_bytes,
        findings: report.final_findings.len() as u64,
        stream_epochs: report.epochs.len() as u64,
        stream_peak_state_bytes: report.peak_state_bytes as u64,
        ..Counts::default()
    };
    Ok(Outcome {
        wall,
        peak_heap,
        output,
        failed_events: report.events_failed + report.events_shed,
        findings: report.final_findings,
        verdicts,
        counts,
        accuracy: None,
        run,
    })
}

/// Batch mining of the streamed day's trace: the findings the
/// oversized-sketch stream must reproduce, and the pristine tree the
/// stream's findings are scored on.
pub fn stream_reference(inputs: &Inputs) -> Result<(Vec<Finding>, DomainTree), String> {
    let Payload::TraceText(text) = &inputs.payload else {
        return Err("not a streamed workload".into());
    };
    let trace = trace_io::read_trace(text.as_bytes()).map_err(|e| e.to_string())?;
    let DaySetup { miner, psl, mut sim, .. } = day_setup(&inputs.model_text)?;
    let report = sim.day(&trace).run();
    let pristine = DomainTree::from_day_stats(&report.rr_stats);
    let mut tree = DomainTree::from_day_stats(&report.rr_stats);
    let findings = miner.mine(&mut tree, &psl);
    Ok((findings, pristine))
}

/// Findings in a canonical order, rendered, for equality checks.
pub fn findings_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    render_findings(&mut out, findings);
    out
}
