//! The generator: every input a workload hands the program, built in
//! memory from the seed before any timing starts.

use dnsnoise_core::{DomainTree, Miner, MinerConfig, TrainingSetBuilder};
use dnsnoise_ingest::{corrupt, pcap};
use dnsnoise_resolver::{ResolverSim, SimConfig};
use dnsnoise_workload::{trace_io, AttackPlan, DayTrace, GroundTruth, Scenario, ScenarioConfig};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One day as a corrupted pcap: ingest, replay with pDNS, tree, mine.
    BatchDay,
    /// One day as trace text pushed event by event into the stream miner.
    StreamEpochs,
    /// One day plus a random-subdomain flood, replayed under admission
    /// control on the sharded engine, then tree and mine.
    FloodDay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BatchDay, Workload::StreamEpochs, Workload::FloodDay];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchDay => "batch-day",
            Workload::StreamEpochs => "stream-epochs",
            Workload::FloodDay => "flood-day",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The simulated day every workload processes.
pub const DAY: u64 = 1;
/// Scale of the batch and flood days (about 602k events at seed 42).
const BATCH_SCALE: f64 = 0.5;
/// Scale of the streamed day (about 301k events at seed 42).
const STREAM_SCALE: f64 = 0.25;
/// Scale of the training day, as `dnsnoise train` uses at most.
const TRAIN_SCALE: f64 = 0.1;
/// Fraction of the capture's bytes flipped in bursts.
const CORRUPT_FRACTION: f64 = 0.01;
/// Bytes of the pcap global header, which the corruption leaves intact.
const PCAP_HEADER_BYTES: usize = 24;
/// The `experiments overload` x10 flood.
const FLOOD_SPEC: &str = "seed=23; victim=flood-a.example; victim=flood-b.example; \
                              labellen=16; clients=400; surge=28800,50400,10";

/// What the program is handed.
#[derive(Debug)]
pub enum Payload {
    Capture(Vec<u8>),
    TraceText(String),
    Day(DayTrace),
}

/// One workload's generated inputs plus the ground truth used, outside
/// any timed region, to score the findings.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub model_text: String,
    pub payload: Payload,
    /// Query events the generator produced: the numerator of
    /// `events_per_s` and the denominator of the failure fraction.
    pub generated_events: u64,
    pub ground_truth: GroundTruth,
}

fn scenario(scale: f64, seed: u64) -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(scale), seed)
}

/// Trains the classifier on day 0 exactly as `dnsnoise train` does and
/// returns the persisted model text.
pub fn train_model_text(seed: u64) -> String {
    let s = scenario(TRAIN_SCALE, seed);
    let trace = s.generate_day(0);
    let mut sim = ResolverSim::new(SimConfig::default());
    let report = sim.day(&trace).ground_truth(s.ground_truth()).run();
    let tree = DomainTree::from_day_stats(&report.rr_stats);
    let labeled = TrainingSetBuilder { min_disposable_names: 8, ..Default::default() }
        .build(&tree, s.ground_truth());
    dnsnoise_ml::model_to_text(&Miner::train_model(&labeled, MinerConfig::default()))
}

pub fn flood_plan() -> AttackPlan {
    FLOOD_SPEC.parse().expect("static flood spec")
}

/// Builds `workload`'s inputs from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let model_text = train_model_text(seed);
    let scale = if workload == Workload::StreamEpochs { STREAM_SCALE } else { BATCH_SCALE };
    let s = scenario(scale, seed);
    let mut trace = s.generate_day(DAY);
    let generated_events = trace.events.len() as u64;
    let (payload, generated_events) = match workload {
        Workload::BatchDay => {
            let mut bytes = pcap::write_pcap(&trace).expect("generated days serialize");
            corrupt::flip_bursts(&mut bytes[PCAP_HEADER_BYTES..], CORRUPT_FRACTION, seed);
            (Payload::Capture(bytes), generated_events)
        }
        Workload::StreamEpochs => {
            let mut text = Vec::new();
            trace_io::write_trace(&trace, &mut text).expect("in-memory write");
            let text = String::from_utf8(text).expect("trace text is UTF-8");
            (Payload::TraceText(text), generated_events)
        }
        Workload::FloodDay => {
            flood_plan().inject(&mut trace);
            let flooded = trace.events.len() as u64;
            (Payload::Day(trace), flooded)
        }
    };
    Inputs {
        workload,
        model_text,
        payload,
        generated_events,
        ground_truth: s.ground_truth().clone(),
    }
}
