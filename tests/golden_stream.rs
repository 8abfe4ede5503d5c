//! Golden-snapshot regression harness for the streaming miner: a fixed
//! seed's day 0, trained on with the batch pipeline and then replayed
//! through the streaming miner, must render to exactly the committed
//! snapshot.
//!
//! The snapshot pins the full `StreamReport::render()` text — every
//! epoch close, sketch estimate, finding line, pDNS counter, and the
//! conservation line — so any drift in the sketches, the epoch
//! schedule, or the event accounting shows up as a line diff. To
//! intentionally rebless after a semantic change:
//! `UPDATE_GOLDEN=1 cargo test --test golden_stream`.
//!
//! The same scenario also pins the checkpoint format: the CRC-32 of the
//! `checkpoint.bin` written at a fixed epoch boundary is a recorded
//! constant, so any change to the registry's capture order, the sketch
//! cells, or the fingerprints shows up here.

use dnsnoise::core::{DailyPipeline, Miner, MinerConfig};
use dnsnoise::pdns::store::crc::crc32;
use dnsnoise::stream::{StreamConfig, StreamMiner, CHECKPOINT_NAME};
use dnsnoise::workload::{Scenario, ScenarioConfig};

const SNAPSHOT_PATH: &str = "tests/golden/stream_day0.snapshot";

fn scenario() -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.02), 20140622)
}

fn trained_miner(s: &Scenario) -> Miner {
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(s, 0);
    pipeline.into_miner().expect("day 0 trains the model")
}

fn rendered() -> String {
    let s = scenario();
    let miner = trained_miner(&s);

    let trace = s.generate_day(0);
    let mut stream =
        StreamMiner::new(StreamConfig::default(), &miner).ground_truth(s.ground_truth());
    for event in &trace.events {
        stream.push(event);
    }
    let (report, _) = stream.finish();
    assert!(report.conserves(), "{}", report.conservation_line());
    report.render()
}

#[test]
fn stream_report_matches_committed_snapshot() {
    let text = rendered();
    // Sanity: the fixture must exercise the interesting machinery.
    assert!(text.contains("-- epoch"), "fixture must close at least one epoch");
    assert!(text.contains("(conserved)"), "fixture must conserve");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SNAPSHOT_PATH, &text).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(SNAPSHOT_PATH)
        .expect("snapshot missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, expected,
        "stream report drifted from the golden snapshot; if the change is \
         intentional, rebless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn repeat_run_matches_the_same_snapshot() {
    assert_eq!(rendered(), rendered());
}

/// Streams day 0 with `epoch_secs` epochs and checkpointing on, stopping
/// right after the event that crosses `boundary_secs`, and returns the
/// CRC-32 of the checkpoint that boundary wrote.
fn checkpoint_crc(
    miner: &Miner,
    trace: &[dnsnoise::workload::QueryEvent],
    epoch_secs: u64,
    boundary_secs: u64,
) -> u32 {
    let dir = std::env::temp_dir()
        .join(format!("dnsnoise-golden-ckpt-{epoch_secs}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StreamConfig { epoch_secs, ..StreamConfig::default() };
    let mut stream = StreamMiner::new(config, miner).with_checkpoint(&dir);
    for event in trace {
        stream.push(event);
        if event.time.second_of_day() >= boundary_secs {
            break;
        }
    }
    assert!(stream.checkpoint_error().is_none(), "checkpointing failed");
    let bytes = std::fs::read(dir.join(CHECKPOINT_NAME)).expect("boundary checkpoint written");
    std::fs::remove_dir_all(&dir).ok();
    crc32(&bytes)
}

#[test]
fn checkpoint_bytes_match_recorded_crc() {
    let s = scenario();
    let miner = trained_miner(&s);
    let trace = s.generate_day(0);
    let got = [
        checkpoint_crc(&miner, &trace.events, 21_600, 43_200),
        checkpoint_crc(&miner, &trace.events, 600, 43_200),
    ];
    assert_eq!(got, [0xdad1_6fba, 0x7fa1_25f4], "checkpoint bytes drifted: CRC-32 {got:08x?}");
}
