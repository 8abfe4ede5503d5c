//! Golden-snapshot regression harness for batch mining: a fixed seed's
//! day 1, mined by the daily pipeline with the classifier it trained on
//! day 0, must render to exactly the committed snapshot.
//!
//! The snapshot pins the findings TSV (discovery order, full-precision
//! confidences) and the 8-feature vector of every group Algorithm 1
//! scored, in scoring order, together with its score. Any drift in the
//! tree walk — group membership, member order, `L_k`, the CHR samples —
//! or in the feature arithmetic shows up as a line diff. To
//! intentionally rebless after a semantic change:
//! `UPDATE_GOLDEN=1 cargo test --test golden_mine`.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use dnsnoise::core::{DailyPipeline, DomainTree, Miner, MinerConfig, TrainingSetBuilder};
use dnsnoise::dns::SuffixList;
use dnsnoise::ml::Model;
use dnsnoise::resolver::{ResolverSim, SimConfig};
use dnsnoise::workload::{Scenario, ScenarioConfig};

const SNAPSHOT_PATH: &str = "tests/golden/mine_day1.snapshot";

fn scenario() -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.15), 20140622)
}

/// Every `(features, score)` pair, in scoring order.
type ScoreLog = Arc<Mutex<Vec<(Vec<f64>, f64)>>>;

/// Wraps the trained classifier and logs every `(features, score)` pair
/// Algorithm 1 asks it for.
struct Recording {
    inner: Box<dyn Model>,
    log: ScoreLog,
}

impl Model for Recording {
    fn score(&self, x: &[f64]) -> f64 {
        let p = self.inner.score(x);
        self.log.lock().expect("log lock").push((x.to_vec(), p));
        p
    }
}

fn rendered() -> String {
    let s = scenario();
    let config = MinerConfig::default();

    // The pipeline's own day-1 findings.
    let mut pipeline = DailyPipeline::new(config);
    let _ = pipeline.run_day(&s, 0);
    let day1 = pipeline.run_day(&s, 1);

    // The same two days by hand, with the classifier wrapped so the
    // scored feature vectors can be captured.
    let gt = s.ground_truth();
    let mut sim = ResolverSim::new(SimConfig::default());
    let day0 = sim.day(&s.generate_day(0)).ground_truth(gt).run();
    let labeled =
        TrainingSetBuilder::default().build(&DomainTree::from_day_stats(&day0.rr_stats), gt);
    let log = ScoreLog::default();
    let miner = Miner::new(
        Box::new(Recording {
            inner: Box::new(Miner::train_model(&labeled, config)),
            log: Arc::clone(&log),
        }),
        config,
    );
    let day1_stats = sim.day(&s.generate_day(1)).ground_truth(gt).run();
    let mut tree = DomainTree::from_day_stats(&day1_stats.rr_stats);
    let found = miner.mine(&mut tree, &SuffixList::builtin());
    assert_eq!(found, day1.found, "hand-driven day 1 must match the pipeline");

    let mut out = String::new();
    let _ = writeln!(out, "# findings: zone\tdepth\tconfidence\tmembers");
    for f in &day1.found {
        let _ = writeln!(out, "{}\t{}\t{}\t{}", f.zone, f.depth, f.confidence, f.members);
    }
    let scored = log.lock().expect("log lock");
    let _ = writeln!(out, "# scored groups: score\tfeatures");
    for (x, p) in scored.iter() {
        let features: Vec<String> = x.iter().map(f64::to_string).collect();
        let _ = writeln!(out, "{p}\t{}", features.join("\t"));
    }
    out
}

#[test]
fn batch_mining_matches_committed_snapshot() {
    let text = rendered();
    // Sanity: the fixture must emit findings and score groups both ways.
    assert!(text.lines().nth(1).is_some_and(|l| !l.starts_with('#')), "no findings");
    assert!(!text.ends_with("features\n"), "no scored groups");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SNAPSHOT_PATH, &text).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(SNAPSHOT_PATH)
        .expect("snapshot missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, expected,
        "batch mining drifted from the golden snapshot; if the change is \
         intentional, rebless with UPDATE_GOLDEN=1"
    );
}
