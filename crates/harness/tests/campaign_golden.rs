//! Campaign goldens (ISSUE 16): small-seed `fuzz`, `chaos` and `scenarios`
//! artifacts recorded at the commit *before* the three campaigns were
//! folded onto one settle-and-judge path.
//!
//! The campaigns are pure functions of their seeds, so any drift in a row
//! is a behaviour change in the config generators, the fault layer, the
//! reliability layer, DUP maintenance or the oracle. A report is compared
//! whole: the document the recorder writes is the one the test holds the
//! run to, every counter of every row included, so a re-record is a diff
//! of values only. The fuzz golden is CI's `--seed 42 --seeds 16 fuzz`
//! cell, all sixteen seeds. Prometheus text is compared on its
//! non-comment lines. Re-record (deliberate behaviour changes only) with:
//!
//! ```text
//! DUP_RECORD_GOLDEN=1 cargo test -p dup-harness --test campaign_golden
//! ```

use dup_harness::{
    Campaign, CampaignReport, Mutation, SchemeKind, Selection, CHAOS, FUZZ, SCENARIOS,
};
use serde_json::Value;

const MASTER_SEED: u64 = 42;

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Reads the committed golden, first overwriting it with `actual` when
/// `DUP_RECORD_GOLDEN` is set.
fn golden(name: &str, actual: &str) -> String {
    let path = golden_path(name);
    if std::env::var_os("DUP_RECORD_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("golden file is writable");
    }
    std::fs::read_to_string(&path).expect("golden file is committed")
}

/// Runs `seeds` derived seeds per family of `campaign`, clean, for all
/// three schemes.
fn run(campaign: &Campaign, seeds: usize) -> CampaignReport {
    let selection = Selection::derived(MASTER_SEED, seeds);
    campaign.run(&selection, &SchemeKind::ALL, Mutation::Clean)
}

/// The regenerated report must equal the golden document. A drift names
/// the first row and key that moved before the whole documents are
/// compared.
fn assert_report_holds(name: &str, report: &CampaignReport) {
    let actual = serde_json::to_string_pretty(report).expect("report serializes") + "\n";
    let golden: Value = serde_json::from_str(&golden(name, &actual)).expect("golden parses");
    let actual: Value = serde_json::from_str(&actual).expect("report parses");
    let rows = |doc: &Value| doc["cases"].as_array().cloned().unwrap_or_default();
    let (want, got) = (rows(&golden), rows(&actual));
    assert_eq!(want.len(), got.len(), "{name}: row count drifted");
    for (i, (want, got)) in want.iter().zip(&got).enumerate() {
        let keys = want
            .as_object()
            .into_iter()
            .chain(got.as_object())
            .flatten();
        for (key, _) in keys {
            assert_eq!(
                got.get(key),
                want.get(key),
                "{name}: row {i} key `{key}` drifted"
            );
        }
    }
    assert_eq!(actual, golden, "{name}: report drifted");
}

/// The series lines of a Prometheus exposition (HELP/TYPE comments may be
/// reworded; the series may not move).
fn series(text: &str) -> Vec<&str> {
    text.lines().filter(|l| !l.starts_with('#')).collect()
}

fn assert_series_hold(name: &str, campaign: &Campaign, report: &CampaignReport) {
    let table = campaign.series.expect("campaign has a series table");
    let actual = table.registry(report).render_prometheus();
    let golden = golden(name, &actual);
    assert_eq!(series(&actual), series(&golden), "{name}: series drifted");
}

#[test]
fn fuzz_rows_are_pinned() {
    assert_report_holds("fuzz_report.json", &run(&FUZZ, 16));
}

#[test]
fn chaos_rows_and_series_are_pinned() {
    let report = run(&CHAOS, 2);
    assert_report_holds("chaos_report.json", &report);
    assert_series_hold("chaos_metrics.prom", &CHAOS, &report);
}

#[test]
fn scenario_rows_and_series_are_pinned() {
    let report = run(&SCENARIOS, 1);
    assert_report_holds("scenarios_report.json", &report);
    assert_series_hold("scenarios_metrics.prom", &SCENARIOS, &report);
}
