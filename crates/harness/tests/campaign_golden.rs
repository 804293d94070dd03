//! Campaign goldens (ISSUE 16): small-seed `fuzz`, `chaos` and `scenarios`
//! artifacts recorded at the commit *before* the three campaigns were
//! folded onto one settle-and-judge path.
//!
//! The campaigns are pure functions of their seeds, so any drift in a row
//! is a behaviour change in the config generators, the fault layer, the
//! reliability layer, DUP maintenance or the oracle. Reports are compared
//! key by key — every key a golden row carries must be present with an
//! equal value; rows may gain keys, and the row array may be called
//! `scenarios` or `cases`. Prometheus text is compared on its non-comment
//! lines. Re-record (deliberate behaviour changes only) with:
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

/// The row array of a campaign report document.
fn rows(doc: &Value) -> &Vec<Value> {
    ["scenarios", "cases"]
        .iter()
        .find_map(|key| doc.get(key))
        .and_then(Value::as_array)
        .expect("report carries a row array")
}

/// Runs `seeds` derived seeds per family of `campaign`, clean, for all
/// three schemes.
fn run(campaign: &Campaign, seeds: usize) -> CampaignReport {
    let selection = Selection::derived(MASTER_SEED, seeds);
    campaign.run(&selection, &SchemeKind::ALL, Mutation::Clean)
}

/// Every key of every golden row must be present, with an equal value, in
/// the regenerated report's row at the same position.
fn assert_rows_hold(name: &str, report: &CampaignReport) {
    let actual = serde_json::to_string_pretty(report).expect("report serializes") + "\n";
    let golden: Value = serde_json::from_str(&golden(name, &actual)).expect("golden parses");
    let actual: Value = serde_json::from_str(&actual).expect("report parses");
    assert_eq!(actual["master_seed"], golden["master_seed"], "{name}");
    let (want, got) = (rows(&golden), rows(&actual));
    assert_eq!(want.len(), got.len(), "{name}: row count drifted");
    for (i, (want, got)) in want.iter().zip(got).enumerate() {
        let Some(entries) = want.as_object() else {
            panic!("{name}: golden row {i} is not an object");
        };
        for (key, value) in entries {
            assert_eq!(
                got.get(key),
                Some(value),
                "{name}: row {i} key `{key}` drifted"
            );
        }
    }
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
    assert_rows_hold("fuzz_report.json", &run(&FUZZ, 3));
}

#[test]
fn chaos_rows_and_series_are_pinned() {
    let report = run(&CHAOS, 2);
    assert_rows_hold("chaos_report.json", &report);
    assert_series_hold("chaos_metrics.prom", &CHAOS, &report);
}

#[test]
fn scenario_rows_and_series_are_pinned() {
    let report = run(&SCENARIOS, 1);
    assert_rows_hold("scenarios_report.json", &report);
    assert_series_hold("scenarios_metrics.prom", &SCENARIOS, &report);
}
