//! `benchmark compare A.json B.json`: the before/after table of a change.
//!
//! One row per (workload, end-to-end metric) with both medians, the ratio
//! with its base, and a verdict against the bounds of `BENCHMARK.json`;
//! then every simulated count that differs between the two files. Exits 1
//! when a row regressed, or when two files recorded at one seed differ in
//! a simulated count: the bounds of `BENCHMARK.json` must cover ten
//! different seeds and are far wider than "the same run" allows.

use std::process::ExitCode;

use serde_json::Value;

use crate::stats::Cell;

/// Metrics that are simulated, not timed: for one seed they repeat
/// exactly, so any difference between two files is a change of behaviour.
const EXACT: &[&str] = &[
    "dup_query_latency_hops",
    "dup_query_cost_hops",
    "dup_tree_consistent_share",
    "run.events_per_query.dup",
    "run.peak_queue_depth.dup",
    "proto.reliable.retransmits_per_tracked",
    "proto.reliable.dup_suppressed_per_delivery",
    "proto.space.cross_shard_ratio",
    "live.codec.bytes_per_frame.heartbeat",
    "live.codec.bytes_per_frame.deliver",
    "live.codec.bytes_per_frame.helloack",
    "live.net.frames_per_cluster_sec",
    "live.net.heartbeat_share",
    "live.rejoin_virtual_s",
    "live.oracle.polls",
    "live.oracle.polls_failed",
];

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The runs of `doc` for `workload` in one trace mode.
fn results<'a>(doc: &'a Value, workload: &str, trace: u64) -> Vec<&'a Value> {
    let runs = doc.get("runs").and_then(Value::as_array);
    runs.into_iter()
        .flatten()
        .filter(|run| {
            run.get("workload").and_then(Value::as_str) == Some(workload)
                && run.get("trace").and_then(Value::as_u64) == Some(trace)
        })
        .filter_map(|run| run.get("result"))
        .collect()
}

fn metric_values(results: &[&Value], name: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Differences a metric may show whatever its median: a 50 µs set-up that
/// jitters by 12 µs has not regressed.
const ABSOLUTE_FLOORS: &[(&str, f64)] = &[("setup_s", 0.005)];

/// `bound` is a share of A's median; `floor` is in the metric's unit, and
/// the larger of the two is what B may be worse by. A side whose own
/// interquartile range exceeds that allowance (taken on its own median)
/// has not resolved the question.
fn verdict(a: &Cell, b: &Cell, lower_is_better: bool, bound: f64, floor: f64) -> &'static str {
    let allowed = |side: &Cell| (bound * side.median.abs()).max(floor);
    if [a, b].iter().any(|side| side.q3 - side.q1 > allowed(side)) {
        return "unresolved";
    }
    let allowed = allowed(a);
    let change = b.median - a.median;
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > allowed {
        "regressed"
    } else if worse_by < -allowed {
        "improved"
    } else {
        "unchanged"
    }
}

/// Prints the table; exits 1 when any row regressed or, at one seed, any
/// simulated count drifted.
pub fn run(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: benchmark compare A.json B.json   (run from the repo root)");
        return ExitCode::from(2);
    };
    let loaded = load(a_path).and_then(|a| Ok((a, load(b_path)?, load("BENCHMARK.json")?)));
    let (a, b, spec) = match loaded {
        Ok(docs) => docs,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    println!("A = {a_path} {}", a.get("header").unwrap_or(&Value::Null));
    println!("B = {b_path} {}", b.get("header").unwrap_or(&Value::Null));
    println!(
        "{:<11} {:<24} {:>14} {:>14} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "IQR A", "IQR B", "bound"
    );
    let mut regressed = false;
    let list = |key: &str| {
        spec.get(key)
            .and_then(Value::as_array)
            .cloned()
            .unwrap_or_default()
    };
    let name_of = |entry: &Value| {
        entry
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    // Every workload the binary has: `all` records the by-hand ones too.
    let workloads = crate::workloads();
    for workload in &workloads {
        let (ra, rb) = (results(&a, workload, 0), results(&b, workload, 0));
        for metric in list("end_to_end") {
            let name = name_of(&metric);
            let (va, vb) = (metric_values(&ra, &name), metric_values(&rb, &name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<11} {name:<24} missing from one side");
                continue;
            }
            let (ca, cb) = (Cell::of(&va), Cell::of(&vb));
            let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Value::as_str) == Some("lower");
            let floor = ABSOLUTE_FLOORS
                .iter()
                .find(|(floored, _)| *floored == name)
                .map_or(0.0, |(_, floor)| *floor);
            let row = verdict(&ca, &cb, lower, bound, floor);
            regressed |= row == "regressed";
            println!(
                "{workload:<11} {name:<24} {:>14.6} {:>14.6} {:>9.4} {:>7.4} {:>7.4} {:>6.2}  {row}",
                ca.median,
                cb.median,
                cb.median / ca.median,
                ca.iqr_rel(),
                cb.iqr_rel(),
                bound
            );
        }
    }
    println!("B/A is B's median over A's median (base: A). IQR is (q3 - q1) / median over the runs of a side.");
    println!("unresolved: a side's IQR is wider than the bound. setup_s may also differ by 5 ms whatever its median.");

    let mut drifted = 0;
    for workload in &workloads {
        for trace in [0, 1] {
            let (ra, rb) = (results(&a, workload, trace), results(&b, workload, trace));
            // `attempted` is left out: it counts the rounds that fitted.
            for name in EXACT.iter().copied().chain(["failed"]) {
                let values = |rs: &[&Value]| {
                    let mut v = metric_values(rs, name);
                    v.extend(rs.iter().filter_map(|r| r.get(name)?.as_f64()));
                    v.sort_by(f64::total_cmp);
                    v.dedup();
                    v
                };
                let (va, vb) = (values(&ra), values(&rb));
                if va != vb && !va.is_empty() && !vb.is_empty() {
                    drifted += 1;
                    println!("count drift: {workload} {name}: A {va:?} B {vb:?}");
                }
            }
        }
    }
    let seed = |doc: &Value| doc.get("header")?.get("seed")?.as_u64();
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    if drifted == 0 {
        println!("simulated counts: bit-identical between A and B");
    } else if same_seed {
        println!("simulated counts drifted at one seed: B is not the same run as A");
    } else {
        println!("simulated counts differ, as they must: A and B were recorded at different seeds");
    }
    if regressed || (drifted > 0 && same_seed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(values: &[f64]) -> Cell {
        Cell::of(values)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = cell(&[99.0, 100.0, 101.0]);
        let faster = cell(&[119.0, 120.0, 121.0]);
        // Higher is better: +20 % beats a 10 % bound, −17 % breaks it.
        assert_eq!(verdict(&base, &faster, false, 0.10, 0.0), "improved");
        assert_eq!(verdict(&faster, &base, false, 0.10, 0.0), "regressed");
        // Lower is better: the same pair reads the other way round.
        assert_eq!(verdict(&base, &faster, true, 0.10, 0.0), "regressed");
        assert_eq!(verdict(&base, &faster, false, 0.25, 0.0), "unchanged");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let steady = cell(&[99.0, 100.0, 101.0]);
        let noisy = cell(&[80.0, 100.0, 120.0]);
        assert_eq!(verdict(&steady, &noisy, false, 0.10, 0.0), "unresolved");
        assert_eq!(verdict(&noisy, &steady, false, 0.10, 0.0), "unresolved");
        // The spread counts on the side's own median: 2 on 10 is noise even
        // beside a steady 100.
        let small_noisy = cell(&[9.0, 10.0, 11.0]);
        assert_eq!(
            verdict(&steady, &small_noisy, false, 0.10, 0.0),
            "unresolved"
        );
    }

    #[test]
    fn absolute_floor_absorbs_jitter_of_a_tiny_metric() {
        // 50 µs against 65 µs: +30 %, but 15 µs is far inside 5 ms.
        let a = cell(&[49e-6, 50e-6, 51e-6]);
        let b = cell(&[64e-6, 65e-6, 66e-6]);
        assert_eq!(verdict(&a, &b, true, 0.25, 0.0), "regressed");
        assert_eq!(verdict(&a, &b, true, 0.25, 0.005), "unchanged");
        // The floor does not hide a change larger than itself.
        let slow = cell(&[0.0199, 0.02, 0.0201]);
        assert_eq!(verdict(&a, &slow, true, 0.25, 0.005), "regressed");
    }
}
