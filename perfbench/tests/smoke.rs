//! Runs every workload at `--quick` size in both modes and holds the
//! output to the contract in `BENCHMARK.json`.
//!
//! Run from the package: `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde_json::Value;

/// Traced metrics that are simulated, not timed.
const EXACT_LAYER_METRICS: &[&str] = &[
    "run.events_per_query.dup",
    "run.peak_queue_depth.dup",
    "proto.reliable.retransmits_per_tracked",
    "proto.space.cross_shard_ratio",
    "live.net.frames_per_cluster_sec",
    "live.net.heartbeat_share",
    "live.rejoin_virtual_s",
    "live.oracle.polls",
    "live.oracle.polls_failed",
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repo root")
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    let entries = spec.get(key).and_then(Value::as_array).expect(key);
    entries
        .iter()
        .map(|e| {
            let field = |f: &str| {
                e.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload and returns `(name -> (value, unit))` from the last
/// line of its output.
fn run(workload: &str, seed: u64, trace: u8) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--quick", "--seconds", "0.2"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited {:?}:\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    let keys: Vec<&str> = match &result {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    let Some(Value::Map(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            assert!(value.is_finite(), "{workload} {name} = {value}");
            (name.clone(), (value, unit.to_string()))
        })
        .collect()
}

fn assert_matches_spec(got: &BTreeMap<String, (f64, String)>, want: &[(String, String)]) {
    let want: BTreeMap<_, _> = want.iter().cloned().collect();
    let got: BTreeMap<_, _> = got
        .iter()
        .map(|(k, (_, u))| (k.clone(), u.clone()))
        .collect();
    assert_eq!(
        got, want,
        "metric names and units differ from BENCHMARK.json"
    );
}

#[test]
fn names_are_well_formed_and_unique() {
    let spec = spec();
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        let entries = spec.get(key).and_then(Value::as_array).expect(key);
        for entry in entries {
            let name = entry.get("name").and_then(Value::as_str).expect("name");
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(
                !name.is_empty() && name.len() <= 64 && name.chars().all(ok),
                "{name}"
            );
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(seen.insert(name.to_string()), "{name} used twice");
        }
    }
    let bounded = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end");
    for metric in bounded {
        let bound = metric.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(bounded
        .iter()
        .any(|m| m.get("name").and_then(Value::as_str) == Some("setup_s")));
}

/// The `key = value` lines of one table of a manifest.
fn manifest_table(manifest: &str, header: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .skip_while(|line| line.trim() != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.trim_start().starts_with('#'))
        .filter_map(|line| line.split_once('='))
        .map(|(key, value)| (key.trim().to_string(), value.trim().to_string()))
        .collect()
}

/// The package stands outside the root workspace, so it carries copies of
/// the root manifest's release profile and offline patches. A copy that
/// drifts would measure a build that is not the shipped one.
#[test]
fn manifest_copies_match_the_root_manifest() {
    let read = |path: &str| std::fs::read_to_string(repo_root().join(path)).expect(path);
    let (root, own) = (read("Cargo.toml"), read("perfbench/Cargo.toml"));
    let profile = manifest_table(&own, "[profile.release]");
    assert!(!profile.is_empty());
    assert_eq!(profile, manifest_table(&root, "[profile.release]"));
    let root_patches = manifest_table(&root, "[patch.crates-io]");
    let own_patches = manifest_table(&own, "[patch.crates-io]");
    assert!(!own_patches.is_empty());
    for (krate, source) in own_patches {
        let from_root = source.replace("\"../", "\"");
        assert_eq!(Some(&from_root), root_patches.get(&krate), "{krate}");
    }
}

#[test]
fn every_workload_prints_every_metric_and_repeats_its_counts() {
    let spec = spec();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    // The listed workloads, and the one that runs by hand only.
    let listed = names(&spec, "workloads");
    assert!(listed.iter().all(|(name, _)| name != "sim_space2"));
    let workloads = listed.into_iter().map(|(name, _)| name);
    for workload in workloads.chain(["sim_space2".to_string()]) {
        let first = run(&workload, 42, 0);
        let again = run(&workload, 42, 0);
        let other = run(&workload, 7, 0);
        assert_matches_spec(&first, &end_to_end);
        assert_matches_spec(&other, &end_to_end);
        // The simulated end-to-end metrics: hops and the oracle's share.
        let hops = |m: &BTreeMap<String, (f64, String)>| -> Vec<u64> {
            m.iter()
                .filter(|(name, _)| name.ends_with("_hops") || name.ends_with("_share"))
                .map(|(_, (v, _))| v.to_bits())
                .collect()
        };
        assert!(!hops(&first).is_empty());
        assert_eq!(
            hops(&first),
            hops(&again),
            "{workload}: one seed, two answers"
        );
        // The live mesh has no random input; every simulator stream has.
        if workload.starts_with("sim_") {
            assert_ne!(
                hops(&first),
                hops(&other),
                "{workload}: the seed changes nothing"
            );
        }
        for (name, (value, _)) in &first {
            assert!(*value != 0.0, "{workload}: end-to-end metric {name} is 0");
        }
        // A settled simulator tree passes the oracle; what share of its
        // steady-state polls the live cluster passes is a finding, reported
        // as measured (see the README), so only its range is held here.
        let consistent = first["dup_tree_consistent_share"].0;
        if workload.starts_with("sim_") {
            assert_eq!(consistent, 1.0, "{workload}");
        } else {
            assert!(consistent > 0.0 && consistent <= 1.0, "{workload}");
        }

        let traced = run(&workload, 42, 1);
        let traced_again = run(&workload, 42, 1);
        assert_matches_spec(&traced, &per_layer);
        for name in EXACT_LAYER_METRICS {
            assert_eq!(
                traced[*name].0.to_bits(),
                traced_again[*name].0.to_bits(),
                "{workload}: {name} does not repeat"
            );
        }
    }
}
