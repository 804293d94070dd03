//! Keeps the knob census true: every `pub` field of `RunConfig` and its
//! sub-structs is named by code that runs — a sweep, a campaign, a live
//! host or a benchmark workload — or is listed below with the reason it
//! stays. A knob nobody sets fails here instead of waiting for a review.

use std::path::{Path, PathBuf};

/// The structs a run is described by, and the file each is declared in.
const STRUCTS: &[(&str, &str)] = &[
    ("RunConfig", "crates/proto/src/config.rs"),
    ("ProtocolConfig", "crates/proto/src/config.rs"),
    ("ChurnConfig", "crates/proto/src/config.rs"),
    ("ProbeConfig", "crates/proto/src/probe.rs"),
    ("FaultConfig", "crates/proto/src/faults.rs"),
    ("ReliabilityConfig", "crates/proto/src/reliable.rs"),
];

/// Where a reference counts: the code that describes and drives runs.
/// Tests and examples do not count.
const CALLERS: &[&str] = &[
    "crates/harness/src",
    "crates/live/src",
    "crates/core/src",
    "perfbench/src",
];

/// Fields no caller names, and why each is still a field.
const KEPT_UNSET: &[(&str, &str)] = &[
    (
        "hop_latency_mean_secs",
        "settle_deadline_names_livelocked_nodes stretches the hop to reach the settle \
         deadline in a handful of events; ROADMAP item 8 names per-hop transfer time as \
         a sweep axis",
    ),
    (
        "hop_latency_min_secs",
        "the space engine's lookahead; validate() ties it to the mean",
    ),
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `pub` field names of `name` as declared in `file`.
fn pub_fields(name: &str, file: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo().join(file)).expect(file);
    let body = text
        .split_once(&format!("pub struct {name} {{"))
        .unwrap_or_else(|| panic!("{file} no longer declares {name}"))
        .1;
    let body = body.split_once("\n}").expect("a closing brace").0;
    let field = |line: &str| {
        let (name, _type) = line.trim().strip_prefix("pub ")?.split_once(':')?;
        Some(name.to_owned())
    };
    body.lines().filter_map(field).collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a caller directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The non-test, non-comment lines of every caller file.
fn caller_lines() -> Vec<String> {
    let mut files = Vec::new();
    for dir in CALLERS {
        rust_files(&repo().join(dir), &mut files);
    }
    let mut lines = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("a readable source file");
        let code = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        lines.extend(
            code.filter(|l| !l.trim_start().starts_with("//"))
                .map(str::to_owned),
        );
    }
    lines
}

/// True when `line` reads or sets a field called `name`: `.name` or `name:`
/// as a whole word, or the shorthand initialiser `name,` on its own line.
fn names_field(line: &str, name: &str) -> bool {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    if line.trim().strip_suffix(',') == Some(name) {
        return true;
    }
    line.match_indices(name).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + name.len()..].trim_start().chars().next();
        let whole = !before.is_some_and(word) && !line[at + name.len()..].starts_with(word);
        whole && (before == Some('.') || after == Some(':'))
    })
}

#[test]
fn every_config_field_is_set_by_a_caller_or_listed_with_a_reason() {
    let lines = caller_lines();
    let used = |name: &str| lines.iter().any(|l| names_field(l, name));
    let mut unset = Vec::new();
    for (name, file) in STRUCTS {
        let fields = pub_fields(name, file);
        assert!(!fields.is_empty(), "{name} in {file} has no pub fields");
        for field in fields {
            let kept = KEPT_UNSET.iter().any(|(k, _)| *k == field);
            match (used(&field), kept) {
                (false, false) => unset.push(format!("{name}::{field}")),
                (true, true) => panic!("{field} has a caller now: drop it from KEPT_UNSET"),
                _ => {}
            }
        }
    }
    assert!(
        unset.is_empty(),
        "no sweep, campaign, host or benchmark workload names {unset:?}: delete the field \
         with the code it selects, or list it in KEPT_UNSET with the reason it stays"
    );
}

#[test]
fn field_matcher_wants_an_access_or_an_initialiser() {
    assert!(names_field("cfg.protocol.ttl_secs = 5.0;", "ttl_secs"));
    assert!(names_field("        ttl_secs: 600.0,", "ttl_secs"));
    assert!(names_field("                partitions,", "partitions"));
    assert!(!names_field("let ttl_secs = 5.0;", "ttl_secs"));
    assert!(!names_field("cfg.index_ttl_secs_total", "ttl_secs"));
    assert!(!names_field("cfg.rate_limit", "rate"));
}
