//! Mutation smoke test for the fuzz/oracle verification layer (ISSUE 3).
//!
//! A verifier is only as good as its ability to catch real corruption.
//! These tests run the default fuzz seed set three ways:
//!
//! 1. clean — every scenario must pass;
//! 2. with a deliberately broken maintenance rule (the `substitute` merge
//!    is skipped, leaving duplicate subscriber-list entries) — the
//!    invariant/oracle harness must flag at least one scenario;
//! 3. replaying a caught failure from its printed seed must reproduce the
//!    identical verdict.

use dup_harness::{Mutation, SchemeKind, Selection, FUZZ};

/// Master seed and scenario count mirroring the `dup-experiments fuzz`
/// defaults (and the CI fuzz-smoke job).
const MASTER_SEED: u64 = 42;
const DEFAULT_SEEDS: usize = 16;

#[test]
fn default_seed_set_is_clean_for_all_schemes() {
    let selection = Selection::derived(MASTER_SEED, 4);
    let report = FUZZ.run(&selection, &SchemeKind::ALL, Mutation::Clean);
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "clean protocol failed verification:\n{report}"
    );
    assert!(
        report
            .cases
            .iter()
            .filter(|s| s.scheme == "DUP")
            .all(|s| s.fault_interventions > 0),
        "fault layer never intervened — scenarios are not actually faulted"
    );
}

#[test]
fn broken_substitute_merge_is_caught_within_default_seeds() {
    let selection = Selection::derived(MASTER_SEED, DEFAULT_SEEDS);
    let broken = Mutation::BrokenSubstituteMerge;
    let report = FUZZ.run(&selection, &[SchemeKind::Dup], broken);
    let failures = report.failures();
    eprintln!(
        "mutation caught in {}/{} seeds",
        failures.len(),
        DEFAULT_SEEDS
    );
    assert!(
        !failures.is_empty(),
        "the mutated (merge-skipping) substitute survived all {} default seeds — \
         the verification harness is too weak",
        DEFAULT_SEEDS
    );
    // Every failure must replay deterministically from its seed alone.
    let first = failures[0];
    let replay = dup_harness::fuzz::case(first.seed).run(SchemeKind::Dup, broken);
    assert!(
        !replay.passed,
        "failing seed {} passed on replay",
        first.seed
    );
    assert_eq!(
        replay.detail, first.detail,
        "replay of seed {} produced a different violation report",
        first.seed
    );
}
