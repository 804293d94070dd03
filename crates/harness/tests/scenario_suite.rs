//! Adversarial scenario suite assertions (ISSUE 8).
//!
//! Three layers, mirroring `fuzz_oracle.rs`:
//!
//! 1. clean — every family × scheme passes its oracle-checked
//!    reconvergence bound, and each family demonstrably exercises its
//!    fault mechanism (non-vacuous counters);
//! 2. mutated — re-running a family with a deliberately broken DUP
//!    maintenance rule must make the scenario *fail*. Each family is
//!    pinned to a seed index (master seed 42) where the mutation is known
//!    to bite, so plain `cargo test` proves every family non-vacuous
//!    without scanning;
//! 3. replayed — a caught failure reproduces the identical verdict from
//!    its seed alone.
//!
//! The `#[ignore]`d full-matrix test scans 48 seeds per family × both
//! mutations and is the source of the pinned indices. Its eight lines are
//! pinned in `tests/golden/mutation_matrix.txt`; re-record (deliberate
//! behaviour changes only) with:
//!
//! ```text
//! DUP_RECORD_GOLDEN=1 cargo test --release -p dup-harness --test scenario_suite \
//!     -- --ignored full_mutation_matrix
//! ```

use dup_harness::scenarios::case;
use dup_harness::{Mutation, ScenarioFamily, SchemeKind, Selection, SCENARIOS};

const MASTER_SEED: u64 = 42;

/// The first `n` derived seeds of `family` at the master seed.
fn family_seeds(family: ScenarioFamily, n: usize) -> Vec<u64> {
    Selection::derived(MASTER_SEED, n).seeds(&format!("scenario/{family}"))
}

#[test]
fn clean_suite_passes_for_all_families_and_schemes() {
    let selection = Selection::derived(MASTER_SEED, 2);
    let report = SCENARIOS.run(&selection, &SchemeKind::ALL, Mutation::Clean);
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "clean scenario suite failed:\n{report}"
    );
    // Every DUP case must reconverge within its family's bound — the
    // paper-facing claim each family asserts.
    for c in report.cases.iter().filter(|c| c.scheme == "DUP") {
        let family = c.family.expect("scenario rows carry their family");
        let phases = c
            .phases_to_reconverge
            .unwrap_or_else(|| panic!("{family} seed {} never reconverged", c.seed));
        assert!(
            phases <= c.bound,
            "{family} seed {} reconverged after {phases} > bound {}",
            c.seed,
            c.bound
        );
    }
}

/// Each family's adversarial mechanism must demonstrably fire: partition
/// families script deterministic cuts (partition_drops), the others draw
/// probabilistic faults (fault_interventions), and every DUP run must
/// exercise the lease-maintenance path it claims to survive.
#[test]
fn clean_suite_is_non_vacuous_per_family() {
    let selection = Selection::derived(MASTER_SEED, 2);
    let report = SCENARIOS.run(&selection, &[SchemeKind::Dup], Mutation::Clean);
    for family in ScenarioFamily::ALL {
        let cases: Vec<_> = report
            .cases
            .iter()
            .filter(|c| c.family == Some(family.name()))
            .collect();
        assert_eq!(cases.len(), 2, "{family} ran the wrong number of seeds");
        for c in &cases {
            match family {
                ScenarioFamily::Partition | ScenarioFamily::Infiltration => assert!(
                    c.partition_drops > 0,
                    "{family} seed {} scripted cuts but dropped nothing",
                    c.seed
                ),
                ScenarioFamily::FlashCrowd | ScenarioFamily::AsymLink => assert!(
                    c.fault_interventions > 0,
                    "{family} seed {} drew no fault interventions",
                    c.seed
                ),
            }
            assert!(
                c.lease_expirations > 0,
                "{family} seed {} never exercised lease expiry",
                c.seed
            );
            assert!(
                c.retransmits > 0,
                "{family} seed {} never exercised the reliability layer",
                c.seed
            );
        }
    }
}

/// Pinned (family, seed-index, mutation) cells where the broken
/// maintenance rule is known to make the scenario fail at master seed 42.
/// Sourced from `full_mutation_matrix` (`--ignored`); re-derive there if a
/// config change shifts the seed streams. Asym-link's substitute-merge
/// cell lies past the matrix's 48 seeds, none of which that mutation
/// fails: index 101 is the first that does, found by the same scan run
/// further.
const PINNED_FAILING: [(ScenarioFamily, usize, Mutation); 6] = [
    (ScenarioFamily::FlashCrowd, 0, Mutation::BrokenLeaseExpiry),
    (
        ScenarioFamily::AsymLink,
        101,
        Mutation::BrokenSubstituteMerge,
    ),
    (ScenarioFamily::Partition, 2, Mutation::BrokenLeaseExpiry),
    (
        ScenarioFamily::Partition,
        10,
        Mutation::BrokenSubstituteMerge,
    ),
    (ScenarioFamily::AsymLink, 1, Mutation::BrokenLeaseExpiry),
    (ScenarioFamily::Infiltration, 0, Mutation::BrokenLeaseExpiry),
];

#[test]
fn every_family_fails_under_a_pinned_mutation() {
    for (family, idx, mutation) in PINNED_FAILING {
        let pinned = case(family, family_seeds(family, idx + 1)[idx]);
        let broken = pinned.run(SchemeKind::Dup, mutation);
        assert!(
            !broken.passed,
            "{family} seed index {idx} survived {} — the scenario's \
             oracle/self-checks are too weak to notice the sabotage",
            mutation.name()
        );
        // The same seed must pass clean: the failure is the mutation's.
        let clean = pinned.run(SchemeKind::Dup, Mutation::Clean);
        assert!(
            clean.passed,
            "{family} seed index {idx} fails even without the mutation:\n{}",
            clean.detail
        );
        // And the caught failure replays bit-identically from its seed.
        let replay = pinned.run(SchemeKind::Dup, mutation);
        assert_eq!(
            replay.detail, broken.detail,
            "{family} seed index {idx} produced a different violation on replay"
        );
    }
}

/// Full matrix: 48 seeds per family × both mutations, plus 16 clean seeds
/// per family. Source of the `PINNED_FAILING` indices; the failing seed
/// indices of every family × mutation are pinned to a golden file.
#[test]
#[ignore = "48-seed × 4-family × 2-mutation scan; run with --release -- --ignored"]
fn full_mutation_matrix() {
    let mut lines = String::new();
    let mut weak = Vec::new();
    for family in ScenarioFamily::ALL {
        let seeds = family_seeds(family, 48);
        for mutation in Mutation::BROKEN {
            let failing: Vec<usize> = seeds
                .iter()
                .enumerate()
                .filter(|&(_, &seed)| !case(family, seed).run(SchemeKind::Dup, mutation).passed)
                .map(|(i, _)| i)
                .collect();
            lines += &format!(
                "{} {}: fails {}/48 at {:?}\n",
                family.name(),
                mutation.name(),
                failing.len(),
                failing
            );
            if mutation == Mutation::BrokenLeaseExpiry && failing.is_empty() {
                weak.push((family, mutation));
            }
        }
        for &seed in seeds.iter().take(16) {
            let clean = case(family, seed).run(SchemeKind::Dup, Mutation::Clean);
            assert!(
                clean.passed,
                "{family} clean seed {seed} failed:\n{}",
                clean.detail
            );
        }
    }
    assert!(
        weak.is_empty(),
        "families where broken-lease-expiry survived every seed: {weak:?}"
    );
    print!("{lines}");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/mutation_matrix.txt"
    );
    if std::env::var_os("DUP_RECORD_GOLDEN").is_some() {
        std::fs::write(path, &lines).expect("golden file is writable");
    }
    let golden = std::fs::read_to_string(path).expect("golden file is committed");
    assert_eq!(lines, golden, "the mutation matrix moved");
}
