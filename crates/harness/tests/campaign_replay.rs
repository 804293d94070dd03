//! A failing row must print the command that replays it (ISSUE 16): the
//! right subcommand, seed, scheme and — for `scenarios` — family.
//!
//! Each campaign is forced to fail by `Mutation::BrokenSubstituteMerge` at
//! a pinned case seed where the sabotage is known to bite (fuzz index 8
//! and chaos index 87 at master seed 42; partition index 10 is the cell
//! `scenario_suite.rs` pins). Re-derive by scanning derived seeds if a
//! generator change shifts the seed streams.

use dup_harness::{Campaign, Mutation, SchemeKind, Selection, CHAOS, FUZZ, SCENARIOS};

const PINNED_FAILING: [(&Campaign, Option<&str>, u64); 3] = [
    (&FUZZ, None, 5245076502418721752),
    (&CHAOS, None, 14387334266915312430),
    (&SCENARIOS, Some("partition"), 1518876853595082434),
];

#[test]
fn failing_rows_print_their_replay_command() {
    for (campaign, family, seed) in PINNED_FAILING {
        let selection = Selection {
            replay: Some(seed),
            family,
            ..Selection::derived(42, 1)
        };
        let broken = Mutation::BrokenSubstituteMerge;
        let report = campaign.run(&selection, &[SchemeKind::Dup], broken);
        assert_eq!(
            report.cases.len(),
            1,
            "{}: one case selected",
            campaign.name
        );
        assert_eq!(
            report.failures().len(),
            1,
            "{} seed {seed} survived the broken substitute merge",
            campaign.name
        );
        let family = family.map_or(String::new(), |f| format!(" --family {f}"));
        let expected = format!(
            "replay with:\n  dup-experiments {} --replay {seed}{family} --scheme dup\n",
            campaign.name
        );
        let rendered = report.to_string();
        assert!(
            rendered.contains(&expected),
            "{}: no replay line `{expected}` in:\n{rendered}",
            campaign.name
        );
        // And the printed command's selection reproduces the row exactly.
        let replayed = campaign.run(&selection, &[SchemeKind::Dup], broken);
        assert_eq!(
            serde_json::to_string(&replayed).unwrap(),
            serde_json::to_string(&report).unwrap(),
            "{} seed {seed} did not replay identically",
            campaign.name
        );
    }
}
