//! Experiment goldens (ISSUE 17): the fifteen `<name>.json` documents
//! `dup-experiments --bench-scale --seed 7 --out DIR all` writes, recorded
//! at the commit *before* the per-figure modules were folded onto one
//! sweep table.
//!
//! Experiments are pure functions of scale and seed, so the documents are
//! compared byte for byte, for the default worker pool and for `--jobs 1`.
//! Re-record (deliberate behaviour changes only) with:
//!
//! ```text
//! DUP_RECORD_GOLDEN=1 cargo test -p dup-harness --test experiment_golden
//! ```

use dup_harness::{all_experiments, experiment_by_name, HarnessOpts, Scale};

#[test]
fn registry_names_are_unique() {
    let names: Vec<&str> = all_experiments().iter().map(|sweep| sweep.name).collect();
    let mut dedup = names.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(names.len(), dedup.len());
    assert!(experiment_by_name("table2").is_some());
    assert!(experiment_by_name("nope").is_none());
}

#[test]
fn bench_scale_documents_are_pinned() {
    let dir = format!("{}/tests/golden/experiments", env!("CARGO_MANIFEST_DIR"));
    for jobs in [0, 1] {
        let opts = HarnessOpts {
            scale: Scale::Bench,
            seed: 7,
            jobs,
            ..HarnessOpts::default()
        };
        for sweep in all_experiments() {
            let name = sweep.name;
            let actual = sweep.run(&opts).document(&opts);
            let path = format!("{dir}/{name}.json");
            if std::env::var_os("DUP_RECORD_GOLDEN").is_some() {
                std::fs::write(&path, &actual).expect("golden file is writable");
            }
            let golden = std::fs::read_to_string(&path).expect("golden file is committed");
            assert!(actual == golden, "{name}.json drifted (jobs = {jobs})");
        }
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 15);
}
