//! Experiment goldens: the fifteen `<name>.json` documents
//! `dup-experiments --bench-scale --seed 7 --out DIR all` writes
//! (`golden/experiments/`), recorded at the commit *before* the per-figure
//! modules were folded onto one sweep table, and the fifteen it writes
//! with `--reps 2` (`golden/experiments-reps2/`).
//!
//! Experiments are pure functions of scale, seed and replication count,
//! so the documents are compared byte for byte, for the default worker
//! pool and for `--jobs 1`.
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
    for (reps, dir) in [(1, "experiments"), (2, "experiments-reps2")] {
        let dir = format!("{}/tests/golden/{dir}", env!("CARGO_MANIFEST_DIR"));
        for jobs in [0, 1] {
            check_documents(&dir, reps, jobs);
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 15);
    }
}

/// Runs every experiment at `reps` replications on `jobs` workers and
/// compares each document with its golden in `dir`.
fn check_documents(dir: &str, reps: usize, jobs: usize) {
    let opts = HarnessOpts {
        scale: Scale::Bench,
        seed: 7,
        jobs,
        reps,
    };
    for sweep in all_experiments() {
        let name = sweep.name;
        let actual = sweep.run(&opts).document(&opts);
        let path = format!("{dir}/{name}.json");
        if std::env::var_os("DUP_RECORD_GOLDEN").is_some() {
            std::fs::create_dir_all(dir).expect("golden directory is writable");
            std::fs::write(&path, &actual).expect("golden file is writable");
        }
        let golden = std::fs::read_to_string(&path).expect("golden file is committed");
        assert!(
            actual == golden,
            "{name}.json drifted (reps = {reps}, jobs = {jobs})"
        );
    }
}
