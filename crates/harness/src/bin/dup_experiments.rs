//! `dup-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! dup-experiments [OPTIONS] [EXPERIMENTS...]
//!
//! EXPERIMENTS   any of: table2 fig4 table3 fig5 fig6 fig7 fig8
//!               ext-churn ext-staleness ext-chord ext-placement
//!               ext-policy ext-cup-halo
//!               or `all` (default: all paper artifacts, no extensions)
//!               or `fuzz`: run seeded fault-injection scenarios per scheme
//!               and verify each against the invariant/oracle layer (see
//!               EXPERIMENTS.md); exits nonzero when any scenario fails
//!               or `chaos`: run fault→heal→drain convergence scenarios
//!               with the reliability layer (ack/retransmit, leases,
//!               orphan repair) enabled; every scheme must re-converge to
//!               the oracle DUP tree (or replay bit-identically) within
//!               bounded lease periods; writes CHAOS_report.json and
//!               CHAOS_metrics.prom to --out DIR; exits nonzero on any
//!               non-convergence
//!               or `scenarios`: run the adversarial scenario suite —
//!               flash crowds (piecewise-Zipf θ spikes), regional
//!               partitions, slow/asymmetric links, and peer-set
//!               infiltration with scoped churn as the countermeasure;
//!               every DUP case must re-converge to the NCA-closure
//!               oracle within its family's lease-period bound (PCX/CUP
//!               replay bit-identically), and the flash-crowd space cell
//!               must match the sequential event log bit for bit; writes
//!               SCENARIO_report.json, SCENARIO_metrics.prom, and one
//!               SCENARIO_<family>_perfetto.json +
//!               SCENARIO_<family>_metrics.prom pair per family to --out
//!               DIR; exits nonzero on any failure
//!               or `trace-report`: run one fully traced simulation
//!               (scheme from --scheme, default dup), reconstruct
//!               per-update propagation trees with a latency decomposition,
//!               and write TRACE_<scheme>_perfetto.json (load it in
//!               ui.perfetto.dev) plus TRACE_<scheme>_metrics.prom
//!               (Prometheus text format) to --out DIR or the current
//!               directory
//!               or `space-smoke`: run one DUP simulation space-parallel
//!               (2 shards, timer-wheel backend) and assert its merged
//!               event log is bit-identical to the sequential run; exits
//!               nonzero on divergence (the CI cell for the space kernel)
//!               or `load-report`: sweep Zipf θ ∈ [0.5, 1.2] with full
//!               per-node load accounting (streaming probe + SpaceSaving
//!               hot-node sketch), print the skew table, and write
//!               LOAD_report.json + LOAD_metrics.prom to --out DIR or the
//!               current directory; exits nonzero when the sketch
//!               disagrees with the exact accounting
//!               or `live-smoke`: boot an 8-node DUP cluster as real
//!               localhost processes (one per node, length-delimited TCP),
//!               SIGKILL a mid-tree node, restart it with a bumped
//!               incarnation, and assert every host's tree re-converges
//!               to the NCA-closure oracle within 8 lease periods; writes
//!               LIVE_report.json + LIVE_metrics.prom to --out DIR; exits
//!               nonzero when any phase misses its deadline (`live-node`
//!               is the hidden per-process entry point it spawns)
//!
//! OPTIONS
//!   --full           paper-scale runs (n=4096, 180000 s windows)
//!   --bench-scale    minimal runs (Criterion-sized)
//!   --seed <u64>     master seed (default 42)
//!   --jobs <n>       worker threads (default: all cores)
//!   --reps <n>       independent replications per sweep point (default 1;
//!                    latency CIs then come from replication means)
//!   --out <dir>      also write <dir>/<experiment>.json
//!   --trace <file>   run one probed simulation and dump a JSONL event
//!                    trace to <file> (then exit unless experiments are
//!                    explicitly listed)
//!   --trace-sample <secs>          time-series sample interval (default 600)
//!   --shards <n>     parallel shard count for experiment runs (ensemble
//!                    mode: one worker thread and one event queue per
//!                    shard; default 1 = classic single-queue)
//!   --space-shards <n>   partition each run's node space across <n>
//!                    engine shards (one simulation, one worker thread per
//!                    shard; default 1 = classic single-queue; mutually
//!                    exclusive with --shards)
//!   --seeds <n>      scenarios per scheme for `fuzz`/`chaos` (default 16)
//!                    and per family for `scenarios` (default 2); scenario
//!                    seeds derive from --seed
//!   --family <name>  restrict `scenarios` to one family
//!                    (flash-crowd|partition|asym-link|infiltration;
//!                    default: all four)
//!   --replay <u64>   replay exactly one scenario seed (as printed by a
//!                    failing campaign) instead of a full seed set
//!   --scheme <pcx|cup|dup>   restrict `fuzz`/`chaos` to one scheme
//!                    (default: all three) and select the scheme traced by
//!                    `trace-report`/`--trace` (default dup)
//!   --fuzz-mutate    enable the deliberately broken substitute-merge
//!                    rule, to demonstrate the harness catches it
//!
//! The pre-consolidation spellings of the seed-set/scheme family
//! (`--fuzz-seeds`, `--fuzz-seed`, `--fuzz-scheme`, `--chaos-seeds`,
//! `--chaos-seed`, `--chaos-scheme`, `--trace-scheme`) are removed; each
//! errors out naming its uniform replacement above.
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use dup_core::run_simulation_kind;
use dup_harness::{
    all_experiments, experiment_by_name, HarnessOpts, Scale, ScenarioArgs, ScenarioFamily,
    SchemeKind,
};
use dup_proto::{JsonlProbe, ProbeSink};

fn main() -> ExitCode {
    // The hidden `live-node` subcommand runs one live cluster node and
    // must not parse (or be confused by) the experiment options: the
    // harness spawns it as `dup-experiments live-node <index>
    // <incarnation> <rendezvous-dir>`.
    {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        if raw.first().map(String::as_str) == Some("live-node") {
            return run_live_node_cmd(&raw[1..]);
        }
    }

    let mut opts = HarnessOpts::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut trace_sample = 600.0;
    let mut scenario = ScenarioArgs::default();
    let mut family: Option<ScenarioFamily> = None;
    let mut fuzz_mutate = false;
    let mut shards = 1usize;
    let mut space_shards = 1usize;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => opts.scale = Scale::Full,
            "--bench-scale" => opts.scale = Scale::Bench,
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => opts.seed = seed,
                None => return usage("--seed needs an integer"),
            },
            "--jobs" => match args.next().and_then(|s| s.parse().ok()) {
                Some(jobs) => opts.jobs = jobs,
                None => return usage("--jobs needs an integer"),
            },
            "--reps" => match args.next().and_then(|s| s.parse().ok()) {
                Some(reps) if reps >= 1 => opts.reps = reps,
                _ => return usage("--reps needs a positive integer"),
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return usage("--out needs a directory"),
            },
            "--trace" => match args.next() {
                Some(path) => trace_out = Some(PathBuf::from(path)),
                None => return usage("--trace needs a file path"),
            },
            "--trace-sample" => match args.next().and_then(|s| s.parse().ok()) {
                Some(secs) if secs >= 0.0 => trace_sample = secs,
                _ => return usage("--trace-sample needs a non-negative number"),
            },
            "--fuzz-mutate" => fuzz_mutate = true,
            "--family" => match args.next().map(|s| s.parse()) {
                Some(Ok(f)) => family = Some(f),
                Some(Err(e)) => return usage(&e),
                None => {
                    return usage(
                        "--family needs flash-crowd, partition, asym-link, or infiltration",
                    )
                }
            },
            "--shards" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => return usage("--shards needs a positive integer"),
            },
            "--space-shards" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => space_shards = n,
                _ => return usage("--space-shards needs a positive integer"),
            },
            "--help" | "-h" => return usage(""),
            // The uniform seed-set/scheme family (and its hidden legacy
            // aliases) parses through the shared struct.
            other if other.starts_with('-') => match scenario.try_consume(other, &mut args) {
                Ok(true) => {}
                Ok(false) => return usage(&format!("unknown option {other}")),
                Err(e) => return usage(&e),
            },
            name => selected.push(name.to_string()),
        }
    }

    if shards > 1 && space_shards > 1 {
        return usage("--shards and --space-shards are mutually exclusive");
    }
    opts.shards = shards;
    opts.space_shards = space_shards;

    let trace_scheme = scenario.scheme.unwrap_or(SchemeKind::Dup);
    if let Some(path) = &trace_out {
        if let Err(msg) = run_trace(&opts, trace_scheme, trace_sample, path) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
        // A trace run stands alone unless experiments were also requested.
        if selected.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    if selected.iter().any(|s| s == "trace-report") {
        selected.retain(|s| s != "trace-report");
        if let Err(msg) = run_trace_report(&opts, trace_scheme, trace_sample, out_dir.as_deref()) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
        // Like --trace, trace-report stands alone unless experiments were
        // also requested.
        if selected.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    if selected.iter().any(|s| s == "fuzz") {
        selected.retain(|s| s != "fuzz");
        match run_fuzz_cmd(&opts, &scenario, fuzz_mutate, out_dir.as_deref()) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
        // Like --trace, fuzz stands alone unless experiments were also
        // requested.
        if selected.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    if selected.iter().any(|s| s == "load-report") {
        selected.retain(|s| s != "load-report");
        match run_load_report(&opts, out_dir.as_deref()) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
        // Like --trace, load-report stands alone unless experiments were
        // also requested.
        if selected.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    if selected.iter().any(|s| s == "live-smoke") {
        selected.retain(|s| s != "live-smoke");
        match dup_harness::run_live_smoke(out_dir.as_deref()) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
        // Like --trace, live-smoke stands alone unless experiments were
        // also requested.
        if selected.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    if selected.iter().any(|s| s == "space-smoke") {
        selected.retain(|s| s != "space-smoke");
        match run_space_smoke(&opts) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
        // Like --trace, space-smoke stands alone unless experiments were
        // also requested.
        if selected.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    if selected.iter().any(|s| s == "scenarios") {
        selected.retain(|s| s != "scenarios");
        match run_scenarios_cmd(&opts, &scenario, family, out_dir.as_deref()) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
        // Like --trace, scenarios stands alone unless experiments were
        // also requested.
        if selected.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    if selected.iter().any(|s| s == "chaos") {
        selected.retain(|s| s != "chaos");
        match run_chaos_cmd(&opts, &scenario, out_dir.as_deref()) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
        // Like --trace, chaos stands alone unless experiments were also
        // requested.
        if selected.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    let paper_set = ["table2", "fig4", "table3", "fig5", "fig6", "fig7", "fig8"];
    let names: Vec<String> = if selected.is_empty() {
        paper_set.iter().map(|s| s.to_string()).collect()
    } else if selected.iter().any(|s| s == "all") {
        all_experiments()
            .iter()
            .map(|(n, _)| n.to_string())
            .collect()
    } else {
        selected
    };

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    println!(
        "dup-experiments: scale={:?} seed={} experiments=[{}]\n",
        opts.scale,
        opts.seed,
        names.join(", ")
    );
    for name in &names {
        let Some(runner) = experiment_by_name(name) else {
            return usage(&format!("unknown experiment {name}"));
        };
        let started = std::time::Instant::now();
        let output = runner(&opts);
        println!("== {} ==", output.title);
        println!("{}", output.text);
        println!("({} finished in {:.1?})\n", output.name, started.elapsed());
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{}.json", output.name));
            match std::fs::File::create(&path) {
                Ok(mut f) => {
                    let doc = serde_json::json!({
                        "title": output.title,
                        "scale": format!("{:?}", opts.scale),
                        "seed": opts.seed,
                        "results": output.json,
                    });
                    if let Err(e) = writeln!(f, "{}", serde_json::to_string_pretty(&doc).unwrap()) {
                        eprintln!("write {} failed: {e}", path.display());
                    }
                }
                Err(e) => eprintln!("create {} failed: {e}", path.display()),
            }
        }
    }
    ExitCode::SUCCESS
}

/// Sweeps Zipf θ with full per-node load accounting, prints the skew
/// table, and writes `LOAD_report.json` + `LOAD_metrics.prom`. Returns
/// `Ok(true)` when the sketch agreed with the exact accounting at every
/// point.
fn run_load_report(opts: &HarnessOpts, out_dir: Option<&std::path::Path>) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let out = dup_harness::load_report(opts);
    print!("{}", dup_harness::render_load_report(&out));
    println!("(load-report finished in {:.1?})\n", started.elapsed());
    let dir = out_dir.unwrap_or_else(|| std::path::Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("LOAD_report.json");
    let doc = serde_json::to_string_pretty(&out.report).expect("load report serializes");
    std::fs::write(&path, doc + "\n")
        .map_err(|e| format!("write {} failed: {e}", path.display()))?;
    println!("wrote {}", path.display());
    let prom_path = dir.join("LOAD_metrics.prom");
    std::fs::write(&prom_path, &out.prometheus)
        .map_err(|e| format!("write {} failed: {e}", prom_path.display()))?;
    println!("wrote {}", prom_path.display());
    Ok(out.report.points.iter().all(|p| p.sketch_agrees))
}

/// Runs one fully traced simulation, prints the propagation-tree summary,
/// and writes the Perfetto JSON and Prometheus text artifacts.
fn run_trace_report(
    opts: &HarnessOpts,
    kind: SchemeKind,
    sample_secs: f64,
    out_dir: Option<&std::path::Path>,
) -> Result<(), String> {
    let started = std::time::Instant::now();
    let tr = dup_harness::trace_report(opts, kind, sample_secs);
    print!("{}", dup_harness::render_trace_report(&tr));
    println!("(trace-report finished in {:.1?})\n", started.elapsed());
    let dir = out_dir.unwrap_or_else(|| std::path::Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let scheme = kind.name().to_lowercase();
    let perfetto_path = dir.join(format!("TRACE_{scheme}_perfetto.json"));
    let doc = serde_json::to_string(&tr.perfetto).expect("perfetto doc serializes");
    std::fs::write(&perfetto_path, doc + "\n")
        .map_err(|e| format!("write {} failed: {e}", perfetto_path.display()))?;
    println!(
        "wrote {} (load it in ui.perfetto.dev)",
        perfetto_path.display()
    );
    let prom_path = dir.join(format!("TRACE_{scheme}_metrics.prom"));
    std::fs::write(&prom_path, &tr.prometheus)
        .map_err(|e| format!("write {} failed: {e}", prom_path.display()))?;
    println!("wrote {}", prom_path.display());
    Ok(())
}

/// Runs a seeded fault-injection fuzz campaign (or a single-seed replay)
/// and verifies every scenario; returns `Ok(true)` when all passed. Writes
/// `FUZZ_report.json` when `--out` is given.
fn run_fuzz_cmd(
    opts: &HarnessOpts,
    scenario: &ScenarioArgs,
    mutate: bool,
    out_dir: Option<&std::path::Path>,
) -> Result<bool, String> {
    let schemes = scenario.schemes();
    let started = std::time::Instant::now();
    let report = match scenario.replay {
        // Replay one printed scenario seed exactly.
        Some(seed) => dup_harness::FuzzReport {
            master_seed: opts.seed,
            scenarios: schemes
                .iter()
                .map(|&kind| dup_harness::run_scenario(kind, seed, mutate))
                .collect(),
        },
        None => dup_harness::run_fuzz(opts.seed, scenario.seeds_or(16), &schemes, mutate),
    };
    print!("{}", dup_harness::render_fuzz_report(&report));
    if mutate {
        println!("(--fuzz-mutate active: failures above prove the harness catches corruption)");
    }
    println!("(fuzz finished in {:.1?})\n", started.elapsed());
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join("FUZZ_report.json");
        let doc = serde_json::to_string_pretty(&report).expect("fuzz report serializes");
        std::fs::write(&path, doc + "\n")
            .map_err(|e| format!("write {} failed: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(report.failures().is_empty())
}

/// Runs the space-parallel CI cell: one DUP simulation, 2 space shards on
/// the timer-wheel backend, merged event log compared bit-for-bit against
/// the sequential run. Returns `Ok(true)` on equality.
fn run_space_smoke(opts: &HarnessOpts) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let result = dup_harness::space_smoke(opts);
    print!("{}", dup_harness::render_space_smoke(&result));
    println!("(space-smoke finished in {:.1?})\n", started.elapsed());
    Ok(result.passed)
}

/// Entry point of the hidden `live-node` subcommand: one process of the
/// live smoke cluster. Arguments: `<index> <incarnation> <rendezvous-dir>`.
fn run_live_node_cmd(args: &[String]) -> ExitCode {
    let parsed = match args {
        [index, incarnation, dir] => index
            .parse::<usize>()
            .ok()
            .zip(incarnation.parse::<u64>().ok())
            .map(|(i, inc)| (i, inc, PathBuf::from(dir))),
        _ => None,
    };
    let Some((index, incarnation, dir)) = parsed else {
        eprintln!("usage: dup-experiments live-node <index> <incarnation> <rendezvous-dir>");
        return ExitCode::FAILURE;
    };
    match dup_harness::live_node_main(index, incarnation, &dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs a reliable fault→heal→drain chaos campaign (or a single-seed
/// replay) and verifies convergence; returns `Ok(true)` when every
/// scenario re-converged. Writes `CHAOS_report.json` and
/// `CHAOS_metrics.prom` when `--out` is given.
fn run_chaos_cmd(
    opts: &HarnessOpts,
    scenario: &ScenarioArgs,
    out_dir: Option<&std::path::Path>,
) -> Result<bool, String> {
    let schemes = scenario.schemes();
    let started = std::time::Instant::now();
    let report = match scenario.replay {
        // Replay one printed scenario seed exactly.
        Some(seed) => dup_harness::ChaosReport {
            master_seed: opts.seed,
            scenarios: schemes
                .iter()
                .map(|&kind| dup_harness::run_chaos_scenario(kind, seed))
                .collect(),
        },
        None => dup_harness::run_chaos(opts.seed, scenario.seeds_or(16), &schemes),
    };
    print!("{}", dup_harness::render_chaos_report(&report));
    // The space-parallel cell: the same fault class (drop_p = 0.2) with the
    // node space split across two engine shards must heal to the oracle
    // tree AND reproduce the sequential event log bit for bit.
    let space_cell = dup_harness::run_chaos_space_cell(opts.seed);
    print!("{}", dup_harness::render_chaos_space_cell(&space_cell));
    println!("(chaos finished in {:.1?})\n", started.elapsed());
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join("CHAOS_report.json");
        let doc = serde_json::to_string_pretty(&report).expect("chaos report serializes");
        std::fs::write(&path, doc + "\n")
            .map_err(|e| format!("write {} failed: {e}", path.display()))?;
        println!("wrote {}", path.display());
        let prom_path = dir.join("CHAOS_metrics.prom");
        let prom = dup_harness::chaos_registry(&report).render_prometheus();
        std::fs::write(&prom_path, prom)
            .map_err(|e| format!("write {} failed: {e}", prom_path.display()))?;
        println!("wrote {}", prom_path.display());
    }
    Ok(report.failures().is_empty() && space_cell.passed)
}

/// Runs the adversarial scenario suite (or a single-seed replay) plus the
/// flash-crowd space cell; returns `Ok(true)` when every case passed.
/// Writes `SCENARIO_report.json`, `SCENARIO_metrics.prom`, and one traced
/// Perfetto/Prometheus artifact pair per family when `--out` is given.
fn run_scenarios_cmd(
    opts: &HarnessOpts,
    scenario: &ScenarioArgs,
    family: Option<ScenarioFamily>,
    out_dir: Option<&std::path::Path>,
) -> Result<bool, String> {
    let schemes = scenario.schemes();
    let families: Vec<ScenarioFamily> = match family {
        Some(f) => vec![f],
        None => ScenarioFamily::ALL.to_vec(),
    };
    let started = std::time::Instant::now();
    let report = match scenario.replay {
        // Replay one printed scenario seed exactly (every selected
        // family × scheme, clean).
        Some(seed) => dup_harness::ScenarioSuiteReport {
            master_seed: opts.seed,
            cases: families
                .iter()
                .flat_map(|&f| {
                    schemes.iter().map(move |&kind| {
                        dup_harness::run_scenario_case(f, kind, seed, dup_harness::Mutation::Clean)
                    })
                })
                .collect(),
        },
        None => {
            dup_harness::run_scenario_suite(opts.seed, scenario.seeds_or(2), &families, &schemes)
        }
    };
    print!("{}", dup_harness::render_scenario_report(&report));
    // The space-parallel cell: the flash-crowd θ schedule partitioned
    // across two engine shards must reproduce the sequential event log
    // bit for bit and heal to the oracle tree.
    let space_cell = dup_harness::run_flash_space_cell(opts.seed);
    print!("{}", dup_harness::render_flash_space_cell(&space_cell));
    println!("(scenarios finished in {:.1?})\n", started.elapsed());
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join("SCENARIO_report.json");
        let doc = serde_json::to_string_pretty(&report).expect("scenario report serializes");
        std::fs::write(&path, doc + "\n")
            .map_err(|e| format!("write {} failed: {e}", path.display()))?;
        println!("wrote {}", path.display());
        let prom_path = dir.join("SCENARIO_metrics.prom");
        let prom = dup_harness::scenario_registry(&report).render_prometheus();
        std::fs::write(&prom_path, prom)
            .map_err(|e| format!("write {} failed: {e}", prom_path.display()))?;
        println!("wrote {}", prom_path.display());
        // One traced DUP run per family: the latency-decomposition
        // artifacts the CI job uploads.
        for &f in &families {
            let seed = scenario
                .replay
                .unwrap_or_else(|| dup_harness::scenario_suite_seeds(opts.seed, f, 1)[0]);
            let artifacts = dup_harness::scenario_trace_artifacts(f, seed);
            let stem = f.name().replace('-', "_");
            let perfetto_path = dir.join(format!("SCENARIO_{stem}_perfetto.json"));
            let doc = serde_json::to_string(&artifacts.perfetto).expect("perfetto doc serializes");
            std::fs::write(&perfetto_path, doc + "\n")
                .map_err(|e| format!("write {} failed: {e}", perfetto_path.display()))?;
            println!(
                "wrote {} ({} spans; load it in ui.perfetto.dev)",
                perfetto_path.display(),
                artifacts.traced_spans,
            );
            let prom_path = dir.join(format!("SCENARIO_{stem}_metrics.prom"));
            std::fs::write(&prom_path, &artifacts.prometheus)
                .map_err(|e| format!("write {} failed: {e}", prom_path.display()))?;
            println!("wrote {}", prom_path.display());
        }
    }
    Ok(report.failures().is_empty() && space_cell.passed)
}

/// Runs one probed simulation at the configured scale and streams every
/// probe event to `path` as JSON Lines.
fn run_trace(
    opts: &HarnessOpts,
    kind: SchemeKind,
    sample_secs: f64,
    path: &PathBuf,
) -> Result<(), String> {
    let mut cfg = opts.scale.base_config(opts.seed);
    cfg.probe.sample_every_secs = sample_secs;
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let probe = JsonlProbe::new(std::io::BufWriter::new(file));
    let started = std::time::Instant::now();
    let report = run_simulation_kind(&cfg, kind, ProbeSink::attach(probe));
    println!(
        "trace: {} scale={:?} seed={} -> {} ({} events, {} samples, {} queries, {:.1?})\n",
        kind,
        opts.scale,
        opts.seed,
        path.display(),
        report.probe_events,
        report.samples.len(),
        report.queries,
        started.elapsed()
    );
    Ok(())
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: dup-experiments [--full|--bench-scale] [--seed N] [--jobs N] [--reps N] \
         [--shards N] [--space-shards N] [--out DIR] [--trace FILE] [--trace-sample SECS] \
         [--seeds N] [--replay SEED] [--scheme pcx|cup|dup] \
         [--family flash-crowd|partition|asym-link|infiltration] [--fuzz-mutate] \
         [table2|fig4|table3|fig5|fig6|fig7|fig8|ext-...|all|fuzz|chaos|\
         scenarios|trace-report|load-report|space-smoke|live-smoke]..."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
