//! `dup-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! dup-experiments [OPTIONS] [EXPERIMENTS...]
//!
//! EXPERIMENTS   any of: table2 fig4 table3 fig5 fig6 fig7 fig8
//!               ext-churn ext-staleness ext-chord ext-placement
//!               ext-policy ext-cup-halo ext-tails ext-cup-economic
//!               or `all` (default: all paper artifacts, no extensions)
//!               or a verification campaign — `fuzz`, `chaos`,
//!               `scenarios` (EXPERIMENTS.md, "Verification campaigns"):
//!               expand seeds into faulted configurations, run DUP
//!               fault→heal→drain and judge the settled tree against the
//!               NCA-closure oracle within the campaign's heal-phase
//!               budget, replay PCX/CUP twice for bit-identity; print a
//!               replay command per failing row; exit nonzero on any
//!               failure. Every heal phase is one lease tick. `fuzz`
//!               arms faults with the reliability layer off (writes
//!               FUZZ_report.json to --out DIR); `chaos` arms the
//!               reliability layer (ack/retransmit, leases, orphan
//!               repair) under drops up to 0.2 and adds a
//!               2-space-shard cell (CHAOS_report.json,
//!               CHAOS_metrics.prom); `scenarios` scripts four adversarial
//!               families — flash crowds (piecewise-Zipf θ spikes),
//!               regional partitions, slow/asymmetric links, peer-set
//!               infiltration — each with its own lease-period bound and
//!               self-checks, plus the flash-crowd space cell
//!               (SCENARIO_report.json, SCENARIO_metrics.prom, and one
//!               SCENARIO_<family>_perfetto.json +
//!               SCENARIO_<family>_metrics.prom pair per family)
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
//!               or `load-report`: sweep Zipf θ ∈ [0.5, 1.2] with exact
//!               per-node load accounting (streaming probe), print the
//!               skew table with each point's hottest node, and write
//!               LOAD_report.json + LOAD_metrics.prom to --out DIR or the
//!               current directory
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
//!   --bench-scale    minimal runs (every experiment in well under a second)
//!   --seed <u64>     master seed (default 42)
//!   --jobs <n>       worker threads of the pool every experiment's runs
//!                    share (default: all cores; results do not depend on it)
//!   --reps <n>       independent replications per sweep point, each an
//!                    item on the worker pool (default 1; latency CIs then
//!                    come from replication means)
//!   --out <dir>      also write <dir>/<experiment>.json
//!   --trace <file>   run one probed simulation and dump a JSONL event
//!                    trace to <file> (then exit unless experiments are
//!                    explicitly listed)
//!   --trace-sample <secs>          time-series sample interval (default 600)
//!   --seeds <n>      cases per scheme for `fuzz`/`chaos` (default 16) and
//!                    per family for `scenarios` (default 2); case seeds
//!                    derive from --seed
//!   --family <name>  restrict `scenarios` to one family
//!                    (flash-crowd|partition|asym-link|infiltration;
//!                    default: all four)
//!   --replay <u64>   replay exactly one case seed (as printed by a
//!                    failing campaign) instead of a full seed set
//!   --scheme <pcx|cup|dup>   restrict a campaign to one scheme
//!                    (default: all three) and select the scheme traced by
//!                    `trace-report`/`--trace` (default dup)
//!   --fuzz-mutate    run `fuzz` with the deliberately broken
//!                    substitute-merge rule, to demonstrate the harness
//!                    catches it
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dup_core::run_simulation_kind;
use dup_harness::{
    all_experiments, experiment_by_name, space_cell, write_artifact, Campaign, HarnessOpts,
    Mutation, Scale, ScenarioArgs, ScenarioFamily, SchemeKind, Selection, CHAOS, FUZZ, SCENARIOS,
};
use dup_proto::{JsonlProbe, ProbeSink};

/// Everything a subcommand reads from the command line.
struct Cli {
    opts: HarnessOpts,
    out_dir: Option<PathBuf>,
    trace_sample: f64,
    scenario: ScenarioArgs,
    family: Option<ScenarioFamily>,
    fuzz_mutate: bool,
}

impl Cli {
    /// Where the report subcommands write: `--out DIR` or the current
    /// directory.
    fn out_dir_or_cwd(&self) -> &Path {
        self.out_dir.as_deref().unwrap_or(Path::new("."))
    }

    /// The scheme `trace-report` and `--trace` run (default DUP).
    fn trace_scheme(&self) -> SchemeKind {
        self.scenario.scheme.unwrap_or(SchemeKind::Dup)
    }
}

/// A stand-alone subcommand: `Ok(true)` when everything it checks passed.
type Subcommand = fn(&Cli) -> Result<bool, String>;

/// The stand-alone subcommands, in the order they run when several are
/// named. Like `--trace`, they stand alone: the paper experiments only run
/// when some are listed too.
const SUBCOMMANDS: [(&str, Subcommand); 7] = [
    ("trace-report", run_trace_report),
    ("fuzz", |cli| {
        let mutation = if cli.fuzz_mutate {
            Mutation::BrokenSubstituteMerge
        } else {
            Mutation::Clean
        };
        run_campaign(cli, &FUZZ, mutation)
    }),
    ("load-report", run_load_report),
    ("live-smoke", |cli| {
        dup_harness::run_live_smoke(cli.out_dir.as_deref())
    }),
    ("space-smoke", run_space_smoke),
    ("scenarios", |cli| {
        run_campaign(cli, &SCENARIOS, Mutation::Clean)
    }),
    ("chaos", |cli| run_campaign(cli, &CHAOS, Mutation::Clean)),
];

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

    let mut cli = Cli {
        opts: HarnessOpts::default(),
        out_dir: None,
        trace_sample: 600.0,
        scenario: ScenarioArgs::default(),
        family: None,
        fuzz_mutate: false,
    };
    let mut trace_out: Option<PathBuf> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => cli.opts.scale = Scale::Full,
            "--bench-scale" => cli.opts.scale = Scale::Bench,
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => cli.opts.seed = seed,
                None => return usage("--seed needs an integer"),
            },
            "--jobs" => match args.next().and_then(|s| s.parse().ok()) {
                Some(jobs) => cli.opts.jobs = jobs,
                None => return usage("--jobs needs an integer"),
            },
            "--reps" => match args.next().and_then(|s| s.parse().ok()) {
                Some(reps) if reps >= 1 => cli.opts.reps = reps,
                _ => return usage("--reps needs a positive integer"),
            },
            "--out" => match args.next() {
                Some(dir) => cli.out_dir = Some(PathBuf::from(dir)),
                None => return usage("--out needs a directory"),
            },
            "--trace" => match args.next() {
                Some(path) => trace_out = Some(PathBuf::from(path)),
                None => return usage("--trace needs a file path"),
            },
            "--trace-sample" => match args.next().and_then(|s| s.parse().ok()) {
                Some(secs) if secs >= 0.0 => cli.trace_sample = secs,
                _ => return usage("--trace-sample needs a non-negative number"),
            },
            "--fuzz-mutate" => cli.fuzz_mutate = true,
            "--family" => match args.next().map(|s| s.parse()) {
                Some(Ok(f)) => cli.family = Some(f),
                Some(Err(e)) => return usage(&e),
                None => {
                    return usage(
                        "--family needs flash-crowd, partition, asym-link, or infiltration",
                    )
                }
            },
            "--shards" | "--space-shards" => {
                return usage(&format!(
                    "{arg} is gone: --reps N runs a point's replications on the worker \
                     pool, and space-smoke runs the space-parallel engine"
                ))
            }
            "--help" | "-h" => return usage(""),
            // The uniform seed-set/scheme family parses through the
            // shared struct.
            other if other.starts_with('-') => match cli.scenario.try_consume(other, &mut args) {
                Ok(true) => {}
                Ok(false) => return usage(&format!("unknown option {other}")),
                Err(e) => return usage(&e),
            },
            name => selected.push(name.to_string()),
        }
    }

    // `--trace` and every named subcommand run first, in table order; they
    // stand alone unless experiments were also requested.
    let mut stood_alone = false;
    if let Some(path) = &trace_out {
        if let Err(msg) = run_trace(&cli, path) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
        stood_alone = true;
    }
    for (name, run) in SUBCOMMANDS {
        if !selected.iter().any(|s| s == name) {
            continue;
        }
        selected.retain(|s| s != name);
        stood_alone = true;
        let started = std::time::Instant::now();
        let outcome = run(&cli);
        println!("({name} finished in {:.1?})\n", started.elapsed());
        match outcome {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if stood_alone && selected.is_empty() {
        return ExitCode::SUCCESS;
    }

    let paper_set = ["table2", "fig4", "table3", "fig5", "fig6", "fig7", "fig8"];
    let names: Vec<String> = if selected.is_empty() {
        paper_set.iter().map(|s| s.to_string()).collect()
    } else if selected.iter().any(|s| s == "all") {
        all_experiments()
            .iter()
            .map(|sweep| sweep.name.to_string())
            .collect()
    } else {
        selected
    };

    let opts = &cli.opts;
    println!(
        "dup-experiments: scale={:?} seed={} experiments=[{}]\n",
        opts.scale,
        opts.seed,
        names.join(", ")
    );
    for name in &names {
        let Some(sweep) = experiment_by_name(name) else {
            return usage(&format!("unknown experiment {name}"));
        };
        let started = std::time::Instant::now();
        let output = sweep.run(opts);
        println!("== {} ==", output.title);
        println!("{}", output.text);
        println!("({} finished in {:.1?})\n", output.name, started.elapsed());
        if let Some(dir) = &cli.out_dir {
            let doc = output.document(opts);
            if let Err(msg) = write_artifact(dir, &format!("{}.json", output.name), &doc) {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs one verification campaign (or a single-seed replay) plus its
/// space-parallel cell, prints the rendition with a replay command per
/// failure, and writes the campaign's artifacts when `--out` is given.
/// Returns `Ok(true)` when every case and the cell passed.
fn run_campaign(cli: &Cli, campaign: &Campaign, mutation: Mutation) -> Result<bool, String> {
    let selection = Selection {
        master_seed: cli.opts.seed,
        seeds: cli.scenario.seeds_or(campaign.default_seeds),
        replay: cli.scenario.replay,
        family: cli.family.map(ScenarioFamily::name),
    };
    let report = campaign.run(&selection, &cli.scenario.schemes(), mutation);
    print!("{report}");
    if mutation != Mutation::Clean {
        println!("(--fuzz-mutate active: failures above prove the harness catches corruption)");
    }
    // The space-parallel cell: the campaign's fault class with the node
    // space split across two engine shards must heal to the oracle tree
    // AND reproduce the sequential event log bit for bit.
    let mut cell_passed = true;
    if let Some((config, heal_phases)) = campaign.space_cell {
        let cell = space_cell(&config(cli.opts.seed), heal_phases);
        print!("{} {cell}", campaign.name);
        cell_passed = cell.passed;
    }
    if let Some(dir) = &cli.out_dir {
        for artifact in campaign.artifacts(&report, &selection) {
            write_artifact(dir, &artifact.file, &artifact.contents)?;
        }
    }
    Ok(report.failures().is_empty() && cell_passed)
}

/// Sweeps Zipf θ with full per-node load accounting, prints the skew
/// table, and writes `LOAD_report.json` + `LOAD_metrics.prom`.
fn run_load_report(cli: &Cli) -> Result<bool, String> {
    let out = dup_harness::load_report(&cli.opts);
    print!("{}", dup_harness::render_load_report(&out));
    let dir = cli.out_dir_or_cwd();
    let doc = serde_json::to_string_pretty(&out.report).expect("load report serializes");
    write_artifact(dir, "LOAD_report.json", &(doc + "\n"))?;
    write_artifact(dir, "LOAD_metrics.prom", &out.prometheus)?;
    Ok(true)
}

/// Runs one fully traced simulation, prints the propagation-tree summary,
/// and writes the Perfetto JSON (load it in ui.perfetto.dev) and
/// Prometheus text artifacts.
fn run_trace_report(cli: &Cli) -> Result<bool, String> {
    let kind = cli.trace_scheme();
    let tr = dup_harness::trace_report(&cli.opts, kind, cli.trace_sample);
    print!("{}", dup_harness::render_trace_report(&tr));
    let dir = cli.out_dir_or_cwd();
    let scheme = kind.name().to_lowercase();
    let doc = serde_json::to_string(&tr.perfetto).expect("perfetto doc serializes");
    write_artifact(dir, &format!("TRACE_{scheme}_perfetto.json"), &(doc + "\n"))?;
    write_artifact(dir, &format!("TRACE_{scheme}_metrics.prom"), &tr.prometheus)?;
    Ok(true)
}

/// Runs the space-parallel CI cell: one DUP simulation, 2 space shards on
/// the timer-wheel backend, merged event log compared bit-for-bit against
/// the sequential run. Returns `Ok(true)` on equality.
fn run_space_smoke(cli: &Cli) -> Result<bool, String> {
    let result = dup_harness::space_smoke(&cli.opts);
    print!("{}", dup_harness::render_space_smoke(&result));
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

/// Runs one probed simulation at the configured scale and streams every
/// probe event to `path` as JSON Lines.
fn run_trace(cli: &Cli, path: &Path) -> Result<(), String> {
    let (opts, kind) = (&cli.opts, cli.trace_scheme());
    let mut cfg = opts.scale.base_config(opts.seed);
    cfg.probe.sample_every_secs = cli.trace_sample;
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
         [--out DIR] [--trace FILE] [--trace-sample SECS] \
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
