//! The repo's benchmark: one process per workload run.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! benchmark all OUT.json [--runs K] [--seed N] [--seconds S] [--quick]
//! benchmark compare A.json B.json
//! ```
//!
//! The last line of standard output of a workload run is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric of `BENCHMARK.json` with `--trace 0`, every per-layer
//! metric with `--trace 1`. See `perfbench/README.md`.

mod compare;
mod layers;
mod live;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use stats::Cell;

/// End-to-end metrics `(name, unit)`, measured with tracing off. Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_sec", "1/s"),
    ("dup_queries_per_sec", "1/s"),
    ("dup_query_latency_hops", "hops"),
    ("dup_query_cost_hops", "hops/query"),
    ("dup_tree_consistent_share", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A metric
/// of a layer the workload does not run through reads 0: each isolated
/// loop is measured by the workloads `layers::LOOPS` names for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.queue.heap_ns_per_op", "ns"),
    ("sim.queue.wheel_ns_per_op", "ns"),
    ("sim.queue.deep_ns_per_op", "ns"),
    ("sim.queue.cancel_ns_per_op", "ns"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.engine.pop_share", "ratio"),
    ("sim.rng.ns_per_draw", "ns"),
    ("sim.rng.sender_stream_ns", "ns"),
    ("workload.exp_ns_per_draw", "ns"),
    ("workload.lomax_ns_per_draw", "ns"),
    ("workload.hop_latency_ns_per_sample", "ns"),
    ("workload.zipf_ns_per_sample.n4096", "ns"),
    ("workload.zipf_ns_per_sample.n65536", "ns"),
    ("overlay.topology.build_ms", "ms"),
    ("overlay.tree.ns_per_hop", "ns"),
    ("overlay.tree.branch_toward_ns", "ns"),
    ("overlay.tree.churn_us_per_op", "us"),
    ("proto.cache.ns_per_lookup", "ns"),
    ("proto.cache.ns_per_install", "ns"),
    ("proto.interest.ns_per_observe", "ns"),
    ("proto.reliable.ns_per_tracked", "ns"),
    ("proto.reliable.retransmits_per_tracked", "ratio"),
    ("proto.reliable.dup_suppressed_per_delivery", "ratio"),
    ("proto.probe.overhead_ratio", "ratio"),
    ("proto.space.slowdown_2shards", "ratio"),
    ("proto.space.cross_shard_ratio", "ratio"),
    ("core.dup.subscribe_us", "us"),
    ("core.dup.push_ns_per_subscriber", "ns"),
    ("core.dup.handler_ns_per_event", "ns"),
    ("core.ensemble.speedup_2shards", "ratio"),
    ("run.ns_per_event.pcx", "ns"),
    ("run.ns_per_event.cup", "ns"),
    ("run.ns_per_event.dup", "ns"),
    ("run.events_per_query.dup", "count"),
    ("run.peak_queue_depth.dup", "count"),
    ("live.codec.encode_ns_per_frame.heartbeat", "ns"),
    ("live.codec.encode_ns_per_frame.deliver", "ns"),
    ("live.codec.encode_ns_per_frame.helloack", "ns"),
    ("live.codec.decode_ns_per_frame.heartbeat", "ns"),
    ("live.codec.decode_ns_per_frame.deliver", "ns"),
    ("live.codec.decode_ns_per_frame.helloack", "ns"),
    ("live.codec.bytes_per_frame.heartbeat", "B"),
    ("live.codec.bytes_per_frame.deliver", "B"),
    ("live.codec.bytes_per_frame.helloack", "B"),
    ("live.codec.share", "ratio"),
    ("live.host.on_frame_ns", "ns"),
    ("live.host.advance_ns", "ns"),
    ("live.host.idle_advance_ns", "ns"),
    ("live.net.frames_per_cluster_sec", "1/s"),
    ("live.net.heartbeat_share", "ratio"),
    ("live.cluster_secs_per_sec", "ratio"),
    ("live.rejoin_virtual_s", "virtual_s"),
    ("live.oracle.polls", "count"),
    ("live.oracle.polls_failed", "count"),
    ("live.detector.poll_ns", "ns"),
    ("live.loopback.frames_per_sec", "1/s"),
    ("live.tcp.send_us_per_frame", "us"),
    ("live.tcp.rtt_us_p50", "us"),
    ("stats.batch_ns_per_record", "ns"),
    ("stats.histogram_ns_per_record", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("layers.unattributed_share", "ratio"),
];

/// Every workload of the binary: the ones `BENCHMARK.json` lists and
/// `sim_space2`, which runs by hand only (see `SPACE` in `sim.rs`).
fn workloads() -> Vec<&'static str> {
    let sims = sim::WORKLOADS.iter().map(|w| w.name);
    sims.chain(["live_mesh"]).collect()
}

/// A timing cell whose MAD/median exceeds this is flagged `NOISY` in the
/// report: noise, not a number.
const NOISY_ABOVE: f64 = 0.05;

/// How long one burst of set-up samples lasts (see [`SetUp`]).
pub const SET_UP_BURST: Duration = Duration::from_millis(150);

/// Repetitions of every isolated layer loop; the median is reported.
pub const LAYER_REPS: usize = 5;

/// How long a run measures and at what size.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall time for the timed repetitions (`--seconds`).
    pub measure: Duration,
    /// Workload size as a share of the recorded one (`--quick` shrinks it).
    pub scale: f64,
}

impl Budget {
    /// Length of one repetition of an isolated layer loop: 200 ms at the
    /// `run_seconds` of `BENCHMARK.json`.
    pub fn layer_rep(&self) -> Duration {
        self.measure / 75
    }
}

/// Runs `round` at least `at_least` times, then again for as long as one
/// more round like the last would still end inside `budget`.
pub fn repeat_within(budget: Duration, at_least: usize, mut round: impl FnMut()) {
    let started = Instant::now();
    for done in 1.. {
        let round_started = Instant::now();
        round();
        if done >= at_least && started.elapsed() + round_started.elapsed() > budget {
            break;
        }
    }
}

/// Position of `class` in `MsgClass::ALL`: the index of per-class counters.
pub fn class_index(class: dup_proto::MsgClass) -> usize {
    dup_proto::MsgClass::ALL
        .iter()
        .position(|k| *k == class)
        .expect("MsgClass::ALL is exhaustive")
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    cells: Vec<(&'static str, Cell)>,
    /// Operations checked.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    notes: Vec<String>,
    /// The traced run's spans and model, written out at exit.
    pub trace: Option<Value>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records the timed repetitions behind a metric, for the report's
    /// `cell` lines and their `NOISY` flag.
    pub fn cell(&mut self, name: &'static str, samples: &[f64]) {
        self.cells.push((name, Cell::of(samples)));
    }

    /// Reports `setup_s` from the samples gathered over the run.
    pub fn set_up(&mut self, sampler: &SetUp<'_>) {
        self.cell("setup_s", &sampler.samples);
        self.set("setup_s", stats::median(&sampler.samples));
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Samples of a workload's set-up time, taken in bursts before, between
/// and after the timed rounds: the hosts this was recorded on have phases,
/// tens of seconds long, in which touching fresh memory costs two or three
/// times as much, and a run's set-up time should not be the luck of its
/// first half second. A sample is the mean of as many consecutive set-ups
/// as take 5 ms together, so that a 50 µs set-up is a steady number too.
pub struct SetUp<'a> {
    once: Box<dyn FnMut() -> Duration + 'a>,
    per_sample: u32,
    samples: Vec<f64>,
}

impl<'a> SetUp<'a> {
    /// Sizes a sample from one call of `once`, which sets up and returns
    /// how long that took.
    pub fn new(mut once: impl FnMut() -> Duration + 'a) -> Self {
        let first = once().as_secs_f64();
        SetUp {
            once: Box::new(once),
            per_sample: ((0.005 / first.max(1e-9)).ceil() as u32).clamp(1, 1000),
            samples: Vec::new(),
        }
    }

    /// Takes samples for `budget`, and at least `at_least` of them.
    pub fn burst(&mut self, at_least: usize, budget: Duration) {
        let started = Instant::now();
        let mut taken = 0;
        while taken < at_least || started.elapsed() < budget {
            let total: Duration = (0..self.per_sample).map(|_| (self.once)()).sum();
            self.samples
                .push(total.as_secs_f64() / f64::from(self.per_sample));
            taken += 1;
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      benchmark all OUT.json [--runs K] [--seed N] [--seconds S] [--quick]\n\
         \x20      benchmark compare A.json B.json\n\
         workloads: {}",
        workloads().join(", ")
    );
    std::process::exit(2);
}

/// Flag values by name; `--trace` and `--quick` may stand alone.
fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            eprintln!("unexpected argument `{arg}`");
            usage();
        };
        let bare = matches!(name, "trace" | "quick")
            && it.peek().is_none_or(|next| next.starts_with("--"));
        let value = if bare {
            "1".to_string()
        } else {
            it.next().cloned().unwrap_or_else(|| usage())
        };
        flags.insert(name.to_string(), value);
    }
    flags
}

fn parse<T: std::str::FromStr>(flags: &BTreeMap<String, String>, name: &str, default: T) -> T {
    match flags.get(name) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("bad value `{raw}` for --{name}");
            usage()
        }),
    }
}

fn parse_run_args(args: &[String]) -> Args {
    let flags = parse_flags(args);
    let on = |name| parse::<u8>(&flags, name, 0) != 0;
    let args = Args {
        workload: flags.get("workload").cloned().unwrap_or_else(|| usage()),
        seed: parse(&flags, "seed", 42),
        seconds: parse(&flags, "seconds", 15.0),
        trace: on("trace"),
        quick: on("quick"),
    };
    if !workloads().contains(&args.workload.as_str())
        || !args.seconds.is_finite()
        || args.seconds <= 0.0
    {
        usage();
    }
    args
}

/// Where the benchmark may write: the build directory the driver names, or
/// the package's own (wherever it is run from) when run by hand.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target.join("perfbench")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on, for the report header and the
/// result files.
fn header(seed: u64) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    json!({
        "cores": cores,
        "rustc": command_line("rustc", &["-V"]),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "seed": seed,
        "commit": command_line("git", &["rev-parse", "--short", "HEAD"])
    })
}

/// Peak resident memory of one DUP run of the workload in a process of
/// its own. The benchmark's own process builds and drops a dozen worlds,
/// and what the allocator keeps of them varies by a third from run to run;
/// a fresh process allocates in one fixed order, and is what a user of the
/// program sees.
fn child_peak_rss_mib(args: &Args) -> f64 {
    let mut child = Command::new(std::env::current_exe().expect("own path"));
    child
        .args(["rss-probe", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()]);
    if args.quick {
        child.arg("--quick");
    }
    let out = child.output().expect("rss probe runs");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("rss probe prints a number")
}

/// The child side of [`child_peak_rss_mib`].
fn rss_probe(args: &Args) -> ExitCode {
    let budget = args.budget();
    match sim::WORKLOADS.iter().find(|w| w.name == args.workload) {
        Some(w) => sim::run_dup_once(w, args.seed, budget.scale),
        None => live::run_dup_once(&budget),
    }
    println!("{}", peak_rss_mib());
    ExitCode::SUCCESS
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn run_once(args: &Args, budget: &Budget) -> Outcome {
    let sim = sim::WORKLOADS.iter().find(|w| w.name == args.workload);
    if !args.trace {
        let mut out = match sim {
            Some(w) => sim::run_timed(w, args.seed, budget),
            None => live::run_timed(budget),
        };
        out.set("peak_rss_mib", child_peak_rss_mib(args));
        return out;
    }
    let tmp = scratch_dir();
    std::fs::create_dir_all(&tmp).expect("scratch directory inside the checkout");
    let layer_costs = layers::measure(&args.workload, budget.layer_rep(), &tmp);
    let mut out = match sim {
        Some(w) => sim::run_traced(w, args.seed, budget, &layer_costs),
        None => live::run_traced(budget),
    };
    for (name, value) in layer_costs {
        out.set(name, value);
    }
    out
}

fn print_report(args: &Args, out: &Outcome, table: &[(&str, &str)]) {
    println!("# {} {}", args.workload, header(args.seed));
    for (name, cell) in &out.cells {
        println!(
            "cell {name:<28} median {:<14.6e} q1 {:<14.6e} q3 {:<14.6e} min {:<14.6e} max {:<14.6e} MAD/median {:.4} n {}{}",
            cell.median,
            cell.q1,
            cell.q3,
            cell.range.0,
            cell.range.1,
            cell.mad_rel,
            cell.n,
            if cell.mad_rel > NOISY_ABOVE {
                "  NOISY"
            } else {
                ""
            }
        );
    }
    for (name, unit) in table {
        println!("{name:<46} {:>16.6} {unit}", out.values[name]);
    }
    for note in &out.notes {
        println!("note {note}");
    }
    println!(
        "ops_attempted {} ops_failed {}",
        out.attempted,
        out.failures.len()
    );
    for failure in &out.failures {
        println!("FAILED {failure}");
    }
}

impl Args {
    fn budget(&self) -> Budget {
        Budget {
            measure: Duration::from_secs_f64(self.seconds),
            scale: if self.quick { 1.0 / 32.0 } else { 1.0 },
        }
    }
}

fn run_workload(args: &Args) -> ExitCode {
    let budget = args.budget();
    let started = Instant::now();
    let mut out = run_once(args, &budget);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in table {
        // A layer the workload does not run through reads 0; an end-to-end
        // metric no workload may lack.
        if args.trace {
            out.values.entry(name).or_insert(0.0);
        }
        assert!(out.values.contains_key(name), "metric {name} not measured");
    }
    print_report(args, &out, table);
    if let Some(trace) = &out.trace {
        let path = scratch_dir().join(format!("trace_{}.json", args.workload));
        let text = serde_json::to_string_pretty(trace).expect("trace serializes");
        match std::fs::write(&path, text) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
        }
    }
    println!("wall {:.1} s", started.elapsed().as_secs_f64());

    let metrics: Vec<(String, Value)> = table
        .iter()
        .map(|(name, unit)| {
            (
                name.to_string(),
                json!({ "value": out.values[name], "unit": unit }),
            )
        })
        .collect();
    let result = json!({
        "correct": out.failures.is_empty(),
        "attempted": out.attempted,
        "failed": out.failures.len(),
        "metrics": Value::Map(metrics)
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );

    ExitCode::SUCCESS
}

/// Runs every workload `--runs` times in each mode, one child process per
/// run, and writes the results where `compare` reads them.
fn run_all(args: &[String]) -> ExitCode {
    let Some((path, rest)) = args.split_first() else {
        usage()
    };
    let flags = parse_flags(rest);
    let runs: usize = parse(&flags, "runs", 3);
    let seed: u64 = parse(&flags, "seed", 42);
    let seconds: f64 = parse(&flags, "seconds", 15.0);
    let exe = std::env::current_exe().expect("own path");
    let mut results = Vec::new();
    for workload in workloads() {
        for trace in [0, 1] {
            // The layer table needs one traced run; spreads need several
            // timed ones.
            for run in 0..if trace == 0 { runs } else { 1 } {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()]);
                if flags.contains_key("quick") {
                    child.arg("--quick");
                }
                let output = child.output().expect("child benchmark runs");
                let stdout = String::from_utf8_lossy(&output.stdout);
                let last = stdout.lines().last().unwrap_or_default();
                let Ok(result) = serde_json::from_str::<Value>(last) else {
                    eprintln!("{workload} trace {trace} run {run} printed no result:\n{stdout}");
                    return ExitCode::FAILURE;
                };
                eprintln!("{workload} trace {trace} run {run}: {last}");
                results.push(json!({
                    "workload": workload,
                    "trace": trace,
                    "result": result
                }));
            }
        }
    }
    let doc = json!({ "header": header(seed), "runs": results });
    let text = serde_json::to_string_pretty(&doc).expect("results serialize");
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("all") => run_all(&args[1..]),
        Some("rss-probe") => rss_probe(&parse_run_args(&args[1..])),
        Some(_) => run_workload(&parse_run_args(&args)),
        None => usage(),
    }
}
