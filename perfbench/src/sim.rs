//! The four simulator workloads.
//!
//! Every run goes through the public entry point the harness and the
//! examples use — [`run_simulation_kind`] over whatever
//! [`RunConfig::builder`] yields — so a change of default (queue backend,
//! stop rule, …) is measured, not bypassed.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dup_core::{
    check_tree_invariants, run_simulation_kind, run_simulation_sharded, DupScheme, SchemeKind,
};
use dup_proto::{
    build_topology, ChurnConfig, CupScheme, FaultConfig, LoadProbe, PcxScheme, ProbeEvent,
    ProbeSink, QueueBackendConfig, ReliabilityConfig, ReliabilityStats, RunConfig, RunReport,
    Runner, Scheme,
};
use dup_sim::{Probe, SimTime};
use serde_json::{json, Value};

use crate::layers::Layers;
use crate::stats::median;
use crate::{class_index, repeat_within, Budget, Outcome, SetUp, SET_UP_BURST};

const ALL: &[SchemeKind] = &SchemeKind::ALL;
const DUP_ONLY: &[SchemeKind] = &[SchemeKind::Dup];

/// One simulator workload: a configuration and the schemes run under it.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Schemes of one round, in run order.
    pub schemes: &'static [SchemeKind],
    /// Lease periods of heal traffic the untimed invariant pass grants
    /// before the oracle judges the DUP tree (0 for fault-free runs).
    heal_phases: usize,
    /// Interleaved untraced/traced rounds a traced run makes at least:
    /// five where `proto.probe.overhead_ratio` rides on them, fewer where
    /// one run takes three seconds or more.
    trace_rounds: usize,
}

/// The simulator workloads; `BENCHMARK.json` lists all but [`SPACE`].
pub const WORKLOADS: [SimWorkload; 4] = [
    SimWorkload {
        name: "sim_hot",
        schemes: ALL,
        heal_phases: 0,
        trace_rounds: 5,
    },
    SimWorkload {
        name: "sim_deep",
        schemes: ALL,
        heal_phases: 0,
        trace_rounds: 3,
    },
    SimWorkload {
        name: "sim_lossy",
        schemes: DUP_ONLY,
        heal_phases: 8,
        trace_rounds: 3,
    },
    SimWorkload {
        name: "sim_space2",
        schemes: DUP_ONLY,
        heal_phases: 0,
        trace_rounds: 2,
    },
];

/// The space-parallel workload. It runs by hand, not from `BENCHMARK.json`:
/// each of its windows starts two threads, and what a thread costs on the
/// recording VM drifts by a factor of two over minutes, so its throughput
/// cannot meet the steadiness the driver asks of a listed workload. The
/// traced run of `sim_deep` reports its layer numbers instead.
const SPACE: &SimWorkload = &WORKLOADS[3];

impl SimWorkload {
    /// The run configuration at `scale` times the measured window
    /// (`1.0` = the size recorded in the README).
    pub fn config(&self, seed: u64, scale: f64) -> RunConfig {
        let b = RunConfig::builder(seed);
        match self.name {
            // Table I defaults at ten queries a second: four events in five
            // are arrivals answered from the local cache.
            "sim_hot" => b.lambda(10.0).duration_secs(900_000.0 * scale),
            // Sixteen times the nodes at a tenth of the rate: every query
            // walks the tree and the working set leaves the CPU caches.
            "sim_deep" => b.nodes(65_536).duration_secs(1_000_000.0 * scale),
            "sim_lossy" => b
                .nodes(1024)
                .lambda(4.0)
                .duration_secs(400_000.0 * scale)
                .reliability(ReliabilityConfig {
                    enabled: true,
                    lease_every_secs: 150.0,
                    ..ReliabilityConfig::default()
                })
                .faults(FaultConfig {
                    drop_p: 0.10,
                    duplicate_p: 0.05,
                    delay_p: 0.05,
                    max_extra_delay_secs: 10.0,
                    ..FaultConfig::default()
                })
                .churn(Some(ChurnConfig::balanced(0.02))),
            // At 85 µs an event the warm-up period is a fifth of the run,
            // so it shrinks with the window.
            "sim_space2" => b
                .nodes(10_240)
                .warmup_secs(3600.0 * scale)
                .duration_secs(14_400.0 * scale)
                .space_shards(2),
            other => unreachable!("no sim workload named {other}"),
        }
        .build()
    }

    fn is_space(&self) -> bool {
        self.name == "sim_space2"
    }

    fn is_hot(&self) -> bool {
        self.name == "sim_hot"
    }
}

/// The counts that must repeat exactly between repetitions of one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    events: u64,
    queries: u64,
    latency_bits: u64,
    cost_bits: u64,
}

impl Fingerprint {
    fn of(r: &RunReport) -> Self {
        Fingerprint {
            events: r.events,
            queries: r.queries,
            latency_bits: r.latency_hops.mean.to_bits(),
            cost_bits: r.avg_query_cost.to_bits(),
        }
    }
}

/// One timed call of the public entry point.
struct TimedRun {
    wall_secs: f64,
    report: RunReport,
}

fn timed(cfg: &RunConfig, kind: SchemeKind, probe: ProbeSink) -> TimedRun {
    let started = Instant::now();
    let report = run_simulation_kind(cfg, kind, probe);
    TimedRun {
        wall_secs: started.elapsed().as_secs_f64(),
        report,
    }
}

fn time_runner<S: Scheme>(cfg: &RunConfig, scheme: S) -> Duration {
    let cfg = cfg.clone();
    let started = Instant::now();
    let runner = Runner::with_probe(cfg, scheme, ProbeSink::disabled());
    let took = started.elapsed();
    // Dropping a runner is not set-up.
    drop(runner);
    took
}

/// Time before the first event can be processed: building a [`Runner`]
/// for each scheme of the round (its tree, rank map and dense node
/// state); for the space-parallel workload, whose runners are built inside
/// the run call, one [`build_topology`].
fn setup_once(w: &SimWorkload, cfg: &RunConfig) -> Duration {
    if w.is_space() {
        let started = Instant::now();
        let tree = build_topology(cfg);
        let took = started.elapsed();
        drop(tree);
        return took;
    }
    w.schemes
        .iter()
        .map(|kind| match kind {
            SchemeKind::Pcx => time_runner(cfg, PcxScheme::new()),
            SchemeKind::Cup => time_runner(cfg, CupScheme::new()),
            SchemeKind::Dup => time_runner(cfg, DupScheme::new()),
        })
        .sum()
}

/// The untimed invariant pass: a DUP run settled to quiescence, healed for
/// the workload's lease periods, and judged by the NCA-closure oracle.
/// Returns the verdict and the reliability layer's exact counters.
fn settled_pass(w: &SimWorkload, cfg: RunConfig) -> (Result<(), String>, ReliabilityStats, u64) {
    let mut cfg = cfg;
    // The oracle reads one merged scheme; the sequential runner is the
    // reference the space-parallel run is checked against anyway.
    cfg.space_shards = 1;
    let settled = Runner::with_probe(cfg, DupScheme::new(), ProbeSink::disabled())
        .run_settled(w.heal_phases, |scheme, ctx, _phase| {
            scheme.on_lease_tick(ctx)
        });
    let verdict = check_tree_invariants(&settled.scheme, &settled.world.tree)
        .map_err(|report| format!("{report:?}").chars().take(400).collect());
    let maintenance_hops = settled.report.push_hops + settled.report.control_hops;
    (verdict, settled.world.reliable.stats(), maintenance_hops)
}

/// One untimed DUP run, for the memory probe.
pub fn run_dup_once(w: &SimWorkload, seed: u64, scale: f64) {
    run_simulation_kind(
        &w.config(seed, scale),
        SchemeKind::Dup,
        ProbeSink::disabled(),
    );
}

/// Runs the per-run checks shared by the timed and the traced mode, and
/// records one attempted operation per run.
fn check_run(
    out: &mut Outcome,
    w: &SimWorkload,
    kind: SchemeKind,
    run: &RunReport,
    first: &RunReport,
    pcx: Option<&RunReport>,
) {
    out.attempted += 1;
    let mut fail = |why: String| out.failures.push(format!("{} {kind}: {why}", w.name));
    if Fingerprint::of(run) != Fingerprint::of(first) {
        fail(format!(
            "repetitions differ: {:?} vs {:?}",
            Fingerprint::of(run),
            Fingerprint::of(first)
        ));
    }
    if kind == SchemeKind::Pcx && run.push_hops + run.control_hops != 0 {
        fail(format!(
            "PCX charged {} push and {} control hops",
            run.push_hops, run.control_hops
        ));
    }
    if let (SchemeKind::Dup, Some(pcx)) = (kind, pcx) {
        if run.latency_hops.mean > pcx.latency_hops.mean {
            fail(format!(
                "DUP latency {} exceeds PCX latency {}",
                run.latency_hops.mean, pcx.latency_hops.mean
            ));
        }
    }
}

/// What the untimed checks of one process learned.
struct Untimed {
    /// Whether the settled DUP tree passed the oracle.
    tree_consistent: bool,
    /// Exact counters of the settled pass's reliability layer.
    reliable: ReliabilityStats,
    /// Push + control hops of the settled pass.
    maintenance_hops: u64,
    /// Wall seconds of the one-shard twin (space-parallel workload only).
    twin_wall_secs: Option<f64>,
}

/// Runs the space-parallel workload's configuration on one shard and checks
/// that `sharded`, its run on two, is the same run. Returns the twin's wall
/// seconds.
fn check_twin(out: &mut Outcome, seed: u64, sharded: &RunReport, scale: f64) -> f64 {
    let mut twin_cfg = SPACE.config(seed, scale);
    twin_cfg.space_shards = 1;
    let twin = timed(&twin_cfg, SchemeKind::Dup, ProbeSink::disabled());
    out.attempted += 1;
    if Fingerprint::of(&twin.report) != Fingerprint::of(sharded) {
        out.failures.push(format!(
            "{} differs from its one-shard twin: {:?} vs {:?}",
            SPACE.name,
            Fingerprint::of(sharded),
            Fingerprint::of(&twin.report)
        ));
    }
    twin.wall_secs
}

/// The untimed checks of one process: the settled invariant pass and, for
/// the space-parallel workload, equality with the one-shard twin.
fn check_workload(
    out: &mut Outcome,
    w: &SimWorkload,
    seed: u64,
    dup: &RunReport,
    scale: f64,
) -> Untimed {
    // The invariant pass only has to reach a populated DUP tree, not to be
    // timed: an eighth of the window keeps it cheap.
    let (verdict, reliable, maintenance_hops) = settled_pass(w, w.config(seed, scale / 8.0));
    out.attempted += 1;
    let tree_consistent = verdict.is_ok();
    if let Err(why) = verdict {
        out.failures.push(format!(
            "{} settled DUP tree fails the oracle: {why}",
            w.name
        ));
    }
    let twin_wall_secs = w.is_space().then(|| check_twin(out, seed, dup, scale));
    Untimed {
        tree_consistent,
        reliable,
        maintenance_hops,
        twin_wall_secs,
    }
}

/// Timed mode: set-up, a shrunk warm-up round, then whole rounds of the
/// workload's schemes (interleaved, so drift hits all of them) until the
/// time budget is spent.
pub fn run_timed(w: &SimWorkload, seed: u64, budget: &Budget) -> Outcome {
    let mut out = Outcome::default();
    let scale = budget.scale;
    let cfg = w.config(seed, scale);

    let mut set_up = SetUp::new(|| setup_once(w, &cfg));
    set_up.burst(3, SET_UP_BURST);

    let warm = w.config(seed, scale / 8.0);
    for &kind in w.schemes {
        run_simulation_kind(&warm, kind, ProbeSink::disabled());
    }

    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); w.schemes.len()];
    let mut firsts: Vec<Option<RunReport>> = vec![None; w.schemes.len()];
    let mut round_rates = Vec::new();
    let pcx_at = w.schemes.iter().position(|&k| k == SchemeKind::Pcx);
    repeat_within(budget.measure, 1, || {
        let (mut queries, mut wall) = (0u64, 0.0);
        for (i, &kind) in w.schemes.iter().enumerate() {
            let run = timed(&cfg, kind, ProbeSink::disabled());
            queries += run.report.queries;
            wall += run.wall_secs;
            walls[i].push(run.wall_secs);
            if firsts[i].is_none() {
                firsts[i] = Some(run.report.clone());
            }
            let first = firsts[i].as_ref().expect("just stored");
            let pcx = pcx_at.and_then(|p| firsts[p].as_ref());
            check_run(&mut out, w, kind, &run.report, first, pcx);
        }
        round_rates.push(queries as f64 / wall);
        set_up.burst(3, SET_UP_BURST);
    });
    out.set_up(&set_up);

    let dup_at = w.schemes.len() - 1;
    let dup = firsts[dup_at].clone().expect("every round ends with DUP");
    let dup_rates: Vec<f64> = walls[dup_at]
        .iter()
        .map(|wall| dup.queries as f64 / wall)
        .collect();
    out.cell("queries_per_sec", &round_rates);
    out.cell("dup_queries_per_sec", &dup_rates);
    out.set("queries_per_sec", median(&round_rates));
    out.set("dup_queries_per_sec", median(&dup_rates));
    out.set("dup_query_latency_hops", dup.latency_hops.mean);
    out.set("dup_query_cost_hops", dup.avg_query_cost);
    for (i, &kind) in w.schemes.iter().enumerate() {
        let r = firsts[i].as_ref().expect("every scheme ran");
        out.note(format!(
            "{kind}: {} events, {} queries, latency {:.5} hops, cost {:.5} hops/query, \
             peak queue depth {}, {:.1} ns/event",
            r.events,
            r.queries,
            r.latency_hops.mean,
            r.avg_query_cost,
            r.peak_queue_depth,
            median(&walls[i]) * 1e9 / r.events as f64
        ));
    }
    let untimed = check_workload(&mut out, w, seed, &dup, scale);
    // A simulator run has one moment at which the whole DUP tree can be
    // judged: settled, after the workload's heal periods.
    out.set(
        "dup_tree_consistent_share",
        f64::from(u8::from(untimed.tree_consistent)),
    );
    out
}

/// Exact counts of what a run did, gathered from the program's own probe
/// stream. Kept local to the probe and published once, on the flush the
/// runner issues when the run ends.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    queries: u64,
    sends: [u64; 4],
    installs: u64,
}

struct CountingProbe {
    local: Counts,
    shared: Arc<Mutex<Counts>>,
}

impl Probe<ProbeEvent> for CountingProbe {
    #[inline]
    fn record(&mut self, _at: SimTime, event: &ProbeEvent) {
        let c = &mut self.local;
        match event {
            ProbeEvent::QueryIssued { .. } => c.queries += 1,
            ProbeEvent::MsgSent { class, .. } => c.sends[class_index(*class)] += 1,
            ProbeEvent::CacheInsert { .. } => c.installs += 1,
            _ => {}
        }
    }

    fn flush(&mut self) {
        *self.shared.lock().expect("probe counts poisoned") = self.local;
    }
}

/// Splits a traced DUP run's wall time over the layers: exact counts from
/// the run times unit costs from the isolated loops. Only calls whose
/// number is certain are modelled — a pop and a push per event; a variate,
/// a Zipf draw, a cache lookup, an interest observation and two statistics
/// records per query; a latency draw per send; a parent step, a lookup and
/// an observation per request hop; an install per cache insert; one
/// tracked life per tracked message — so scheme handlers, the runner's own
/// glue and every memory effect of running the layers together land in
/// the unattributed share. Returns the model as JSON and that share.
fn layer_model(
    cfg: &RunConfig,
    run: &TimedRun,
    counts: &Counts,
    tracked: f64,
    tracing_secs: f64,
    layers: &Layers,
) -> (Value, f64) {
    // A loop this workload's traced run does not measure multiplies a
    // count of zero (no tracked message without the reliability layer).
    let l = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let events = run.report.events as f64;
    let queries = counts.queries as f64;
    let requests = counts.sends[0] as f64;
    let sends = counts.sends.iter().sum::<u64>() as f64;
    let lookups = queries + requests;

    let shallow_queue = match cfg.queue.backend {
        QueueBackendConfig::TimerWheel => l("sim.queue.wheel_ns_per_op"),
        _ => l("sim.queue.heap_ns_per_op"),
    };
    // A workload whose queue runs deep measures the deep loop too, and each
    // measures the Zipf table nearest its own size.
    let queue = match layers.get("sim.queue.deep_ns_per_op") {
        Some(deep) if run.report.peak_queue_depth >= 512 => *deep,
        _ => shallow_queue,
    };
    let zipf = layers
        .get("workload.zipf_ns_per_sample.n65536")
        .or(layers.get("workload.zipf_ns_per_sample.n4096"))
        .copied()
        .unwrap_or(0.0);
    let modelled: Vec<(&str, f64)> = vec![
        ("sim.queue", events * queue),
        (
            "sim.engine",
            events * (l("sim.engine.ns_per_event") - shallow_queue).max(0.0),
        ),
        (
            "sim.rng",
            sends * (l("sim.rng.sender_stream_ns") - l("sim.rng.ns_per_draw")).max(0.0),
        ),
        (
            "workload",
            queries * (l("workload.exp_ns_per_draw") + zipf)
                + sends * l("workload.hop_latency_ns_per_sample"),
        ),
        ("overlay.tree", requests * l("overlay.tree.ns_per_hop")),
        (
            "proto.cache",
            lookups * l("proto.cache.ns_per_lookup")
                + counts.installs as f64 * l("proto.cache.ns_per_install"),
        ),
        (
            "proto.interest",
            lookups * l("proto.interest.ns_per_observe"),
        ),
        (
            "proto.reliable",
            tracked * l("proto.reliable.ns_per_tracked"),
        ),
        (
            "stats",
            queries * (l("stats.batch_ns_per_record") + l("stats.histogram_ns_per_record")),
        ),
        ("bench.tracing", tracing_secs.max(0.0) * 1e9),
    ];
    let wall_ns = run.wall_secs * 1e9;
    let explained: f64 = modelled.iter().map(|(_, ns)| ns).sum();
    let rows: Vec<Value> = modelled
        .iter()
        .map(|(layer, ns)| json!({ "layer": layer, "modelled_ns": ns, "share": ns / wall_ns }))
        .collect();
    let unattributed = 1.0 - explained / wall_ns;
    let model = json!({
        "run_span_ns": wall_ns,
        "events": run.report.events,
        "queries_issued": counts.queries,
        "sends_by_class": counts.sends.to_vec(),
        "cache_inserts": counts.installs,
        "tracked_messages": tracked,
        "layers": rows,
        "unattributed_share": unattributed
    });
    (model, unattributed)
}

/// The two-replication ensemble of `sim_hot` on worker threads against the
/// same two replications run back to back, three alternating pairs of runs
/// of a second or more, as a ratio of medians. Measured beside the
/// space-parallel layer: where this reads 1, the machine had no second
/// core to give, and that layer's numbers say so too.
fn ensemble_speedup(seed: u64, scale: f64) -> f64 {
    let mut cfg = WORKLOADS[0].config(seed, scale * 0.7);
    cfg.shards = 2;
    let time = |threaded| {
        let started = Instant::now();
        run_simulation_sharded(&cfg, SchemeKind::Dup, threaded);
        started.elapsed().as_secs_f64()
    };
    let (mut sequential, mut threaded) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        threaded.push(time(true));
        sequential.push(time(false));
    }
    median(&sequential) / median(&threaded)
}

/// Rounds of a traced run that also run the workload's baseline schemes.
const BASELINE_ROUNDS: usize = 3;

/// Traced mode: rounds of one untraced and one traced DUP run of the
/// workload, the first [`BASELINE_ROUNDS`] of them after an untraced run of
/// each baseline scheme it has. The traced run records `setup`, `run` and
/// `report` spans around the one public call, turns on the program's own
/// engine profile and attaches a counting probe; layer times are modelled
/// as count × unit cost. On `sim_hot` every round ends with a run under the
/// program's own `LoadProbe` and engine profile: the observability tax.
pub fn run_traced(w: &SimWorkload, seed: u64, budget: &Budget, layers: &Layers) -> Outcome {
    let mut out = Outcome::default();
    let scale = budget.scale;
    let cfg = w.config(seed, scale);
    let mut traced_cfg = cfg.clone();
    traced_cfg.probe.profile_engine = true;
    let nodes = cfg.topology.node_count();

    let span_epoch = Instant::now();
    let mut spans: Vec<Value> = Vec::new();
    let mut span = |name: &str, rep: usize, from: Instant, to: Instant| {
        spans.push(json!({
            "name": name,
            "rep": rep,
            "start_ns": from.duration_since(span_epoch).as_nanos() as u64,
            "end_ns": to.duration_since(span_epoch).as_nanos() as u64
        }));
    };

    // Untraced PCX and CUP runs, for the per-event rows and the handler
    // cost; DUP untraced, traced and (sim_hot) observed.
    let mut baselines: [Vec<TimedRun>; 2] = [vec![], vec![]];
    let (mut plain, mut traced): (Vec<TimedRun>, Vec<(TimedRun, Counts)>) = (vec![], vec![]);
    let mut observed_walls: Vec<f64> = Vec::new();
    repeat_within(budget.measure, w.trace_rounds, || {
        let rep = plain.len();
        if rep < BASELINE_ROUNDS {
            for (slot, kind) in [SchemeKind::Pcx, SchemeKind::Cup].into_iter().enumerate() {
                if w.schemes.contains(&kind) {
                    baselines[slot].push(timed(&cfg, kind, ProbeSink::disabled()));
                }
            }
        }
        plain.push(timed(&cfg, SchemeKind::Dup, ProbeSink::disabled()));

        let shared = Arc::new(Mutex::new(Counts::default()));
        let t0 = Instant::now();
        let probe = ProbeSink::attach(CountingProbe {
            local: Counts::default(),
            shared: Arc::clone(&shared),
        });
        let t1 = Instant::now();
        let run = timed(&traced_cfg, SchemeKind::Dup, probe);
        let t2 = Instant::now();
        let counts = *shared.lock().expect("probe counts poisoned");
        let t3 = Instant::now();
        span("setup", rep, t0, t1);
        span("run", rep, t1, t2);
        span("report", rep, t2, t3);
        traced.push((run, counts));

        if w.is_hot() {
            let probe = ProbeSink::attach(LoadProbe::new(nodes, 64));
            observed_walls.push(timed(&traced_cfg, SchemeKind::Dup, probe).wall_secs);
        }
    });

    for (runs, kind) in baselines.iter().zip([SchemeKind::Pcx, SchemeKind::Cup]) {
        for run in runs {
            check_run(&mut out, w, kind, &run.report, &runs[0].report, None);
        }
    }
    let pcx = baselines[0].first().map(|r| &r.report);
    let first = plain[0].report.clone();
    for run in plain.iter().chain(traced.iter().map(|(run, _)| run)) {
        // A traced run must be the same run: tracing observes, never steers.
        check_run(&mut out, w, SchemeKind::Dup, &run.report, &first, pcx);
    }

    let median_wall = |runs: &[TimedRun]| {
        (!runs.is_empty()).then(|| median(&runs.iter().map(|r| r.wall_secs).collect::<Vec<_>>()))
    };
    let ns_per_event = |runs: &[TimedRun]| {
        median_wall(runs).map_or(0.0, |wall| wall * 1e9 / runs[0].report.events as f64)
    };
    let plain_wall = median_wall(&plain).expect("at least one round");
    let traced_wall = median(&traced.iter().map(|(r, _)| r.wall_secs).collect::<Vec<_>>());
    let dup_ns = ns_per_event(&plain);
    out.set("run.ns_per_event.pcx", ns_per_event(&baselines[0]));
    out.set("run.ns_per_event.cup", ns_per_event(&baselines[1]));
    out.set("run.ns_per_event.dup", dup_ns);
    out.set(
        "core.dup.handler_ns_per_event",
        if baselines[0].is_empty() {
            0.0
        } else {
            dup_ns - ns_per_event(&baselines[0])
        },
    );
    if !observed_walls.is_empty() {
        out.set(
            "proto.probe.overhead_ratio",
            median(&observed_walls) / plain_wall,
        );
    }
    out.set(
        "run.events_per_query.dup",
        first.events as f64 / first.queries as f64,
    );
    out.set("run.peak_queue_depth.dup", first.peak_queue_depth as f64);
    out.set("trace.overhead_ratio", traced_wall / plain_wall);

    // The reliability layer's wasted-work ratios are exact counts from the
    // (untimed, shrunk) settled pass, which also checks the invariants.
    let untimed = check_workload(&mut out, w, seed, &first, scale);
    let rel = untimed.reliable;
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.set(
        "proto.reliable.retransmits_per_tracked",
        per(rel.retransmits, rel.tracked),
    );
    out.set(
        "proto.reliable.dup_suppressed_per_delivery",
        per(
            rel.duplicates_suppressed,
            rel.acked + rel.duplicates_suppressed,
        ),
    );

    let (last, counts) = traced.last().expect("at least one traced run");
    let profile = last.report.engine_profile.as_ref();
    out.set(
        "sim.engine.pop_share",
        profile.map_or(0.0, |p| per_f(p.pop_secs, p.pop_secs + p.dispatch_secs)),
    );
    let hops = (counts.sends[2] + counts.sends[3]) as f64;
    let tracked = hops * per(rel.tracked, untimed.maintenance_hops);
    let tracing_secs = last.wall_secs - plain_wall;
    let (model, unattributed) = layer_model(&cfg, last, counts, tracked, tracing_secs, layers);
    out.set("layers.unattributed_share", unattributed);

    // The space-parallel layer: this workload's own runs and twin when it
    // is that workload; `sim_deep` makes one run of it and its twin, so that
    // the numbers of a workload `BENCHMARK.json` cannot list (see `SPACE`)
    // still reach the layer table.
    let space = if w.is_space() {
        let cross = first.cross_shard_message_ratio;
        untimed.twin_wall_secs.map(|twin| (plain_wall, cross, twin))
    } else if w.name == "sim_deep" {
        let probe = ProbeSink::disabled();
        let sharded = timed(&SPACE.config(seed, scale), SchemeKind::Dup, probe);
        let twin = check_twin(&mut out, seed, &sharded.report, scale);
        let cross = sharded.report.cross_shard_message_ratio;
        Some((sharded.wall_secs, cross, twin))
    } else {
        None
    };
    if let Some((sharded_wall, cross_shard_ratio, twin_wall)) = space {
        out.set("proto.space.slowdown_2shards", sharded_wall / twin_wall);
        out.set("proto.space.cross_shard_ratio", cross_shard_ratio);
        out.set(
            "core.ensemble.speedup_2shards",
            ensemble_speedup(seed, scale),
        );
    }

    out.trace = Some(json!({
        "workload": w.name,
        "seed": seed,
        "spans": spans,
        "engine_profile": profile.map(|p| json!({
            "events": p.events,
            "timed_events": p.timed_events,
            "pop_secs": p.pop_secs,
            "dispatch_secs": p.dispatch_secs,
            "probe_secs": p.probe_secs
        })),
        "model": model
    }));
    out
}

fn per_f(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
