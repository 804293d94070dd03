//! The `live_mesh` workload: the code that ships over sockets, without
//! sockets or threads.
//!
//! 64 [`NodeHost`]s on a complete 4-ary tree run in one thread on virtual
//! time. The benchmark owns the [`FrameNet`]: every frame a host sends is
//! encoded with [`write_frame`] onto a byte stream and decoded with
//! [`read_frame`] on delivery, exactly as it would cross a TCP connection,
//! so host dispatch, the failure detector, the reliability layer and the
//! JSON-in-a-length-prefix codec are all on the measured path.
//!
//! The workload has no random input — the tree is complete, the script
//! fixed, and a host's streams derive from its node id — so `--seed` does
//! not change it and its simulated counts are the same on every run.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use dup_core::DupScheme;
use dup_live::{
    oracle_check, read_frame, write_frame, Frame, FrameNet, LiveConfig, LiveScheme, NodeHost,
};
use dup_overlay::NodeId;
use dup_sim::{SimDuration, SimTime};
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::json;

use crate::spans::Tracer;
use crate::stats::median;
use crate::{class_index, repeat_within, Budget, Outcome, SetUp, SET_UP_BURST};

/// Span names of the live loop, indexed by the constants below.
pub const SPAN_NAMES: &[&str] = &[
    "bench.quantum",
    "live.host.on_frame",
    "live.host.advance",
    "live.host.idle_advance",
    "live.codec.encode",
    "live.codec.decode",
    "bench.net.queue",
    "bench.host.boot",
];
pub const QUANTUM: usize = 0;
pub const ON_FRAME: usize = 1;
pub const ADVANCE: usize = 2;
pub const IDLE_ADVANCE: usize = 3;
pub const ENCODE: usize = 4;
pub const DECODE: usize = 5;
pub const NET_QUEUE: usize = 6;
pub const BOOT: usize = 7;

/// Loop step and one-way frame delay, as in the shipping
/// `LoopbackCluster`.
const QUANTUM_NANOS: u64 = 5_000_000;
const NET_DELAY_NANOS: u64 = 1_000_000;

/// A traced run times one quantum in this many, whole: reading the clock
/// around each of the ~15 M spans of a run would itself be a third of the
/// run. Seven shares no factor with the heartbeat, query, keep-alive and
/// lease periods (40, 10, 50 and 100 quanta), so every phase of every
/// host's cadence is sampled equally often.
const TRACE_STRIDE: u64 = 7;

/// Parent table of the complete 4-ary tree on `nodes` nodes.
pub fn complete_tree(nodes: usize) -> Vec<Option<NodeId>> {
    (0..nodes)
        .map(|i| (i > 0).then(|| NodeId::from_index((i - 1) / 4)))
        .collect()
}

/// Size and kill/restart script of one mesh run.
#[derive(Debug, Clone, Copy)]
pub struct MeshScript {
    /// Hosts, on a complete 4-ary tree.
    pub nodes: usize,
    /// Virtual seconds the cluster runs.
    pub virtual_secs: u64,
    /// When `victim` is killed (virtual seconds).
    pub kill_at: u64,
    /// When `victim` restarts with incarnation 2 (virtual seconds).
    pub restart_at: u64,
    /// The mid-tree node that is killed and restarted.
    pub victim: NodeId,
}

impl MeshScript {
    /// The workload as sized in the README.
    pub fn full() -> Self {
        MeshScript {
            nodes: 64,
            virtual_secs: 120,
            kill_at: 20,
            restart_at: 30,
            victim: NodeId(2),
        }
    }

    /// A sub-second shrink for the smoke test.
    pub fn quick() -> Self {
        MeshScript {
            nodes: 16,
            virtual_secs: 16,
            kill_at: 5,
            restart_at: 8,
            victim: NodeId(2),
        }
    }

    /// The live configuration every host of the mesh shares.
    pub fn config(&self) -> LiveConfig {
        let parents = complete_tree(self.nodes);
        LiveConfig {
            heartbeat_every: SimDuration::from_secs_f64(0.2),
            suspect_after: SimDuration::from_secs_f64(0.8),
            dead_after: SimDuration::from_secs_f64(2.0),
            query_every: SimDuration::from_secs_f64(0.05),
            ..LiveConfig::smoke(parents)
        }
    }
}

/// Exact traffic counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Frames handed to the net.
    pub frames: u64,
    /// Encoded bytes, length prefixes included.
    pub bytes: u64,
    /// `Heartbeat` frames.
    pub heartbeats: u64,
    /// `Deliver` frames by [`MsgClass`] (request, reply, push, control).
    pub deliver: [u64; 4],
    /// High-water mark of frames in flight.
    pub peak_in_flight: u64,
}

impl NetCounts {
    /// `Deliver` frames of every class: one per overlay hop.
    pub fn hops(&self) -> u64 {
        self.deliver.iter().sum()
    }
}

struct InFlight {
    due: SimTime,
    to: NodeId,
    len: usize,
}

/// The benchmark's transport: one FIFO byte stream with a constant
/// delay, every frame through the shipping codec.
pub struct CodecNet<M> {
    now: SimTime,
    wire: Vec<u8>,
    head: usize,
    in_flight: VecDeque<InFlight>,
    /// Traffic counters.
    pub counts: NetCounts,
    /// Span recorder shared with the loop that drives the hosts.
    pub tracer: Tracer,
    _msg: PhantomData<M>,
}

impl<M> CodecNet<M> {
    /// An empty net at virtual time zero.
    pub fn new(tracer: Tracer) -> Self {
        CodecNet {
            now: SimTime::ZERO,
            wire: Vec::new(),
            head: 0,
            in_flight: VecDeque::new(),
            counts: NetCounts::default(),
            tracer,
            _msg: PhantomData,
        }
    }

    /// Pops the next frame due at or before `now`, still encoded.
    fn pop_due(&mut self) -> Option<(NodeId, std::ops::Range<usize>)> {
        if self.in_flight.front()?.due > self.now {
            return None;
        }
        let f = self.in_flight.pop_front()?;
        let range = self.head..self.head + f.len;
        self.head = range.end;
        Some((f.to, range))
    }

    /// Drops the consumed prefix of the stream once it dominates.
    fn compact(&mut self) {
        if self.head > (1 << 20) && self.head * 2 > self.wire.len() {
            self.wire.drain(..self.head);
            self.head = 0;
        }
    }
}

impl<M: Serialize> FrameNet<M> for CodecNet<M> {
    fn send(&mut self, _from: NodeId, to: NodeId, frame: Frame<M>) -> bool {
        self.tracer.enter(ENCODE);
        let before = self.wire.len();
        write_frame(&mut self.wire, &frame).expect("encoding into memory cannot fail");
        self.tracer.exit();
        let len = self.wire.len() - before;
        let c = &mut self.counts;
        c.frames += 1;
        c.bytes += len as u64;
        match &frame {
            Frame::Heartbeat { .. } => c.heartbeats += 1,
            Frame::Deliver { class, .. } => c.deliver[class_index(*class)] += 1,
            _ => {}
        }
        self.in_flight.push_back(InFlight {
            due: self.now + SimDuration::from_nanos(NET_DELAY_NANOS),
            to,
            len,
        });
        c.peak_in_flight = c.peak_in_flight.max(self.in_flight.len() as u64);
        true
    }
}

/// One oracle poll of the cluster.
#[derive(Debug, Clone)]
pub struct Poll {
    /// Virtual time of the poll, seconds.
    pub at: f64,
    /// `None` when the merged snapshots pass the oracle.
    pub violation: Option<String>,
}

/// What one mesh run produced.
#[derive(Debug, Clone)]
pub struct MeshRun {
    /// Wall seconds of the loop, polls excluded.
    pub wall_secs: f64,
    /// Queries issued by every host life, the victim's first included.
    pub queries: u64,
    /// Traffic counts.
    pub counts: NetCounts,
    /// Every host alive and joined at the end, the victim at incarnation 2.
    pub all_joined: bool,
    /// The oracle's verdict one quantum before the kill.
    pub pre_kill: Poll,
    /// Once-per-lease-period polls (empty unless requested).
    pub polls: Vec<Poll>,
}

impl MeshRun {
    /// Virtual seconds from the restart to the first poll from which the
    /// oracle passes through the end of the run; the time left in the run
    /// when it never does.
    pub fn rejoin_secs(&self, script: &MeshScript) -> f64 {
        let restart = script.restart_at as f64;
        let after: Vec<&Poll> = self.polls.iter().filter(|p| p.at >= restart).collect();
        let last_bad = after.iter().rposition(|p| p.violation.is_some());
        match last_bad {
            None => after.first().map_or(0.0, |p| p.at - restart),
            Some(i) if i + 1 < after.len() => after[i + 1].at - restart,
            Some(_) => script.virtual_secs as f64 - restart,
        }
    }

    /// Polls outside the two transition windows
    /// `[kill, kill + bound]` and `[restart, restart + bound]`, as
    /// `(taken, failed)`.
    pub fn steady_polls(&self, script: &MeshScript, bound_secs: f64) -> (u64, u64) {
        let in_window = |at: f64, start: u64| at >= start as f64 && at <= start as f64 + bound_secs;
        let steady = self
            .polls
            .iter()
            .filter(|p| !in_window(p.at, script.kill_at) && !in_window(p.at, script.restart_at));
        let (mut taken, mut failed) = (0, 0);
        for p in steady {
            taken += 1;
            failed += u64::from(p.violation.is_some());
        }
        (taken, failed)
    }
}

fn boot<S: LiveScheme>(
    node: NodeId,
    incarnation: u64,
    cfg: &LiveConfig,
    make: fn() -> S,
    now: SimTime,
    net: &mut CodecNet<S::Msg>,
) -> NodeHost<S>
where
    S::Msg: Serialize,
{
    net.tracer.enter(BOOT);
    let mut host = NodeHost::new(node, incarnation, cfg.clone(), make(), now);
    host.start(now, net);
    net.tracer.exit();
    host
}

/// Constructs and starts every host of the mesh at time zero and returns
/// how long that took: the live workload's set-up.
pub fn time_setup<S: LiveScheme>(script: &MeshScript, make: fn() -> S) -> Duration
where
    S::Msg: Serialize,
{
    let cfg = script.config();
    let mut net = CodecNet::new(Tracer::new(SPAN_NAMES, false));
    let started = Instant::now();
    let hosts: Vec<NodeHost<S>> = (0..script.nodes)
        .map(|i| {
            boot(
                NodeId::from_index(i),
                1,
                &cfg,
                make,
                SimTime::ZERO,
                &mut net,
            )
        })
        .collect();
    let took = started.elapsed();
    drop(hosts);
    took
}

/// Snapshots every live host and asks the oracle; the time this takes is
/// added to `paused` so it can be kept out of the run's wall time.
fn poll<S: LiveScheme>(hosts: &[Option<NodeHost<S>>], now: SimTime, paused: &mut Duration) -> Poll {
    let started = Instant::now();
    let snapshots: Vec<_> = hosts.iter().flatten().map(|h| h.snapshot()).collect();
    let violation = oracle_check(&snapshots).err();
    *paused += started.elapsed();
    Poll {
        at: now.as_secs_f64(),
        violation,
    }
}

/// Runs the mesh through `script`. A `tracer` that is on records the
/// spans of one quantum in [`TRACE_STRIDE`]. With `polls`, the oracle is
/// consulted once per lease period; poll time is kept out of `wall_secs`.
pub fn run_mesh<S: LiveScheme>(
    script: &MeshScript,
    make: fn() -> S,
    tracer: Tracer,
    polls: bool,
) -> (MeshRun, Tracer)
where
    S::Msg: Serialize + DeserializeOwned,
{
    let cfg = script.config();
    let n = script.nodes;
    let quantum = SimDuration::from_nanos(QUANTUM_NANOS);
    let at = |secs: u64| SimTime::from_secs(secs);
    let poll_every = cfg.lease_every.as_nanos();

    let traced = tracer.on();
    let mut net: CodecNet<S::Msg> = CodecNet::new(tracer);
    let mut hosts: Vec<Option<NodeHost<S>>> = (0..n).map(|_| None).collect();
    let mut retired_queries = 0u64;
    let mut pre_kill = None;
    let mut taken = Vec::new();
    let mut paused = Duration::ZERO;

    let started = Instant::now();
    let mut now = SimTime::ZERO;
    let end = at(script.virtual_secs);
    for step in 0.. {
        if now >= end {
            break;
        }
        let v = script.victim.index();
        if now == at(script.kill_at) {
            pre_kill = Some(poll(&hosts, now, &mut paused));
            let dying = hosts[v].take().expect("victim alive at kill time");
            retired_queries += dying.snapshot().queries_issued;
        }
        net.tracer.set_on(traced && step % TRACE_STRIDE == 0);
        net.tracer.enter(QUANTUM);
        // Boots and the restart act on the state the previous quantum
        // left, before this quantum's deliveries.
        if step == 0 {
            for (i, slot) in hosts.iter_mut().enumerate() {
                *slot = Some(boot(NodeId::from_index(i), 1, &cfg, make, now, &mut net));
            }
        }
        if now == at(script.restart_at) {
            hosts[v] = Some(boot(script.victim, 2, &cfg, make, now, &mut net));
        }

        now += quantum;
        net.now = now;
        net.tracer.enter(NET_QUEUE);
        while let Some((to, range)) = net.pop_due() {
            net.tracer.next(DECODE);
            let frame: Frame<S::Msg> =
                read_frame(&mut &net.wire[range]).expect("own frames decode");
            // Frames to a killed (or not yet booted) process vanish, as on
            // a dead socket.
            if let Some(host) = hosts[to.index()].as_mut() {
                net.tracer.next(ON_FRAME);
                host.on_frame(now, frame, &mut net);
            }
            net.tracer.next(NET_QUEUE);
        }
        net.compact();
        for host in hosts.iter_mut().flatten() {
            net.tracer.next(ADVANCE);
            let before = net.counts.frames;
            host.advance(now, &mut net);
            if net.counts.frames == before {
                net.tracer.rename(IDLE_ADVANCE);
            }
        }
        net.tracer.exit();
        net.tracer.exit();

        if polls && now.as_nanos().is_multiple_of(poll_every) {
            taken.push(poll(&hosts, now, &mut paused));
        }
    }
    let wall_secs = (started.elapsed() - paused).as_secs_f64();
    net.tracer.set_on(traced);

    let all_joined = hosts.iter().enumerate().all(|(i, h)| {
        let incarnation = if i == script.victim.index() { 2 } else { 1 };
        h.as_ref()
            .is_some_and(|h| h.joined() && h.incarnation() == incarnation)
    });
    let queries = retired_queries
        + hosts
            .iter()
            .flatten()
            .map(|h| h.snapshot().queries_issued)
            .sum::<u64>();
    let run = MeshRun {
        wall_secs,
        queries,
        counts: net.counts,
        all_joined,
        pre_kill: pre_kill.expect("script kills inside the run"),
        polls: taken,
    };
    (run, net.tracer)
}

/// Checks one mesh run against the first of its process and records the
/// attempted operations: identical counts, a converged cluster just before
/// the kill, and every host joined at the end.
fn check_run(out: &mut Outcome, run: &MeshRun, first: &MeshRun) {
    let checks = [
        (
            (run.counts, run.queries) == (first.counts, first.queries),
            format!(
                "repetitions differ: {:?}/{} vs {:?}/{}",
                run.counts, run.queries, first.counts, first.queries
            ),
        ),
        (
            run.pre_kill.violation.is_none(),
            format!(
                "cluster not converged before the kill: {}",
                run.pre_kill.violation.as_deref().unwrap_or_default()
            ),
        ),
        (
            run.all_joined,
            "a host is missing or un-joined at the end of the run".to_string(),
        ),
    ];
    for (ok, why) in checks {
        out.attempted += 1;
        if !ok {
            let why: String = why.chars().take(400).collect();
            out.failures.push(format!("live_mesh: {why}"));
        }
    }
}

/// The script at the size `budget` asks for.
fn script_for(budget: &Budget) -> MeshScript {
    if budget.scale < 1.0 {
        MeshScript::quick()
    } else {
        MeshScript::full()
    }
}

/// A short run that warms the allocator and the caches.
fn warm_up() {
    let off = Tracer::new(SPAN_NAMES, false);
    run_mesh(&MeshScript::quick(), DupScheme::new, off, false);
}

/// The untimed repetition that consults the oracle once per lease period.
/// Virtual time is deterministic, so it is the same run as the timed ones
/// (checked); snapshotting 64 trees twice a second is kept out of them.
/// Publishes what the polls found: the rejoin time, the steady-state polls
/// taken and failed, and the share of them at which the cluster's DUP tree
/// was consistent.
fn polled_run(out: &mut Outcome, script: &MeshScript, first: &MeshRun) {
    let off = Tracer::new(SPAN_NAMES, false);
    let (polled, _) = run_mesh(script, DupScheme::new, off, true);
    check_run(out, &polled, first);
    let bound = script.config().convergence_bound().as_secs_f64();
    let (taken, failed) = polled.steady_polls(script, bound);
    let rejoin = polled.rejoin_secs(script);
    out.set("live.rejoin_virtual_s", rejoin);
    out.set("live.oracle.polls", taken as f64);
    out.set("live.oracle.polls_failed", failed as f64);
    out.set(
        "dup_tree_consistent_share",
        (taken - failed) as f64 / taken as f64,
    );
    out.note(format!(
        "oracle: {failed} of {taken} steady-state polls failed (outside {bound} s after the kill \
         and the restart); rejoin {rejoin} virtual s after the restart{}",
        if rejoin >= (script.virtual_secs - script.restart_at) as f64 {
            " = never, inside the run"
        } else {
            ""
        }
    ));
    if let Some(bad) = polled.polls.iter().rev().find(|p| p.violation.is_some()) {
        let why: String = bad
            .violation
            .as_deref()
            .unwrap_or_default()
            .chars()
            .take(300)
            .collect();
        out.note(format!(
            "last failing oracle poll at {:.1} virtual s: {why}",
            bad.at
        ));
    }
}

/// One untimed run of the script, for the memory probe.
pub fn run_dup_once(budget: &Budget) {
    let off = Tracer::new(SPAN_NAMES, false);
    run_mesh(&script_for(budget), DupScheme::new, off, false);
}

/// Timed mode: set-up, a short warm-up, whole runs of the script until the
/// time budget is spent, then the untimed polled repetition.
pub fn run_timed(budget: &Budget) -> Outcome {
    let mut out = Outcome::default();
    let script = script_for(budget);
    let mut set_up = SetUp::new(|| time_setup(&script, DupScheme::new));
    set_up.burst(3, SET_UP_BURST);
    warm_up();

    let mut runs: Vec<MeshRun> = Vec::new();
    repeat_within(budget.measure, 1, || {
        let off = Tracer::new(SPAN_NAMES, false);
        let (run, _) = run_mesh(&script, DupScheme::new, off, false);
        check_run(&mut out, &run, runs.first().unwrap_or(&run));
        runs.push(run);
        set_up.burst(3, SET_UP_BURST);
    });
    out.set_up(&set_up);
    polled_run(&mut out, &script, &runs[0]);

    let first = &runs[0];
    let rates: Vec<f64> = runs
        .iter()
        .map(|r| r.queries as f64 / r.wall_secs)
        .collect();
    out.cell("dup_queries_per_sec", &rates);
    // DUP is the only scheme with a wire format a live host runs.
    out.set("queries_per_sec", median(&rates));
    out.set("dup_queries_per_sec", median(&rates));
    let queries = first.queries as f64;
    out.set(
        "dup_query_latency_hops",
        first.counts.deliver[0] as f64 / queries,
    );
    out.set("dup_query_cost_hops", first.counts.hops() as f64 / queries);
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_secs).collect();
    out.note(format!(
        "DUP: {} frames ({} B mean, {:.1} % heartbeats), {} queries, \
             {:.2} cluster seconds per wall second",
        first.counts.frames,
        first.counts.bytes / first.counts.frames,
        100.0 * first.counts.heartbeats as f64 / first.counts.frames as f64,
        first.queries,
        script.virtual_secs as f64 / median(&walls)
    ));
    out
}

/// Rounds of one untraced and one traced run a traced process makes at
/// least.
const TRACE_ROUNDS: usize = 3;

/// Traced mode: interleaved untraced and traced runs, then the untimed
/// polled repetition.
pub fn run_traced(budget: &Budget) -> Outcome {
    let mut out = Outcome::default();
    let script = script_for(budget);
    warm_up();

    let mut tracer = Some(Tracer::new(SPAN_NAMES, true));
    let (mut plain, mut traced): (Vec<MeshRun>, Vec<MeshRun>) = (vec![], vec![]);
    repeat_within(budget.measure, TRACE_ROUNDS, || {
        let off = Tracer::new(SPAN_NAMES, false);
        plain.push(run_mesh(&script, DupScheme::new, off, false).0);
        let mut on = tracer
            .take()
            .expect("the recorder comes back from every run");
        on.set_rep(traced.len() as u32);
        let (run, back) = run_mesh(&script, DupScheme::new, on, false);
        tracer = Some(back);
        traced.push(run);
    });
    let tracer = tracer.expect("the recorder comes back from every run");
    for run in plain.iter().chain(&traced) {
        check_run(&mut out, run, &plain[0]);
    }

    let first = &plain[0];
    let plain_wall = median(&plain.iter().map(|r| r.wall_secs).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|r| r.wall_secs).collect::<Vec<_>>());
    let frames = first.counts.frames as f64;
    out.set("run.ns_per_event.dup", plain_wall * 1e9 / frames);
    out.set("run.events_per_query.dup", frames / first.queries as f64);
    out.set(
        "run.peak_queue_depth.dup",
        first.counts.peak_in_flight as f64,
    );
    out.set("trace.overhead_ratio", traced_wall / plain_wall);
    out.set(
        "live.cluster_secs_per_sec",
        script.virtual_secs as f64 / plain_wall,
    );
    out.set(
        "live.net.frames_per_cluster_sec",
        frames / script.virtual_secs as f64,
    );
    out.set(
        "live.net.heartbeat_share",
        first.counts.heartbeats as f64 / frames,
    );

    let span = tracer.acc(QUANTUM).total_ns as f64;
    let self_ns = |name| tracer.acc(name).self_ns as f64;
    let per_call = |name| {
        let acc = tracer.acc(name);
        if acc.count == 0 {
            0.0
        } else {
            acc.self_ns as f64 / acc.count as f64
        }
    };
    out.set(
        "live.codec.share",
        (self_ns(ENCODE) + self_ns(DECODE)) / span,
    );
    out.set("live.host.on_frame_ns", per_call(ON_FRAME));
    out.set("live.host.advance_ns", per_call(ADVANCE));
    out.set("live.host.idle_advance_ns", per_call(IDLE_ADVANCE));
    // What no layer's span covers is the loop's own glue.
    out.set("layers.unattributed_share", self_ns(QUANTUM) / span);

    polled_run(&mut out, &script, &plain[0]);

    out.trace = Some(json!({
        "workload": "live_mesh",
        "trace_stride_quanta": TRACE_STRIDE,
        "recorder": tracer.to_json()
    }));
    out
}
