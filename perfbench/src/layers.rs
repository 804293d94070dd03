//! One tight loop per layer, over the layer's public functions only.
//!
//! Each loop reports the median of [`LAYER_REPS`] repetitions, every
//! repetition sized by a calibration pass to last [`Budget::layer_rep`]
//! (200 ms at the `run_seconds` of `BENCHMARK.json`). The numbers are unit
//! costs in isolation: hot caches, no neighbours. A loop is measured by the
//! traced runs of the workloads [`LOOPS`] names for it — those whose run
//! goes through the layer — and reads 0 elsewhere. The traced run of a sim
//! workload multiplies the unit costs by exact event counts to model where
//! a run's time goes, and publishes what the model leaves unexplained.
//!
//! [`Budget::layer_rep`]: crate::Budget::layer_rep

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use dup_core::testkit::TestBench;
use dup_core::{DupMsg, DupScheme};
use dup_live::{
    read_frame, write_frame, FailureDetector, Frame, FrameNet, LiveConfig, LoopbackCluster, TcpNet,
};
use dup_overlay::{random_search_tree, NodeId, SearchTree, TopologyParams};
use dup_proto::{
    CacheStore, IndexRecord, InterestTracker, Msg, MsgClass, ReliabilityConfig, ReliableState,
    Version,
};
use dup_sim::{
    stream_rng, Engine, EventQueue, QueueBackend, SenderStreams, SimDuration, SimTime, StreamRng,
};
use dup_stats::{BatchMeans, Histogram};
use dup_workload::{exp_variate, lomax_variate, HopLatency, ZipfSelector};
use rand::Rng;

use crate::live::complete_tree;
use crate::stats::median;
use crate::LAYER_REPS;

/// Per-layer unit costs by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

const SIMS: &[&str] = &["sim_hot", "sim_deep", "sim_lossy", "sim_space2"];
const HOT: &[&str] = &["sim_hot"];
const DEEP: &[&str] = &["sim_deep"];
const LOSSY: &[&str] = &["sim_lossy"];
const LIVE: &[&str] = &["live_mesh"];
const RELIABLE: &[&str] = &["sim_lossy", "live_mesh"];

/// Every isolated loop and the workloads whose traced run measures it:
/// the workloads that run through the layer (the "should move" column of
/// the README) and, for the sim workloads, every unit cost their layer
/// model multiplies.
pub const LOOPS: &[(&str, &[&str])] = &[
    ("sim.queue.heap_ns_per_op", SIMS),
    ("sim.queue.wheel_ns_per_op", SIMS),
    ("sim.queue.deep_ns_per_op", LOSSY),
    ("sim.queue.cancel_ns_per_op", RELIABLE),
    ("sim.engine.ns_per_event", SIMS),
    ("sim.rng.ns_per_draw", SIMS),
    ("sim.rng.sender_stream_ns", SIMS),
    ("workload.exp_ns_per_draw", SIMS),
    ("workload.lomax_ns_per_draw", HOT),
    ("workload.hop_latency_ns_per_sample", SIMS),
    (
        "workload.zipf_ns_per_sample.n4096",
        &["sim_hot", "sim_lossy", "sim_space2"],
    ),
    ("workload.zipf_ns_per_sample.n65536", DEEP),
    ("overlay.topology.build_ms", DEEP),
    ("overlay.tree.ns_per_hop", SIMS),
    ("overlay.tree.branch_toward_ns", DEEP),
    ("overlay.tree.churn_us_per_op", LOSSY),
    ("proto.cache.ns_per_lookup", SIMS),
    ("proto.cache.ns_per_install", SIMS),
    ("proto.interest.ns_per_observe", SIMS),
    ("proto.reliable.ns_per_tracked", RELIABLE),
    ("core.dup.subscribe_us", LOSSY),
    ("core.dup.push_ns_per_subscriber", LOSSY),
    ("live.codec.encode_ns_per_frame.heartbeat", LIVE),
    ("live.codec.encode_ns_per_frame.deliver", LIVE),
    ("live.codec.encode_ns_per_frame.helloack", LIVE),
    ("live.codec.decode_ns_per_frame.heartbeat", LIVE),
    ("live.codec.decode_ns_per_frame.deliver", LIVE),
    ("live.codec.decode_ns_per_frame.helloack", LIVE),
    ("live.codec.bytes_per_frame.heartbeat", LIVE),
    ("live.codec.bytes_per_frame.deliver", LIVE),
    ("live.codec.bytes_per_frame.helloack", LIVE),
    ("live.detector.poll_ns", LIVE),
    ("live.loopback.frames_per_sec", LIVE),
    ("live.tcp.send_us_per_frame", LIVE),
    ("live.tcp.rtt_us_p50", LIVE),
    ("stats.batch_ns_per_record", SIMS),
    ("stats.histogram_ns_per_record", SIMS),
];

/// Sizes a loop by calibration and reports the median cost per operation.
struct Timer<'a> {
    workload: &'a str,
    rep_budget: Duration,
}

impl Timer<'_> {
    /// Whether this workload's traced run measures loop `name`.
    fn wants(&self, name: &str) -> bool {
        let (_, users) = LOOPS
            .iter()
            .find(|(loop_name, _)| *loop_name == name)
            .unwrap_or_else(|| panic!("loop {name} is not in LOOPS"));
        users.contains(&self.workload)
    }

    /// Measures loop `name`, if this workload wants it, in units of
    /// `unit_ns` nanoseconds per operation.
    fn run(&self, out: &mut Layers, name: &'static str, unit_ns: f64, body: impl FnMut(u64)) {
        if self.wants(name) {
            out.insert(name, self.ns_per_op(body) / unit_ns);
        }
    }

    /// `body(n)` performs `n` operations. Returns median nanoseconds per
    /// operation.
    fn ns_per_op(&self, mut body: impl FnMut(u64)) -> f64 {
        // From one operation up: a millisecond-scale operation (building a
        // 65 536-node tree) must not be repeated just to be sized.
        let mut n = 1u64;
        let n = loop {
            let started = Instant::now();
            body(n);
            let took = started.elapsed();
            if took * 8 >= self.rep_budget || n >= 1 << 32 {
                let scale = self.rep_budget.as_secs_f64() / took.as_secs_f64().max(1e-9);
                break ((n as f64 * scale) as u64).max(1);
            }
            n *= 4;
        };
        let samples: Vec<f64> = (0..LAYER_REPS)
            .map(|_| {
                let started = Instant::now();
                body(n);
                started.elapsed().as_nanos() as f64 / n as f64
            })
            .collect();
        median(&samples)
    }
}

/// xorshift64*, as in `crates/sim/examples/queue_bench.rs`: the gap mix
/// must not depend on the seeded stream RNG it is used to measure.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One event gap in nanoseconds from the production mix of
    /// `queue_bench.rs`: 70 % deliveries ~ Exp(0.1 s), 20 % arrival ticks
    /// ~ Exp(1 s), 8 % lease-scale timers ~ U[75, 225] s, 2 % TTL-scale
    /// ~ U[1800, 5400] s.
    fn gap(&mut self) -> u64 {
        let exp = |rng: &mut XorShift, mean: f64| (-mean * (1.0 - rng.unit()).ln() * 1e9) as u64;
        match self.next() % 100 {
            0..=69 => exp(self, 0.1),
            70..=89 => exp(self, 1.0),
            90..=97 => 75_000_000_000 + self.next() % 150_000_000_000,
            _ => 1_800_000_000_000 + self.next() % 3_600_000_000_000,
        }
    }
}

/// A queue holding a standing population under the production gap mix.
struct QueueLoad {
    q: EventQueue<u64>,
    rng: XorShift,
    now: u64,
}

impl QueueLoad {
    fn new(mut q: EventQueue<u64>, depth: u64) -> Self {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        for i in 0..depth {
            q.push(SimTime::from_nanos(rng.gap()), i);
        }
        QueueLoad { q, rng, now: 0 }
    }

    fn pop_push(&mut self, n: u64) {
        for i in 0..n {
            let (at, v) = self.q.pop().expect("standing population never drains");
            self.now = at.as_nanos();
            black_box(v);
            let gap = self.rng.gap();
            self.q.push(SimTime::from_nanos(self.now + gap), i);
        }
    }

    /// Schedules a retry timer one ack timeout out and cancels it, as an
    /// acked tracked send does, then turns the population over once so the
    /// lazily deleted entry is swept.
    fn schedule_cancel(&mut self, n: u64) {
        for i in 0..n {
            let retry = self.q.push(SimTime::from_nanos(self.now + 250_000_000), i);
            black_box(self.q.cancel(retry));
            self.pop_push(1);
        }
    }
}

fn queue_layers(t: &Timer, out: &mut Layers) {
    let wheel = QueueBackend::TimerWheel {
        // The runner's rule (8 / λ) at the gap mix's one arrival a second.
        tick: SimDuration::from_secs_f64(8.0),
    };
    let mut heap = QueueLoad::new(EventQueue::with_backend(QueueBackend::DEFAULT_HEAP), 50);
    t.run(out, "sim.queue.heap_ns_per_op", 1.0, |n| heap.pop_push(n));
    let mut wheel = QueueLoad::new(EventQueue::with_backend(wheel), 50);
    t.run(out, "sim.queue.wheel_ns_per_op", 1.0, |n| wheel.pop_push(n));
    // `EventQueue::new` is whatever backend the program defaults to.
    let mut deep = QueueLoad::new(EventQueue::new(), 1024);
    t.run(out, "sim.queue.deep_ns_per_op", 1.0, |n| deep.pop_push(n));
    let mut cancel = QueueLoad::new(EventQueue::new(), 50);
    t.run(out, "sim.queue.cancel_ns_per_op", 1.0, |n| {
        cancel.schedule_cancel(n)
    });
}

fn engine_layer(t: &Timer, out: &mut Layers) {
    let mut eng: Engine<u64> = Engine::new();
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    for i in 0..50 {
        eng.schedule(SimTime::from_nanos(rng.gap()), i);
    }
    t.run(out, "sim.engine.ns_per_event", 1.0, |n| {
        eng.set_event_limit(eng.events_processed() + n);
        eng.run(|eng, ev| {
            eng.schedule_after(SimDuration::from_nanos(rng.gap()), ev);
        });
    });
}

fn rng_layers(t: &Timer, out: &mut Layers) {
    let mut rng = stream_rng(1, "perfbench/rng");
    t.run(out, "sim.rng.ns_per_draw", 1.0, |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            acc ^= rng.gen::<u64>();
        }
        black_box(acc);
    });
    if !t.wants("sim.rng.sender_stream_ns") {
        return;
    }
    let mut streams = SenderStreams::new(1, "perfbench/senders");
    // Streams seed themselves on first use; the steady state is what a run
    // pays per send.
    for sender in 0..65_536 {
        streams.rng(sender);
    }
    let mut pick = XorShift(7);
    t.run(out, "sim.rng.sender_stream_ns", 1.0, |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            acc ^= streams.rng((pick.next() % 65_536) as usize).gen::<u64>();
        }
        black_box(acc);
    });
}

/// Times `draw` in a summing loop (statically dispatched, so a few
/// nanoseconds of variate are not buried under an indirect call).
fn draw_ns(
    t: &Timer,
    out: &mut Layers,
    name: &'static str,
    rng: &mut StreamRng,
    mut draw: impl FnMut(&mut StreamRng) -> f64,
) {
    t.run(out, name, 1.0, |n| {
        let mut acc = 0.0;
        for _ in 0..n {
            acc += draw(rng);
        }
        black_box(acc);
    });
}

fn workload_layers(t: &Timer, out: &mut Layers) {
    let rng = &mut stream_rng(2, "perfbench/variates");
    draw_ns(t, out, "workload.exp_ns_per_draw", rng, |r| {
        exp_variate(r, 1.0)
    });
    draw_ns(t, out, "workload.lomax_ns_per_draw", rng, |r| {
        lomax_variate(r, 1.05, 0.2)
    });
    let hop = HopLatency::paper_default();
    draw_ns(t, out, "workload.hop_latency_ns_per_sample", rng, |r| {
        hop.sample(r).as_nanos() as f64
    });
    for (name, nodes) in [
        ("workload.zipf_ns_per_sample.n4096", 4096),
        ("workload.zipf_ns_per_sample.n65536", 65_536),
    ] {
        if t.wants(name) {
            let zipf = ZipfSelector::new(nodes, 0.8);
            draw_ns(t, out, name, rng, |r| zipf.sample(r) as f64);
        }
    }
}

fn big_tree() -> SearchTree {
    random_search_tree(
        TopologyParams {
            nodes: 65_536,
            max_degree: 4,
        },
        &mut stream_rng(3, "perfbench/topology"),
    )
}

fn overlay_layers(t: &Timer, out: &mut Layers) {
    t.run(out, "overlay.topology.build_ms", 1e6, |n| {
        for _ in 0..n {
            black_box(big_tree());
        }
    });

    let mut pick = XorShift(11);
    if t.wants("overlay.tree.ns_per_hop") || t.wants("overlay.tree.branch_toward_ns") {
        let tree = big_tree();
        t.run(out, "overlay.tree.ns_per_hop", 1.0, |n| {
            // `n` counts `parent()` calls, not walks.
            let mut left = n;
            while left > 0 {
                let mut at = NodeId::from_index((pick.next() % 65_536) as usize);
                while let Some(up) = tree.parent(at) {
                    at = up;
                    left = left.saturating_sub(1);
                }
                left = left.saturating_sub(1);
                black_box(at);
            }
        });
        let root = tree.root();
        t.run(out, "overlay.tree.branch_toward_ns", 1.0, |n| {
            let mut acc = 0u32;
            for _ in 0..n {
                let below = NodeId::from_index((pick.next() % 65_535 + 1) as usize);
                acc ^= tree.branch_toward(root, below).map_or(0, |b| b.0);
            }
            black_box(acc);
        });
    }

    // Churn mix on a paper-sized tree: a leaf join, an edge split and two
    // splice-outs per round, so the population stays level.
    let mut churned = random_search_tree(
        TopologyParams::paper_default(),
        &mut stream_rng(4, "perfbench/churn"),
    );
    t.run(out, "overlay.tree.churn_us_per_op", 1e3, |n| {
        for _ in 0..n.div_ceil(4) {
            let live = |tree: &SearchTree, pick: &mut XorShift| loop {
                let id = NodeId::from_index((pick.next() % tree.capacity() as u64) as usize);
                if tree.is_alive(id) && id != tree.root() {
                    break id;
                }
            };
            let parent = live(&churned, &mut pick);
            churned.add_leaf(parent);
            let child = live(&churned, &mut pick);
            let above = churned.parent(child).expect("non-root has a parent");
            churned.insert_between(above, child);
            let gone = live(&churned, &mut pick);
            churned.remove_splice(gone);
            let gone = live(&churned, &mut pick);
            churned.remove_splice(gone);
        }
    });
}

fn proto_layers(t: &Timer, out: &mut Layers) {
    const NODES: u64 = 65_536;
    let mut pick = XorShift(13);
    let node = |pick: &mut XorShift| NodeId::from_index((pick.next() % NODES) as usize);
    let record = |version: u64| IndexRecord {
        version: Version(version),
        created: SimTime::ZERO,
        expires: SimTime::from_secs(3600),
    };

    if t.wants("proto.cache.ns_per_lookup") {
        let mut cache = CacheStore::new(NODES as usize);
        for i in (0..NODES).step_by(2) {
            cache.install(NodeId::from_index(i as usize), record(1));
        }
        let now = SimTime::from_secs(1800);
        t.run(out, "proto.cache.ns_per_lookup", 1.0, |n| {
            let mut hits = 0u64;
            for _ in 0..n {
                hits += u64::from(cache.valid_at(node(&mut pick), now).is_some());
            }
            black_box(hits);
        });
        let mut version = 1;
        t.run(out, "proto.cache.ns_per_install", 1.0, |n| {
            for _ in 0..n {
                version += 1;
                black_box(cache.install(node(&mut pick), record(version)));
            }
        });

        let mut interest = InterestTracker::new(SimDuration::from_mins(60), 6, NODES as usize);
        let mut at = 0u64;
        t.run(out, "proto.interest.ns_per_observe", 1.0, |n| {
            for _ in 0..n {
                at += 100_000_000;
                black_box(interest.observe(node(&mut pick), SimTime::from_nanos(at)));
            }
        });
    }

    // One tracked message through its whole life: sequence + jitter draw,
    // retry timer noted, delivered once, acked, timer cancelled.
    let enabled = ReliabilityConfig {
        enabled: true,
        ..ReliabilityConfig::default()
    };
    let mut reliable = ReliableState::from_config(enabled, 5);
    let mut timers: EventQueue<u64> = EventQueue::new();
    t.run(out, "proto.reliable.ns_per_tracked", 1.0, |n| {
        for i in 0..n {
            let sender = NodeId::from_index((i % 1024) as usize);
            let (seq, jitter) = reliable.begin_tracking(sender);
            let timer = timers.push(SimTime::from_nanos(i + 2_000_000_000), seq);
            reliable.note_timer(seq, timer, jitter);
            black_box(reliable.on_tracked_delivery(sender, seq));
            if let Some(timer) = reliable.on_ack(seq) {
                timers.cancel(timer);
            }
            black_box(timers.pop());
        }
    });
}

fn dup_layers(t: &Timer, out: &mut Layers) {
    const SUBSCRIBERS: u64 = 256;
    if !t.wants("core.dup.subscribe_us") {
        return;
    }
    let tree = || {
        random_search_tree(
            TopologyParams::paper_default(),
            &mut stream_rng(6, "perfbench/dup"),
        )
    };
    // Subscribe: fresh interest at a random node, maintenance traffic
    // drained to quiescence. A new bench every 512 subscriptions keeps the
    // DUP tree sparse, as it is in the runs.
    let mut pick = XorShift(17);
    let mut bench = TestBench::new(tree(), DupScheme::new(), 6);
    let mut made = 0;
    t.run(out, "core.dup.subscribe_us", 1e3, |n| {
        for _ in 0..n {
            if made == 512 {
                bench = TestBench::new(tree(), DupScheme::new(), 6);
                made = 0;
            }
            made += 1;
            bench.make_interested(NodeId::from_index((pick.next() % 4096) as usize));
            bench.drain();
        }
    });

    let mut bench = TestBench::new(tree(), DupScheme::new(), 6);
    for i in 0..SUBSCRIBERS {
        bench.make_interested(NodeId::from_index((1 + i * 16) as usize));
    }
    bench.drain();
    t.run(
        out,
        "core.dup.push_ns_per_subscriber",
        SUBSCRIBERS as f64,
        |n| {
            for _ in 0..n {
                black_box(bench.refresh());
            }
        },
    );
}

/// The three frame shapes that make up live traffic: a heartbeat (92 % of
/// frames), a tracked DUP push, and the 64-node tree a `HelloAck` carries.
fn sample_frames() -> [Frame<DupMsg>; 3] {
    let parents = complete_tree(64);
    let mut bench = TestBench::new(SearchTree::from_parents(&parents), DupScheme::new(), 0);
    let push = DupMsg::Push(bench.refresh());
    [
        Frame::Heartbeat {
            node: NodeId(7),
            incarnation: 1,
        },
        Frame::Deliver {
            from: NodeId(0),
            to: NodeId(7),
            class: MsgClass::Push,
            msg: Msg::Tracked {
                seq: 7 << 32 | 1234,
                inner: push,
            },
        },
        Frame::HelloAck {
            node: NodeId(0),
            incarnation: 1,
            tree: SearchTree::from_parents(&parents),
        },
    ]
}

/// Metric names per frame of [`sample_frames`], in its order.
const CODEC_METRICS: [[&str; 3]; 3] = [
    [
        "live.codec.encode_ns_per_frame.heartbeat",
        "live.codec.decode_ns_per_frame.heartbeat",
        "live.codec.bytes_per_frame.heartbeat",
    ],
    [
        "live.codec.encode_ns_per_frame.deliver",
        "live.codec.decode_ns_per_frame.deliver",
        "live.codec.bytes_per_frame.deliver",
    ],
    [
        "live.codec.encode_ns_per_frame.helloack",
        "live.codec.decode_ns_per_frame.helloack",
        "live.codec.bytes_per_frame.helloack",
    ],
];

fn codec_layers(t: &Timer, out: &mut Layers) {
    for (frame, [encode, decode, bytes]) in sample_frames().iter().zip(CODEC_METRICS) {
        if !t.wants(bytes) {
            continue;
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, frame).expect("encoding into memory cannot fail");
        out.insert(bytes, wire.len() as f64);
        let mut buf = Vec::with_capacity(wire.len());
        t.run(out, encode, 1.0, |n| {
            for _ in 0..n {
                buf.clear();
                write_frame(&mut buf, frame).expect("encoding into memory cannot fail");
                black_box(buf.len());
            }
        });
        t.run(out, decode, 1.0, |n| {
            for _ in 0..n {
                let got: Frame<DupMsg> = read_frame(&mut &wire[..]).expect("own frame decodes");
                black_box(got);
            }
        });
    }
}

fn live_layers(t: &Timer, out: &mut Layers) {
    let mut detector = FailureDetector::new(
        SimDuration::from_secs_f64(0.8),
        SimDuration::from_secs_f64(2.0),
    );
    for peer in 1..64 {
        detector.register(NodeId(peer), SimTime::ZERO, 1);
    }
    let mut at = 0u64;
    t.run(out, "live.detector.poll_ns", 1.0, |n| {
        for i in 0..n {
            // Every peer heard from within the suspect threshold: the
            // steady state the detector is polled in 200 times a second.
            at += 5_000_000;
            let now = SimTime::from_nanos(at);
            detector.on_heartbeat(NodeId((i % 63 + 1) as u32), now, 1);
            black_box(detector.poll(now));
        }
    });

    if !t.wants("live.loopback.frames_per_sec") {
        return;
    }
    // The shipping loopback cluster, no codec: what schedule fuzzing pays.
    // One stretch as long as the repetitions of a loop together, so the
    // boot transient is a small part of it.
    let mut cluster = LoopbackCluster::new(LiveConfig::smoke(complete_tree(64)), DupScheme::new);
    let budget = t.rep_budget * LAYER_REPS as u32;
    let started = Instant::now();
    while started.elapsed() < budget {
        cluster.run_for(SimDuration::from_secs_f64(0.25));
    }
    out.insert(
        "live.loopback.frames_per_sec",
        cluster.net_mut().sent as f64 / started.elapsed().as_secs_f64(),
    );
}

/// `TcpNet::send` over the host's loopback interface to one reader thread
/// that echoes through a second `TcpNet`: exactly two threads. Reports
/// zeros when the sandbox has no loopback TCP.
fn tcp_layers(t: &Timer, tmp: &Path, out: &mut Layers) {
    if !t.wants("live.tcp.send_us_per_frame") {
        return;
    }
    let measured = tcp_round_trips(t, tmp).unwrap_or_else(|e| {
        eprintln!("live.tcp.* not measured: {e}");
        (0.0, 0.0)
    });
    out.insert("live.tcp.send_us_per_frame", measured.0);
    out.insert("live.tcp.rtt_us_p50", measured.1);
}

/// How long the TCP loop waits on its peer before giving up: a sandbox
/// that half-supports sockets must not hang the benchmark.
const TCP_PATIENCE: Duration = Duration::from_secs(2);

fn accept_patiently(listener: &TcpListener) -> std::io::Result<BufReader<TcpStream>> {
    listener.set_nonblocking(true)?;
    let started = Instant::now();
    let stream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock && started.elapsed() < TCP_PATIENCE => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    };
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(TCP_PATIENCE))?;
    Ok(BufReader::new(stream))
}

fn tcp_round_trips(t: &Timer, tmp: &Path) -> std::io::Result<(f64, f64)> {
    let dir = tmp.join("tcp-rendezvous");
    std::fs::create_dir_all(&dir)?;
    let (me, peer) = (NodeId(0), NodeId(1));
    let mine = TcpListener::bind("127.0.0.1:0")?;
    let theirs = TcpListener::bind("127.0.0.1:0")?;
    dup_live::tcp::publish_addr(&dir, me, &mine.local_addr()?.to_string())?;
    dup_live::tcp::publish_addr(&dir, peer, &theirs.local_addr()?.to_string())?;
    let heartbeat = |node| Frame::<DupMsg>::Heartbeat {
        node,
        incarnation: 1,
    };
    let epoch = Instant::now();
    let peer_dir = dir.clone();
    // The reader echoes `Hello` frames (the round-trip probe) and swallows
    // heartbeats (the one-way stream) until `Shutdown` or a quiet period.
    let reader = std::thread::spawn(move || -> std::io::Result<()> {
        let mut net = TcpNet::new(peer, peer_dir, 2, epoch);
        let mut inbound = accept_patiently(&theirs)?;
        loop {
            match read_frame::<_, DupMsg>(&mut inbound)? {
                Frame::Shutdown => return Ok(()),
                Frame::Hello { .. } => {
                    FrameNet::<DupMsg>::send(&mut net, peer, me, heartbeat(peer));
                }
                _ => {}
            }
        }
    });
    let mut net = TcpNet::new(me, dir.clone(), 2, epoch);
    let probe = Frame::<DupMsg>::Hello {
        node: me,
        incarnation: 1,
    };
    let mut measure = || -> std::io::Result<(f64, f64)> {
        net.send(me, peer, probe.clone());
        let mut inbound = accept_patiently(&mine)?;
        read_frame::<_, DupMsg>(&mut inbound)?;
        let send_ns = t.ns_per_op(|n| {
            for _ in 0..n {
                net.send(me, peer, heartbeat(me));
            }
        });
        let mut rtts: Vec<f64> = Vec::new();
        let budget = t.rep_budget * LAYER_REPS as u32;
        let started = Instant::now();
        while started.elapsed() < budget {
            let sent = Instant::now();
            net.send(me, peer, probe.clone());
            read_frame::<_, DupMsg>(&mut inbound)?;
            rtts.push(sent.elapsed().as_nanos() as f64 / 1e3);
        }
        Ok((send_ns / 1e3, median(&rtts)))
    };
    let measured = measure();
    FrameNet::<DupMsg>::send(&mut net, me, peer, Frame::Shutdown);
    // Every wait of the reader is bounded by `TCP_PATIENCE`, so this join
    // returns even when the measurement above failed half-way.
    let echoed = reader.join().expect("reader thread panicked");
    std::fs::remove_dir_all(&dir)?;
    let measured = measured?;
    echoed?;
    Ok(measured)
}

fn stats_layers(t: &Timer, out: &mut Layers) {
    let mut batch = BatchMeans::new(500);
    let mut hist = Histogram::new(1.0, 64);
    let mut pick = XorShift(19);
    t.run(out, "stats.batch_ns_per_record", 1.0, |n| {
        for _ in 0..n {
            batch.push((pick.next() % 8) as f64);
        }
        black_box(batch.raw_count());
    });
    t.run(out, "stats.histogram_ns_per_record", 1.0, |n| {
        for _ in 0..n {
            hist.record((pick.next() % 8) as f64);
        }
        black_box(hist.total());
    });
}

/// Runs the isolated loops `workload`'s traced run measures (see
/// [`LOOPS`]), each repetition `rep` long. `tmp` is a directory inside the
/// checkout for the TCP loop's rendezvous files.
pub fn measure(workload: &str, rep: Duration, tmp: &Path) -> Layers {
    let t = Timer {
        workload,
        rep_budget: rep,
    };
    let mut out = Layers::new();
    queue_layers(&t, &mut out);
    engine_layer(&t, &mut out);
    rng_layers(&t, &mut out);
    workload_layers(&t, &mut out);
    overlay_layers(&t, &mut out);
    proto_layers(&t, &mut out);
    dup_layers(&t, &mut out);
    codec_layers(&t, &mut out);
    live_layers(&t, &mut out);
    tcp_layers(&t, tmp, &mut out);
    stats_layers(&t, &mut out);
    out
}
