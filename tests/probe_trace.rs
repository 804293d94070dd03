//! Integration tests for the observability layer: scheme-kind dispatch,
//! probe/report reconciliation, and the Figure 2 trace sequence.

use dup_core::testkit::{paper_example_tree, TestBench};
use dup_p2p::prelude::*;
use dup_p2p::proto::MsgClass;

/// A small, fast configuration shared by the dispatch tests.
fn small_cfg(seed: u64) -> RunConfig {
    RunConfig::builder(seed)
        .nodes(128)
        .warmup_secs(1_000.0)
        .duration_secs(12_000.0)
        .latency_batch(50)
        .build()
}

/// Every hop PCX spends is on the query path: it never pushes and runs no
/// maintenance protocol, so push and control ledgers stay empty.
#[test]
fn pcx_reports_no_push_or_control_hops() {
    let report = SchemeKind::Pcx.run(&small_cfg(7));
    assert!(report.queries > 0);
    assert_eq!(report.push_hops + report.control_hops, 0);
    assert!(report.request_hops > 0);
}

/// At high query rates the paper's headline holds: DUP's total overlay
/// traffic is at most CUP's on the identical topology and workload.
#[test]
fn dup_total_cost_at_most_cup_at_high_lambda() {
    let cfg = RunConfig::builder(0xD0_1C)
        .nodes(256)
        .lambda(8.0)
        .warmup_secs(2_000.0)
        .duration_secs(20_000.0)
        .latency_batch(50)
        .build();
    let total = |r: &RunReport| r.request_hops + r.reply_hops + r.push_hops + r.control_hops;
    let cup = SchemeKind::Cup.run(&cfg);
    let dup = SchemeKind::Dup.run(&cfg);
    assert!(
        total(&dup) <= total(&cup),
        "DUP total hops {} exceeded CUP total hops {}",
        total(&dup),
        total(&cup)
    );
}

/// Kind dispatch is a pure re-routing of the old per-scheme entry points:
/// same config, same seed, identical report.
#[test]
fn kind_dispatch_matches_direct_run() {
    let cfg = small_cfg(11);
    let via_kind = run_simulation_kind(&cfg, SchemeKind::Dup, ProbeSink::disabled());
    let direct = run_simulation(&cfg, DupScheme::new());
    assert_eq!(
        serde_json::to_string(&via_kind).unwrap(),
        serde_json::to_string(&direct).unwrap()
    );
}

/// Probe event counts reconcile exactly with the metric ledger: with no
/// warm-up, every charged hop was announced as a `MsgSent`, every answered
/// query as a `QueryServed`, and the report's event counter equals the
/// number of events the capture actually saw.
#[test]
fn probe_events_reconcile_with_report() {
    // No warm-up: the metrics ledger and the probe then observe the same
    // window, so the counts must match exactly.
    let cfg = RunConfig::builder(42)
        .nodes(128)
        .warmup_secs(0.0)
        .duration_secs(10_000.0)
        .latency_batch(50)
        .sample_every_secs(500.0)
        .build();
    for kind in SchemeKind::ALL {
        let capture = CaptureProbe::new();
        let report = run_simulation_kind(&cfg, kind, ProbeSink::attach(capture.clone()));

        let sent = |class: MsgClass| {
            capture.count(|e| matches!(e, ProbeEvent::MsgSent { class: c, .. } if *c == class))
        };
        assert_eq!(
            sent(MsgClass::Request),
            report.request_hops,
            "{kind} request"
        );
        assert_eq!(sent(MsgClass::Reply), report.reply_hops, "{kind} reply");
        assert_eq!(sent(MsgClass::Push), report.push_hops, "{kind} push");
        assert_eq!(
            sent(MsgClass::Control),
            report.control_hops,
            "{kind} control"
        );

        let served = capture.count(|e| matches!(e, ProbeEvent::QueryServed { .. }));
        assert_eq!(served, report.queries, "{kind} queries");

        let samples = capture.count(|e| matches!(e, ProbeEvent::Sample(_)));
        assert_eq!(samples, report.samples.len() as u64, "{kind} samples");
        assert!(!report.samples.is_empty(), "{kind} produced no samples");

        assert_eq!(capture.len() as u64, report.probe_events, "{kind} totals");
    }
}

/// Time-series samples populate the report even with no probe attached —
/// sampling is driven by the config, not by probe presence.
#[test]
fn samples_populate_without_probe() {
    let cfg = RunConfig::builder(3)
        .nodes(128)
        .warmup_secs(0.0)
        .duration_secs(10_000.0)
        .latency_batch(50)
        .sample_every_secs(1_000.0)
        .build();
    let report = run_simulation_kind(&cfg, SchemeKind::Dup, ProbeSink::disabled());
    assert_eq!(report.probe_events, 0);
    assert!(!report.samples.is_empty());
    let last = report.samples.last().unwrap();
    assert!(last.live_nodes > 0);
}

/// `JsonlProbe` round-trip: the same deterministic run streamed through a
/// JSONL file on disk re-reads into exactly the event stream a
/// `CaptureProbe` saw — same length, same per-class counts, same events in
/// the same order at the same times.
#[test]
fn jsonl_probe_roundtrips_through_file() {
    let cfg = RunConfig::builder(21)
        .nodes(128)
        .warmup_secs(0.0)
        .duration_secs(5_000.0)
        .latency_batch(50)
        .sample_every_secs(1_000.0)
        .build();

    // Reference run into an in-memory capture.
    let capture = CaptureProbe::new();
    let capture_report =
        run_simulation_kind(&cfg, SchemeKind::Dup, ProbeSink::attach(capture.clone()));

    // Identical run streamed to a JSONL file.
    let path = std::env::temp_dir().join(format!("dup_probe_rt_{}.jsonl", std::process::id()));
    let file = std::fs::File::create(&path).expect("create temp trace file");
    let jsonl_report = run_simulation_kind(
        &cfg,
        SchemeKind::Dup,
        ProbeSink::attach(JsonlProbe::new(std::io::BufWriter::new(file))),
    );
    assert_eq!(
        serde_json::to_string(&capture_report).unwrap(),
        serde_json::to_string(&jsonl_report).unwrap(),
        "same config and seed must yield identical reports"
    );

    // Re-read the file and reconcile against the capture.
    let text = std::fs::read_to_string(&path).expect("read temp trace file");
    std::fs::remove_file(&path).ok();
    let lines: Vec<dup_p2p::proto::TraceLine> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every line parses"))
        .collect();
    let events = capture.events();
    assert_eq!(lines.len(), events.len(), "event counts reconcile");
    assert_eq!(lines.len() as u64, capture_report.probe_events);
    for (line, (at, event)) in lines.iter().zip(&events) {
        assert_eq!(line.at_secs, at.as_secs_f64());
        assert_eq!(&line.event, event);
    }

    // The per-class ledger reconciles with the re-read stream too.
    let sent = |class: MsgClass| {
        lines
            .iter()
            .filter(|l| matches!(l.event, ProbeEvent::MsgSent { class: c, .. } if c == class))
            .count() as u64
    };
    assert_eq!(sent(MsgClass::Push), capture_report.push_hops);
    assert_eq!(sent(MsgClass::Control), capture_report.control_hops);
}

/// The paper's Figure 2(a) as a probe trace: N6's subscription climbs the
/// virtual path N6→N5→N3→N2→N1 hop by hop, and the refresh that follows is
/// one direct push N1→N6.
#[test]
fn figure2_trace_shows_virtual_path_then_one_hop_push() {
    let capture = CaptureProbe::new();
    let mut bench = TestBench::with_probe(
        paper_example_tree(),
        DupScheme::new(),
        2,
        ProbeSink::attach(capture.clone()),
    );
    let (n1, n2, n3, n5, n6) = (NodeId(0), NodeId(1), NodeId(2), NodeId(4), NodeId(5));

    bench.make_interested(n6);
    bench.drain();

    // The subscribe is processed at each node of the virtual path, in
    // bottom-up order.
    let subs: Vec<NodeId> = capture
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            ProbeEvent::Subscribe { node, subject } if *subject == n6 => Some(*node),
            _ => None,
        })
        .collect();
    assert_eq!(subs, vec![n6, n5, n3, n2]);
    // Each upward hop is control traffic: N6→N5→N3→N2→N1.
    let control: Vec<(NodeId, NodeId)> = capture
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            ProbeEvent::MsgDelivered {
                from,
                to,
                class: MsgClass::Control,
                ..
            } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert_eq!(control, vec![(n6, n5), (n5, n3), (n3, n2), (n2, n1)]);

    // The refresh push skips the whole search path: one direct hop N1→N6,
    // installing the fresh copy at N6.
    let before = capture.len();
    bench.refresh();
    let after: Vec<ProbeEvent> = capture.events()[before..]
        .iter()
        .map(|(_, e)| e.clone())
        .collect();
    let pushes: Vec<(NodeId, NodeId)> = after
        .iter()
        .filter_map(|e| match e {
            ProbeEvent::MsgDelivered {
                from,
                to,
                class: MsgClass::Push,
                ..
            } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert_eq!(pushes, vec![(n1, n6)]);
    assert!(after
        .iter()
        .any(|e| matches!(e, ProbeEvent::CacheInsert { node, .. } if *node == n6)));

    // The bench's emitted counter agrees with what the capture saw.
    assert_eq!(capture.len() as u64, bench.node.world.probe.emitted());
}
