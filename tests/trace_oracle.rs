//! The tracer as a verified artifact: propagation trees reconstructed from
//! the probe stream must match the differential oracle's predictions.
//!
//! For every refresh of a traced DUP bench, the reconstructed
//! [`dup_p2p::proto::UpdateTrace`] has to agree with the PR-3 oracle on two
//! independent characterizations of the DUP tree:
//!
//! * the set of nodes the push reached, plus the root, equals the NCA
//!   closure of `subscribed ∪ {root}` (§III-B), and
//! * the delivered edge set equals the push edges implied by walking the
//!   oracle's expected subscriber lists down from the root.

use std::collections::BTreeSet;

use dup_core::oracle::{expected_lists, nca_closure, oracle_diff};
use dup_core::testkit::{paper_example_tree, TestBench};
use dup_p2p::prelude::*;
use dup_p2p::proto::{
    EdgeKind, FaultConfig, MsgClass, ReliabilityConfig, TraceCollector, UpdateTrace,
};

/// The push edges the oracle predicts for one refresh: walk the expected
/// subscriber lists down from the root; every non-self entry is one direct
/// push hop.
fn oracle_push_edges(
    tree: &SearchTree,
    subscribed: &BTreeSet<NodeId>,
) -> BTreeSet<(NodeId, NodeId)> {
    let lists = expected_lists(tree, subscribed);
    let mut edges = BTreeSet::new();
    let mut stack = vec![tree.root()];
    while let Some(n) = stack.pop() {
        for &e in &lists[n.index()] {
            if e != n {
                edges.insert((n, e));
                stack.push(e);
            }
        }
    }
    edges
}

/// Publishes the next version, rebuilds the collector from the full capture,
/// and asserts the reconstructed propagation tree equals the oracle's
/// prediction for the current interest state.
fn refresh_and_check(
    bench: &mut TestBench<DupScheme>,
    capture: &CaptureProbe,
    subscribed: &BTreeSet<NodeId>,
) -> UpdateTrace {
    let version = bench.refresh().version.0;
    let collector = TraceCollector::from_events(&capture.events());
    let trace = collector
        .propagation_tree(version)
        .expect("publish observed for the refreshed version");
    let tree = &bench.node.world.tree;

    assert!(
        trace.is_tree(),
        "v{version}: delivered edges are not a tree"
    );
    assert_eq!(trace.lost, 0, "v{version}: fault-free bench lost a push");
    assert_eq!(trace.origin, tree.root(), "v{version}: wrong origin");

    // Characterization 1: reached ∪ {root} is the NCA closure.
    let mut seeds = subscribed.clone();
    seeds.insert(tree.root());
    let closure = nca_closure(tree, &seeds);
    let mut reached = trace.reached();
    reached.insert(tree.root());
    assert_eq!(reached, closure, "v{version}: reached set ≠ NCA closure");

    // Characterization 2: the edge set is exactly the oracle's push walk.
    assert_eq!(
        trace.edge_set(),
        oracle_push_edges(tree, subscribed),
        "v{version}: edge set ≠ oracle push edges"
    );

    // Edge-kind classification agrees with the (quiescent) search tree.
    for e in &trace.edges {
        let neighbours = tree.parent(e.to) == Some(e.from) || tree.parent(e.from) == Some(e.to);
        assert_eq!(
            e.kind == EdgeKind::TreeHop,
            neighbours,
            "v{version}: edge {}→{} misclassified as {:?}",
            e.from,
            e.to,
            e.kind
        );
    }

    // And the protocol state itself still satisfies the differential oracle.
    let mismatches = oracle_diff(&bench.node.scheme, tree);
    assert!(mismatches.is_empty(), "v{version}: {mismatches:?}");
    trace
}

/// Figure 2 as a traced run: the reconstructed trees track the oracle
/// through every interest change on the paper's six-node example.
#[test]
fn traced_trees_match_oracle_on_paper_example() {
    let capture = CaptureProbe::new();
    let mut bench = TestBench::with_probe(
        paper_example_tree(),
        DupScheme::new(),
        2,
        ProbeSink::attach(capture.clone()),
    );
    let (n1, n3, n4, n6) = (NodeId(0), NodeId(2), NodeId(3), NodeId(5));
    let mut subscribed = BTreeSet::new();

    // Nobody subscribed: the push tree is just the root.
    let trace = refresh_and_check(&mut bench, &capture, &subscribed);
    assert!(trace.edges.is_empty());

    // Figure 2(a): N6 alone — one direct short-cut push N1→N6.
    bench.make_interested(n6);
    bench.drain();
    subscribed.insert(n6);
    let trace = refresh_and_check(&mut bench, &capture, &subscribed);
    assert_eq!(trace.edge_set(), [(n1, n6)].into_iter().collect());
    assert_eq!(trace.edges[0].kind, EdgeKind::ShortCut);

    // Figure 2(b): N4 joins — N3 becomes the fan-out point.
    bench.make_interested(n4);
    bench.drain();
    subscribed.insert(n4);
    let trace = refresh_and_check(&mut bench, &capture, &subscribed);
    assert_eq!(
        trace.edge_set(),
        [(n1, n3), (n3, n4), (n3, n6)].into_iter().collect()
    );
    assert_eq!(trace.max_depth(), 2);

    // N6 leaves: the fan-out collapses back to one direct push.
    bench.drop_interest(n6);
    bench.drain();
    subscribed.remove(&n6);
    let trace = refresh_and_check(&mut bench, &capture, &subscribed);
    assert_eq!(trace.edge_set(), [(n1, n4)].into_iter().collect());

    // N4 leaves too: back to an empty tree.
    bench.drop_interest(n4);
    bench.drain();
    subscribed.remove(&n4);
    let trace = refresh_and_check(&mut bench, &capture, &subscribed);
    assert!(trace.edges.is_empty());
}

/// A three-level, twelve-leaf tree with a scattered subscriber set, checked
/// through interest changes and churn: the traced tree follows the oracle at
/// every step.
#[test]
fn traced_trees_match_oracle_under_churn() {
    // Root with 3 subtrees, each an inner node with 4 leaves.
    let mut tree = SearchTree::new_root();
    let root = tree.root();
    let mut inners = Vec::new();
    let mut leaves = Vec::new();
    for _ in 0..3 {
        let inner = tree.add_leaf(root);
        inners.push(inner);
        for _ in 0..4 {
            leaves.push(tree.add_leaf(inner));
        }
    }
    let capture = CaptureProbe::new();
    let mut bench = TestBench::with_probe(
        tree,
        DupScheme::new(),
        2,
        ProbeSink::attach(capture.clone()),
    );
    let mut subscribed: BTreeSet<NodeId> = BTreeSet::new();

    // Two leaves under the first inner node, one under the second.
    for &n in &[leaves[0], leaves[1], leaves[4]] {
        bench.make_interested(n);
        bench.drain();
        subscribed.insert(n);
    }
    let trace = refresh_and_check(&mut bench, &capture, &subscribed);
    // inners[0] must fan out; leaves[4] is reached by a short-cut from root.
    assert!(trace.reached().contains(&inners[0]));
    assert!(!trace.reached().contains(&inners[1]));

    // A new leaf joins under the third inner node and subscribes.
    let newcomer = bench.join_leaf(inners[2]);
    bench.drain();
    bench.make_interested(newcomer);
    bench.drain();
    subscribed.insert(newcomer);
    refresh_and_check(&mut bench, &capture, &subscribed);

    // A node splices into the path above inners[0]: the short-cuts must
    // still skip it (it is neither subscribed nor a fan-out point).
    let spliced = bench.join_between(root, inners[0]);
    bench.drain();
    let trace = refresh_and_check(&mut bench, &capture, &subscribed);
    assert!(!trace.reached().contains(&spliced));

    // Graceful departure of an unsubscribed leaf, then of a subscriber.
    bench.remove(leaves[7], true);
    bench.drain();
    refresh_and_check(&mut bench, &capture, &subscribed);

    bench.remove(leaves[1], true);
    bench.drain();
    subscribed.remove(&leaves[1]);
    let trace = refresh_and_check(&mut bench, &capture, &subscribed);
    // With one subscriber left under inners[0], the fan-out point is gone.
    assert!(!trace.reached().contains(&inners[0]));
}

/// A dropped push that the reliability layer retransmits must land in the
/// propagation tree of the **original** update: the retransmission reuses
/// the first send's span, so the collector books the recovery delivery
/// under the same trace id instead of opening a phantom update.
///
/// The run injects drops only (no fault duplication), so any edge observed
/// with more than one delivery is necessarily a retransmitted copy of a
/// message whose ack was lost — double proof that retransmits carry the
/// original causal identity.
#[test]
fn retransmitted_pushes_are_attributed_to_the_original_update() {
    let mut cfg = RunConfig::builder(0xD0_5E_ED)
        .nodes(48)
        .lambda(1.5)
        .protocol(ProtocolConfig {
            ttl_secs: 600.0,
            push_lead_secs: 30.0,
            threshold_c: 2,
            ..ProtocolConfig::default()
        })
        .warmup_secs(200.0)
        .duration_secs(2_500.0)
        .build();
    cfg.faults = FaultConfig {
        drop_p: 0.25,
        ..FaultConfig::default() // empty windows = faulted for the whole run
    };
    cfg.reliability = ReliabilityConfig {
        enabled: true,
        ack_timeout_secs: 3.0,
        max_retries: 5,
        lease_every_secs: 0.0,
    };
    cfg.validate();

    let capture = CaptureProbe::new();
    run_simulation_kind(&cfg, SchemeKind::Dup, ProbeSink::attach(capture.clone()));
    let events = capture.events();

    // The scenario must actually exercise the recovery path.
    let retransmitted_pushes: Vec<(f64, NodeId, NodeId)> = events
        .iter()
        .filter_map(|(at, ev)| match ev {
            ProbeEvent::Retransmit {
                from,
                to,
                class: MsgClass::Push,
                ..
            } => Some((at.as_secs_f64(), *from, *to)),
            _ => None,
        })
        .collect();
    assert!(
        !retransmitted_pushes.is_empty(),
        "scenario produced no push retransmissions"
    );

    let collector = TraceCollector::from_events(&events);
    let versions: BTreeSet<u64> = events
        .iter()
        .filter_map(|(_, ev)| match ev {
            ProbeEvent::UpdatePublished { version, .. } => Some(*version),
            _ => None,
        })
        .collect();
    let traces: Vec<UpdateTrace> = versions
        .iter()
        .filter_map(|&v| collector.propagation_tree(v))
        .collect();
    assert!(!traces.is_empty(), "no propagation trees reconstructed");

    // At least one retransmitted push must show up as a *delivered* edge of
    // an update's tree, completed at or after the retransmission fired —
    // the recovery was attributed to the update it repaired.
    let recovered = retransmitted_pushes.iter().any(|&(at, from, to)| {
        traces.iter().any(|t| {
            t.edges
                .iter()
                .any(|e| e.from == from && e.to == to && e.delivered_secs >= at)
        })
    });
    assert!(
        recovered,
        "no retransmitted push was booked into its original update's tree"
    );

    // With duplicate_p = 0, a second delivery of the same span can only be
    // a retransmission racing its (lost or late) ack: the collector must
    // merge it into the existing edge, and the receiver must suppress the
    // duplicate dispatch rather than re-applying the update.
    let doubly_delivered = traces
        .iter()
        .flat_map(|t| &t.edges)
        .any(|e| e.deliveries > 1);
    assert!(
        doubly_delivered,
        "expected at least one ack-loss double delivery merged into its edge"
    );
    assert!(
        events
            .iter()
            .any(|(_, ev)| matches!(ev, ProbeEvent::DupSuppressed { .. })),
        "receivers never suppressed a duplicate tracked delivery"
    );
}
