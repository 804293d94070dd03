//! Property-based tests of the DUP tree invariants (DESIGN.md §6.4).
//!
//! Strategy: generate a random search tree and a random sequence of protocol
//! operations (subscribe, unsubscribe, joins, graceful leaves, silent
//! failures), replay them through the test bench, and audit the quiescent
//! state after each settles. A second suite stresses the *concurrent*
//! regime — operations applied while maintenance messages are still in
//! flight — and checks that one lease tick restores full push
//! coverage. CUP's registration tree gets the same exact-delivery check as
//! DUP's push tree.

use proptest::prelude::*;

use std::collections::BTreeSet;

use dup_core::testkit::TestBench;
use dup_core::{audit_quiescent, check_tree_invariants, DupScheme};
use dup_overlay::{random_search_tree, NodeId, SearchTree, TopologyParams};
use dup_proto::scheme::Scheme;
use dup_proto::CupScheme;
use dup_sim::stream_rng;

/// A protocol operation, with node choices as raw indices resolved against
/// the live set at execution time.
#[derive(Debug, Clone)]
enum Op {
    Subscribe(usize),
    Unsubscribe(usize),
    JoinLeaf(usize),
    JoinBetween(usize),
    Leave(usize),
    Fail(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..1024).prop_map(Op::Subscribe),
        2 => (0usize..1024).prop_map(Op::Unsubscribe),
        1 => (0usize..1024).prop_map(Op::JoinLeaf),
        1 => (0usize..1024).prop_map(Op::JoinBetween),
        1 => (0usize..1024).prop_map(Op::Leave),
        1 => (0usize..1024).prop_map(Op::Fail),
    ]
}

fn build_tree(nodes: usize, degree: usize, seed: u64) -> SearchTree {
    random_search_tree(
        TopologyParams {
            nodes,
            max_degree: degree,
        },
        &mut stream_rng(seed, "prop-topology"),
    )
}

/// Resolves an index to a live node (wrapping), or None if the tree is a
/// single node and the op needs a non-root.
fn pick_live(tree: &SearchTree, raw: usize) -> NodeId {
    let live: Vec<NodeId> = tree.live_nodes().collect();
    live[raw % live.len()]
}

fn pick_live_non_root(tree: &SearchTree, raw: usize) -> Option<NodeId> {
    let live: Vec<NodeId> = tree.live_nodes().filter(|&n| n != tree.root()).collect();
    if live.is_empty() {
        None
    } else {
        Some(live[raw % live.len()])
    }
}

/// Churn-heavy histories: most operations join or remove a node, so
/// departed slots are reclaimed and reused again and again.
fn churn_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..1024).prop_map(Op::Subscribe),
        1 => (0usize..1024).prop_map(Op::Unsubscribe),
        2 => (0usize..1024).prop_map(Op::JoinLeaf),
        2 => (0usize..1024).prop_map(Op::JoinBetween),
        2 => (0usize..1024).prop_map(Op::Leave),
        2 => (0usize..1024).prop_map(Op::Fail),
    ]
}

/// Interest gains and losses only: the history CUP's registration tree is
/// driven by.
fn interest_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..1024).prop_map(Op::Subscribe),
        2 => (0usize..1024).prop_map(Op::Unsubscribe),
    ]
}

fn apply_op<S: Scheme>(bench: &mut TestBench<S>, op: &Op) {
    match *op {
        Op::Subscribe(raw) => {
            let node = pick_live(&bench.node.world.tree, raw);
            bench.make_interested(node);
        }
        Op::Unsubscribe(raw) => {
            let node = pick_live(&bench.node.world.tree, raw);
            bench.drop_interest(node);
        }
        Op::JoinLeaf(raw) => {
            let parent = pick_live(&bench.node.world.tree, raw);
            bench.join_leaf(parent);
        }
        Op::JoinBetween(raw) => {
            if let Some(child) = pick_live_non_root(&bench.node.world.tree, raw) {
                let parent = bench.node.world.tree.parent(child).expect("non-root");
                bench.join_between(parent, child);
            }
        }
        Op::Leave(raw) => {
            if bench.node.world.tree.len() > 2 {
                let node = pick_live(&bench.node.world.tree, raw);
                bench.remove(node, true);
            }
        }
        Op::Fail(raw) => {
            if bench.node.world.tree.len() > 2 {
                let node = pick_live(&bench.node.world.tree, raw);
                bench.remove(node, false);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// In the quiescent regime (every operation settles before the next),
    /// all DUP invariants hold after every step.
    #[test]
    fn quiescent_ops_preserve_all_invariants(
        seed in 0u64..1000,
        nodes in 8usize..40,
        degree in 2usize..5,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let tree = build_tree(nodes, degree, seed);
        let mut bench = TestBench::new(tree, DupScheme::new(), 2);
        for op in &ops {
            apply_op(&mut bench, op);
            bench.drain();
            let tree = &bench.node.world.tree;
            let audit = audit_quiescent(&bench.node.scheme, tree);
            prop_assert!(audit.is_ok(), "op {:?} broke invariants: {:?}", op, audit.unwrap_err());
            // §III-B: a node keeps at most one entry per direct child, plus
            // its own enrollment.
            for node in tree.live_nodes() {
                let entries = bench.node.scheme.s_list(node).len();
                prop_assert!(
                    entries <= tree.children(node).len() + 1,
                    "op {:?}: {} entries at {} with {} children",
                    op, entries, node, tree.children(node).len()
                );
            }
        }
    }

    /// Pushing after an arbitrary quiescent history delivers the new version
    /// to every subscribed node, and only DUP-tree members receive anything.
    #[test]
    fn pushes_reach_exactly_the_dup_tree(
        seed in 0u64..1000,
        nodes in 8usize..40,
        ops in prop::collection::vec(op_strategy(), 1..30),
    ) {
        let tree = build_tree(nodes, 4, seed);
        let mut bench = TestBench::new(tree, DupScheme::new(), 2);
        for op in &ops {
            apply_op(&mut bench, op);
            bench.drain();
        }
        let record = bench.refresh();
        let reach = bench.node.scheme.push_reach(&bench.node.world.tree).expect("DUP pushes");
        for node in bench.node.world.tree.live_nodes() {
            let got = bench.node.world.cache.raw(node).map(|r| r.version) == Some(record.version);
            if node == bench.node.world.tree.root() {
                continue;
            }
            if bench.node.scheme.is_subscribed(node) {
                prop_assert!(got, "subscriber {node} missed the push");
            }
            prop_assert_eq!(
                got,
                reach.contains(&node),
                "push receipt at {} disagrees with push_reach", node
            );
        }
    }

    /// CUP's twin of the property above: after an arbitrary quiescent
    /// history of interest gains and losses, a push installs the new version
    /// at every registered node and never outside the registration tree.
    #[test]
    fn cup_pushes_reach_exactly_the_registered_nodes(
        seed in 0u64..1000,
        nodes in 8usize..40,
        ops in prop::collection::vec(interest_op_strategy(), 1..30),
    ) {
        let tree = build_tree(nodes, 4, seed);
        let mut bench = TestBench::new(tree, CupScheme::new(), 2);
        for op in &ops {
            apply_op(&mut bench, op);
            bench.drain();
        }
        let record = bench.refresh();
        let reach = bench.node.scheme.push_reach(&bench.node.world.tree).expect("CUP pushes");
        for node in bench.node.world.tree.live_nodes() {
            if node == bench.node.world.tree.root() {
                continue;
            }
            let got = bench.node.world.cache.raw(node).map(|r| r.version) == Some(record.version);
            if bench.node.scheme.is_registered(node) {
                prop_assert!(got, "registered {node} missed the push");
            }
            prop_assert!(!got || reach.contains(&node), "{node} outside push_reach got the push");
        }
    }

    /// In the concurrent regime (maintenance messages still in flight while
    /// further operations land), a final settle plus one lease tick
    /// restores full push coverage of subscribed nodes.
    #[test]
    fn concurrent_ops_converge_after_keepalive(
        seed in 0u64..1000,
        nodes in 8usize..40,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let tree = build_tree(nodes, 4, seed);
        let mut bench = TestBench::new(tree, DupScheme::new(), 2);
        for op in &ops {
            apply_op(&mut bench, op); // no drain: ops race in-flight messages
        }
        bench.drain();
        // One lease tick: every subscribed node re-asserts itself.
        let subscribed: Vec<NodeId> = bench
            .node.world
            .tree
            .live_nodes()
            .filter(|&n| bench.node.scheme.is_subscribed(n))
            .collect();
        bench.with_ctx(|s, ctx| s.on_lease_tick(ctx));
        bench.drain();
        let reach = bench.node.scheme.push_set(&bench.node.world.tree);
        for node in subscribed {
            if node == bench.node.world.tree.root() {
                continue;
            }
            prop_assert!(
                bench.node.world.tree.is_alive(node) && reach.contains(&node),
                "subscriber {} unreachable after a lease tick", node
            );
        }
    }

    /// Unsubscribing everyone always clears every subscriber list in the
    /// whole tree — no leaked state.
    #[test]
    fn full_unsubscribe_clears_all_state(
        seed in 0u64..1000,
        nodes in 4usize..30,
        subs in prop::collection::vec(0usize..1024, 1..10),
    ) {
        let tree = build_tree(nodes, 4, seed);
        let mut bench = TestBench::new(tree, DupScheme::new(), 2);
        for &raw in &subs {
            let node = pick_live(&bench.node.world.tree, raw);
            bench.make_interested(node);
            bench.drain();
        }
        let subscribed: Vec<NodeId> = bench
            .node.world
            .tree
            .live_nodes()
            .filter(|&n| bench.node.scheme.is_subscribed(n))
            .collect();
        for node in subscribed {
            bench.drop_interest(node);
            bench.drain();
        }
        for node in bench.node.world.tree.live_nodes() {
            prop_assert!(
                bench.node.scheme.s_list(node).is_empty(),
                "leaked entries at {}: {:?}", node, bench.node.scheme.s_list(node)
            );
        }
    }

    /// Every departed slot is reclaimed and the next joins reuse them, yet
    /// no id is held by two lives: an id that leaves the live set never
    /// comes back, though its slot does. Operations race in-flight
    /// maintenance; once they settle, two lease ticks bring every list to
    /// the oracle's.
    #[test]
    fn reused_slots_never_revive_an_id_and_settle_to_the_oracle(
        seed in 0u64..1000,
        nodes in 8usize..30,
        ops in prop::collection::vec(churn_op_strategy(), 1..80),
    ) {
        let tree = build_tree(nodes, 4, seed);
        let mut bench = TestBench::new(tree, DupScheme::new(), 2);
        let mut live: BTreeSet<NodeId> = bench.node.world.tree.live_nodes().collect();
        let mut departed = BTreeSet::new();
        for op in &ops {
            apply_op(&mut bench, op); // no drain: ops race in-flight messages
            let now: BTreeSet<NodeId> = bench.node.world.tree.live_nodes().collect();
            if let Some(id) = now.intersection(&departed).next() {
                prop_assert!(false, "op {:?} revived {}", op, id);
            }
            departed.extend(live.difference(&now));
            live = now;
        }
        let tree = &bench.node.world.tree;
        prop_assert_eq!(tree.capacity(), tree.peak_len(), "a free slot was passed over");
        bench.drain();
        for _ in 0..2 {
            bench.with_ctx(|s, ctx| s.on_lease_tick(ctx));
            bench.drain();
        }
        let settled = check_tree_invariants(&bench.node.scheme, &bench.node.world.tree);
        prop_assert!(settled.is_ok(), "{}", settled.unwrap_err());
    }
}
