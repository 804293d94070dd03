//! Property tests for `substitute(N_i, N_j)` races (ISSUE 3, satellite 1).
//!
//! `substitute` is emitted whenever a branch's representative changes —
//! fan-out promotion (a second subscriber appears under a common ancestor),
//! fan-out collapse (an unsubscribe leaves a single subscriber), and
//! graceful hand-off of a DUP-tree node. These tests interleave those
//! triggers *without letting the cascades settle in between*, so substitute
//! messages race concurrent subscribe/unsubscribe traffic for the same
//! entries, then assert that after quiescence plus keep-alive lease rounds
//! the full verification layer — local audits *and* the differential
//! oracle — finds nothing wrong.

use proptest::prelude::*;

use dup_core::testkit::{paper_example_tree, TestBench};
use dup_core::{check_tree_invariants, DupScheme};
use dup_overlay::{random_search_tree, NodeId, SearchTree, TopologyParams};
use dup_proto::scheme::Scheme;
use dup_sim::stream_rng;

fn build_tree(nodes: usize, degree: usize, seed: u64) -> SearchTree {
    random_search_tree(
        TopologyParams {
            nodes,
            max_degree: degree,
        },
        &mut stream_rng(seed, "prop-substitute-topology"),
    )
}

fn pick_live(tree: &SearchTree, raw: usize) -> NodeId {
    let live: Vec<NodeId> = tree.live_nodes().collect();
    live[raw % live.len()]
}

/// Runs `ticks` lease ticks, each drained to quiescence: the first opens
/// an epoch in which every subscribed node re-asserts; each later one
/// first expires the entries the previous epoch left unrenewed. This is
/// the soft-state repair every campaign heals with.
fn heal(bench: &mut TestBench<DupScheme>, ticks: usize) {
    for _ in 0..ticks {
        bench.with_ctx(|s, ctx| s.on_lease_tick(ctx));
        bench.drain();
    }
}

/// An operation that (directly or via its cascade) races the substitute
/// traffic already in flight.
#[derive(Debug, Clone)]
enum RaceOp {
    Subscribe(usize),
    Unsubscribe(usize),
    GracefulLeave(usize),
    Fail(usize),
}

fn race_op() -> impl Strategy<Value = RaceOp> {
    prop_oneof![
        4 => (0usize..1024).prop_map(RaceOp::Subscribe),
        3 => (0usize..1024).prop_map(RaceOp::Unsubscribe),
        1 => (0usize..1024).prop_map(RaceOp::GracefulLeave),
        1 => (0usize..1024).prop_map(RaceOp::Fail),
    ]
}

fn apply(bench: &mut TestBench<DupScheme>, op: &RaceOp) {
    match *op {
        RaceOp::Subscribe(raw) => {
            let node = pick_live(&bench.node.world.tree, raw);
            bench.make_interested(node);
        }
        RaceOp::Unsubscribe(raw) => {
            let node = pick_live(&bench.node.world.tree, raw);
            bench.drop_interest(node);
        }
        RaceOp::GracefulLeave(raw) => {
            if bench.node.world.tree.len() > 2 {
                let node = pick_live(&bench.node.world.tree, raw);
                bench.remove(node, true);
            }
        }
        RaceOp::Fail(raw) => {
            if bench.node.world.tree.len() > 2 {
                let node = pick_live(&bench.node.world.tree, raw);
                bench.remove(node, false);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary racing interleavings settle to a state the differential
    /// oracle accepts, after keep-alive lease rounds — and healing never
    /// cancels a live subscriber's subscription.
    #[test]
    fn substitute_races_settle_to_oracle_exact_state(
        seed in 0u64..1000,
        nodes in 8usize..40,
        degree in 2usize..5,
        ops in prop::collection::vec(race_op(), 2..50),
    ) {
        let tree = build_tree(nodes, degree, seed);
        let mut bench = TestBench::new(tree, DupScheme::new(), 2);
        // Seed some established state so later ops race real cascades.
        for raw in [7usize, 13, 29] {
            bench.make_interested(pick_live(&bench.node.world.tree, raw));
        }
        for op in &ops {
            apply(&mut bench, op); // deliberately NOT drained: cascades race
        }
        bench.drain();
        let subscribed_before: Vec<NodeId> = bench
            .node.world
            .tree
            .live_nodes()
            .filter(|&n| bench.node.scheme.is_subscribed(n))
            .collect();
        heal(&mut bench, 4); // three expiry sweeps
        for &node in &subscribed_before {
            prop_assert!(
                bench.node.scheme.is_subscribed(node),
                "healing cancelled live subscriber {}", node
            );
        }
        let verdict = check_tree_invariants(&bench.node.scheme, &bench.node.world.tree);
        prop_assert!(
            verdict.is_ok(),
            "races left unhealable state after ops {:?}:\n{}",
            ops, verdict.unwrap_err()
        );
    }

    /// The focused race from the issue: a substitute for a key interleaved
    /// with concurrent subscribe/unsubscribe *on that same key*. On the
    /// paper tree, promoting/collapsing the N3 fan-out emits
    /// `substitute(N6, N3)` / `substitute(N3, N4)` etc.; we fire
    /// subscribe/unsubscribe for the very nodes named in those substitutes
    /// while the cascade is in flight, in every interleaving order.
    #[test]
    fn same_key_substitute_interleavings_are_safe(
        order in 0usize..6,
        drop_first in any::<bool>(),
        extra_sub in 0usize..8,
    ) {
        const N4: NodeId = NodeId(3);
        const N6: NodeId = NodeId(5);
        let mut bench = TestBench::new(paper_example_tree(), DupScheme::new(), 2);
        bench.make_interested(N6);
        bench.drain();
        // Trigger the fan-out promotion substitute (N6 -> N3 upstream)...
        bench.make_interested(N4);
        // ...and race it with ops naming the same keys, in all 3! orders.
        type Racer = Box<dyn Fn(&mut TestBench<DupScheme>)>;
        let mut racers: Vec<Racer> = vec![
            Box::new(move |b| if drop_first { b.drop_interest(N6) } else { b.make_interested(N6) }),
            Box::new(|b| b.drop_interest(N4)),
            Box::new(move |b| { b.make_interested(pick_live(&b.node.world.tree, extra_sub)); }),
        ];
        // Apply in the permutation selected by `order`.
        let first = order % 3;
        racers.swap(0, first);
        let second = order / 3; // 0 or 1
        racers.swap(1, 1 + second);
        for r in &racers {
            r(&mut bench);
        }
        bench.drain();
        heal(&mut bench, 4); // three expiry sweeps
        let verdict = check_tree_invariants(&bench.node.scheme, &bench.node.world.tree);
        prop_assert!(
            verdict.is_ok(),
            "same-key race (order {}, drop_first {}) broke invariants:\n{}",
            order, drop_first, verdict.unwrap_err()
        );
    }
}
