//! Differential oracle for the DUP tree.
//!
//! [`crate::audit`] checks *local* structural invariants. This module goes
//! further: from the interest state alone — the set of currently subscribed
//! nodes — it recomputes, by brute force, the *entire* propagation state the
//! protocol should have converged to, and diffs it against the simulated
//! state:
//!
//! 1. **Expected subscriber lists** (`s_list(n) = {n if subscribed} ∪
//!    {representative(c) for each child branch c with subscribers}`),
//!    computed bottom-up over the search tree.
//! 2. **DUP-tree membership**: §III-B characterizes the DUP tree as the
//!    authority plus the subscribed nodes plus the fan-out points, which is
//!    exactly the closure of `subscribed ∪ {root}` under pairwise nearest
//!    common ancestors. Both characterizations are computed independently
//!    and must agree with the simulated fan-out structure.
//!
//! Like the audit, the oracle is meaningful only at quiescence (no
//! maintenance messages in flight).

use std::collections::BTreeSet;
use std::fmt;

use dup_overlay::{NodeId, SearchTree};

use crate::audit::{audit_quiescent, AuditError};
use crate::dup::DupScheme;

/// One disagreement between the simulated state and the oracle's
/// recomputation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleMismatch {
    /// A node's simulated subscriber list differs from the recomputed one
    /// (both sorted).
    ListMismatch {
        /// The list's owner.
        node: NodeId,
        /// What the simulation holds.
        actual: Vec<NodeId>,
        /// What the oracle derives from the subscribed set.
        expected: Vec<NodeId>,
    },
    /// The simulated DUP tree is not the NCA-closure of the subscribed set.
    TreeMismatch {
        /// Closure members missing from the simulated DUP tree.
        missing: Vec<NodeId>,
        /// Simulated DUP-tree members outside the closure.
        extra: Vec<NodeId>,
    },
}

impl fmt::Display for OracleMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleMismatch::ListMismatch {
                node,
                actual,
                expected,
            } => write!(
                f,
                "subscriber list of {node}: simulated {actual:?}, oracle expects {expected:?}"
            ),
            OracleMismatch::TreeMismatch { missing, extra } => write!(
                f,
                "DUP tree vs NCA closure: missing {missing:?}, extra {extra:?}"
            ),
        }
    }
}

/// Everything the verification layer found wrong with a quiescent state:
/// local invariant violations plus oracle disagreements.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Violations of the local structural invariants ([`crate::audit`]).
    pub audit_errors: Vec<AuditError>,
    /// Disagreements with the brute-force recomputation.
    pub oracle_mismatches: Vec<OracleMismatch>,
}

impl InvariantReport {
    /// True when nothing was found wrong.
    fn is_clean(&self) -> bool {
        self.audit_errors.is_empty() && self.oracle_mismatches.is_empty()
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} audit violation(s), {} oracle mismatch(es)",
            self.audit_errors.len(),
            self.oracle_mismatches.len()
        )?;
        for e in &self.audit_errors {
            writeln!(f, "  audit: {e:?}")?;
        }
        for m in &self.oracle_mismatches {
            writeln!(f, "  oracle: {m}")?;
        }
        Ok(())
    }
}

/// The subscriber lists a converged DUP protocol must hold, recomputed
/// bottom-up from `subscribed` alone. Indexed by `NodeId::index()`; every
/// list is sorted. Dead nodes hold empty lists.
pub fn expected_lists(tree: &SearchTree, subscribed: &BTreeSet<NodeId>) -> Vec<Vec<NodeId>> {
    let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); tree.capacity()];
    let mut order: Vec<NodeId> = tree.live_nodes().collect();
    // Children before parents.
    order.sort_by_key(|&n| std::cmp::Reverse(tree.depth(n)));
    for node in order {
        let mut list = Vec::new();
        if subscribed.contains(&node) {
            list.push(node);
        }
        for &child in tree.children(node) {
            let branch = &lists[child.index()];
            match branch.len() {
                0 => {}
                1 => list.push(branch[0]),
                _ => list.push(child),
            }
        }
        list.sort();
        lists[node.index()] = list;
    }
    lists
}

/// The nearest common ancestor of two live nodes.
fn nca(tree: &SearchTree, a: NodeId, b: NodeId) -> NodeId {
    let (mut a, mut b) = (a, b);
    while tree.depth(a) > tree.depth(b) {
        a = tree.parent(a).expect("non-root node has a parent");
    }
    while tree.depth(b) > tree.depth(a) {
        b = tree.parent(b).expect("non-root node has a parent");
    }
    while a != b {
        a = tree.parent(a).expect("non-root node has a parent");
        b = tree.parent(b).expect("non-root node has a parent");
    }
    a
}

/// The closure of `seeds` under pairwise nearest common ancestors, computed
/// as a brute-force fixpoint.
pub fn nca_closure(tree: &SearchTree, seeds: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
    let mut closure = seeds.clone();
    loop {
        let members: Vec<NodeId> = closure.iter().copied().collect();
        let mut grew = false;
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                grew |= closure.insert(nca(tree, a, b));
            }
        }
        if !grew {
            return closure;
        }
    }
}

/// Diffs the simulated state against the oracle's recomputation. The
/// subscribed set is read off the simulated state itself (`n ∈ s_list(n)`):
/// the oracle then checks that *everything else* — virtual paths, fan-out
/// points, DUP-tree membership — is exactly what that set implies.
pub fn oracle_diff(scheme: &DupScheme, tree: &SearchTree) -> Vec<OracleMismatch> {
    let mut mismatches = Vec::new();
    let subscribed: BTreeSet<NodeId> = tree
        .live_nodes()
        .filter(|&n| scheme.is_subscribed(n))
        .collect();

    // (1) Per-node subscriber lists.
    let expected = expected_lists(tree, &subscribed);
    for node in tree.live_nodes() {
        let mut actual: Vec<NodeId> = scheme.s_list(node).to_vec();
        actual.sort();
        let want = &expected[node.index()];
        if &actual != want {
            mismatches.push(OracleMismatch::ListMismatch {
                node,
                actual,
                expected: want.clone(),
            });
        }
    }

    // (2) DUP-tree membership vs the independent NCA-closure
    // characterization. The simulated DUP tree: the root, plus every node
    // that is subscribed or a fan-out point (list length >= 2).
    let mut seeds = subscribed.clone();
    seeds.insert(tree.root());
    let closure = nca_closure(tree, &seeds);
    let simulated: BTreeSet<NodeId> = tree
        .live_nodes()
        .filter(|&n| n == tree.root() || scheme.is_subscribed(n) || scheme.s_list(n).len() >= 2)
        .collect();
    if simulated != closure {
        mismatches.push(OracleMismatch::TreeMismatch {
            missing: closure.difference(&simulated).copied().collect(),
            extra: simulated.difference(&closure).copied().collect(),
        });
    }
    mismatches
}

/// The full verification layer: local audits plus the differential oracle,
/// on a quiescent state. `Ok(())` when everything agrees.
pub fn check_tree_invariants(scheme: &DupScheme, tree: &SearchTree) -> Result<(), InvariantReport> {
    let report = InvariantReport {
        audit_errors: audit_quiescent(scheme, tree).err().unwrap_or_default(),
        oracle_mismatches: oracle_diff(scheme, tree),
    };
    if report.is_clean() {
        Ok(())
    } else {
        Err(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{paper_example_tree, TestBench};
    use crate::DupScheme;
    use dup_proto::scheme::Scheme;

    const N1: NodeId = NodeId(0);
    const N2: NodeId = NodeId(1);
    const N3: NodeId = NodeId(2);
    const N4: NodeId = NodeId(3);
    const N5: NodeId = NodeId(4);
    const N6: NodeId = NodeId(5);

    fn set(nodes: &[NodeId]) -> BTreeSet<NodeId> {
        nodes.iter().copied().collect()
    }

    #[test]
    fn expected_lists_reproduce_figure2a() {
        let tree = paper_example_tree();
        let lists = expected_lists(&tree, &set(&[N6]));
        assert_eq!(lists[N6.index()], vec![N6]);
        assert_eq!(lists[N5.index()], vec![N6]);
        assert_eq!(lists[N3.index()], vec![N6]);
        assert_eq!(lists[N2.index()], vec![N6]);
        assert_eq!(lists[N1.index()], vec![N6]);
        assert_eq!(lists[N4.index()], Vec::<NodeId>::new());
    }

    #[test]
    fn expected_lists_reproduce_figure2b_fanout() {
        let tree = paper_example_tree();
        let lists = expected_lists(&tree, &set(&[N4, N6]));
        assert_eq!(lists[N3.index()], vec![N4, N6]);
        // N3 is a fan-out point: upstream holds N3 itself.
        assert_eq!(lists[N2.index()], vec![N3]);
        assert_eq!(lists[N1.index()], vec![N3]);
    }

    #[test]
    fn nca_closure_matches_figure2b_dup_tree() {
        let tree = paper_example_tree();
        assert_eq!(nca(&tree, N4, N6), N3);
        assert_eq!(nca(&tree, N1, N6), N1);
        assert_eq!(nca(&tree, N6, N6), N6);
        let closure = nca_closure(&tree, &set(&[N1, N4, N6]));
        assert_eq!(closure, set(&[N1, N3, N4, N6]));
    }

    #[test]
    fn protocol_state_satisfies_the_oracle() {
        let mut b = TestBench::new(paper_example_tree(), DupScheme::new(), 2);
        for n in [N6, N4] {
            b.make_interested(n);
            b.drain();
        }
        check_tree_invariants(&b.node.scheme, &b.node.world.tree).unwrap();
        b.drop_interest(N6);
        b.drain();
        check_tree_invariants(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn oracle_flags_an_orphaned_virtual_path() {
        let mut b = TestBench::new(paper_example_tree(), DupScheme::new(), 2);
        b.make_interested(N6);
        b.drain();
        // Simulate a lost unsubscribe: N6 clears itself locally but the
        // upstream path never hears about it.
        b.node.scheme.test_clear_list(N6);
        let report = check_tree_invariants(&b.node.scheme, &b.node.world.tree).unwrap_err();
        assert!(
            report
                .oracle_mismatches
                .iter()
                .any(|m| matches!(m, OracleMismatch::ListMismatch { node, .. } if *node == N5)),
            "orphaned path went unflagged: {report}"
        );
        let rendered = report.to_string();
        assert!(rendered.contains("oracle:"), "report renders mismatches");
    }

    #[test]
    fn lease_epoch_expires_orphaned_entries() {
        let mut b = TestBench::new(paper_example_tree(), DupScheme::new(), 2);
        b.make_interested(N6);
        b.drain();
        b.make_interested(N4);
        b.drain();
        // Lose N4's unsubscribe entirely: upstream still fans out at N3.
        b.node.scheme.test_clear_list(N4);
        assert!(check_tree_invariants(&b.node.scheme, &b.node.world.tree).is_err());
        // Two lease ticks: in the first epoch every live subscriber
        // re-asserts; the second tick expires the leases nobody renewed.
        for _ in 0..2 {
            b.with_ctx(|s, ctx| s.on_lease_tick(ctx));
            b.drain();
        }
        // The stale N4 lease expired; N6's path survives intact.
        check_tree_invariants(&b.node.scheme, &b.node.world.tree).unwrap();
        assert_eq!(b.node.scheme.s_list(N1), &[N6]);
    }
}
