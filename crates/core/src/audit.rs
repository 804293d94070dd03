//! Quiescent-state invariant audits for the DUP tree.
//!
//! These checks formalize the structural claims of §III-B and back the
//! property tests: run them only when no maintenance messages are in flight
//! (the protocol is intentionally eventually-consistent while messages
//! travel).

use dup_overlay::{NodeId, SearchTree};

use crate::dup::DupScheme;

/// A violated DUP invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// A subscriber list contains the same entry twice.
    DuplicateEntry {
        /// The list's owner.
        node: NodeId,
        /// The duplicated entry.
        entry: NodeId,
    },
    /// An entry refers to a dead node.
    DeadEntry {
        /// The list's owner.
        node: NodeId,
        /// The dead entry.
        entry: NodeId,
    },
    /// An entry is neither the node itself nor a strict descendant.
    EntryNotDescendant {
        /// The list's owner.
        node: NodeId,
        /// The out-of-subtree entry.
        entry: NodeId,
    },
    /// Two entries share a downstream branch ("the subscriber list needs at
    /// most one entry for each downstream branch").
    BranchConflict {
        /// The list's owner.
        node: NodeId,
        /// The branch (child of `node`) claimed twice.
        branch: NodeId,
    },
    /// A node's parent does not hold the node's branch representative.
    VirtualPathBroken {
        /// The node whose representative is mis-recorded upstream.
        node: NodeId,
        /// Its parent.
        parent: NodeId,
        /// What the parent should hold for this branch.
        expected: NodeId,
    },
    /// An entry is recorded for a branch with no representative below.
    StaleUpstreamEntry {
        /// The list's owner.
        node: NodeId,
        /// The entry with no live subscription below.
        entry: NodeId,
    },
    /// A subscribed node is not reachable by pushes from the root.
    SubscriberUnreachable {
        /// The unreachable subscriber.
        node: NodeId,
    },
}

/// Checks every DUP invariant in a quiescent state (no messages in flight).
///
/// Verifies, for every live node:
///
/// 1. subscriber-list entries are unique, alive, and within the node's
///    subtree (or the node itself);
/// 2. at most one entry per downstream branch;
/// 3. the parent's entry for the node's branch is exactly the node's
///    representative (the virtual-path invariant), and conversely no parent
///    holds an entry for a branch without subscribers;
/// 4. pushes from the root reach exactly the set of subscribed nodes (plus
///    the fan-out relays on the DUP tree).
pub fn audit_quiescent(scheme: &DupScheme, tree: &SearchTree) -> Result<(), Vec<AuditError>> {
    let mut errors = Vec::new();
    for node in tree.live_nodes() {
        let list = scheme.s_list(node);
        // 1. uniqueness / liveness / subtree membership.
        for (i, &e) in list.iter().enumerate() {
            if list[..i].contains(&e) {
                errors.push(AuditError::DuplicateEntry { node, entry: e });
            }
            if !tree.is_alive(e) {
                errors.push(AuditError::DeadEntry { node, entry: e });
                continue;
            }
            if e != node && !tree.is_ancestor(node, e) {
                errors.push(AuditError::EntryNotDescendant { node, entry: e });
            }
        }
        // 2. one entry per branch.
        let mut branches: Vec<NodeId> = Vec::with_capacity(list.len());
        for &e in list {
            if e == node || !tree.is_alive(e) {
                continue;
            }
            if let Some(branch) = tree.branch_toward(node, e) {
                if branches.contains(&branch) {
                    errors.push(AuditError::BranchConflict { node, branch });
                } else {
                    branches.push(branch);
                }
            }
        }
        // 3. the parent holds exactly this node's representative.
        if let Some(parent) = tree.parent(node) {
            let parent_entry = scheme
                .s_list(parent)
                .iter()
                .copied()
                // Dead entries are reported by check 1 and carry no branch
                // information (their ancestry is gone).
                .filter(|&e| tree.is_alive(e))
                .find(|&e| e != parent && (e == node || tree.is_ancestor(node, e)));
            match (scheme.representative(node), parent_entry) {
                (Some(rep), Some(held)) if rep != held => {
                    errors.push(AuditError::VirtualPathBroken {
                        node,
                        parent,
                        expected: rep,
                    });
                }
                (Some(rep), None) => errors.push(AuditError::VirtualPathBroken {
                    node,
                    parent,
                    expected: rep,
                }),
                (None, Some(held)) => errors.push(AuditError::StaleUpstreamEntry {
                    node: parent,
                    entry: held,
                }),
                _ => {}
            }
        }
    }
    // 4. push coverage: every subscribed node is reached from the root.
    let reached = scheme.push_set(tree);
    for node in tree.live_nodes() {
        if scheme.is_subscribed(node) && node != tree.root() && !reached.contains(&node) {
            errors.push(AuditError::SubscriberUnreachable { node });
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod negative_tests {
    use super::*;
    use crate::dup::DupScheme;
    use crate::testkit::{paper_example_tree, TestBench};

    const N3: NodeId = NodeId(2);
    const N4: NodeId = NodeId(3);
    const N6: NodeId = NodeId(5);

    fn subscribed_bench() -> TestBench<DupScheme> {
        let mut b = TestBench::new(paper_example_tree(), DupScheme::new(), 2);
        b.make_interested(N6);
        b.drain();
        b
    }

    fn has<F: Fn(&AuditError) -> bool>(errs: &[AuditError], pred: F) -> bool {
        errs.iter().any(pred)
    }

    #[test]
    fn detects_duplicate_entries() {
        let mut b = subscribed_bench();
        b.node.scheme.test_inject_entry(N3, N6); // N6 already present
        let errs = audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap_err();
        assert!(has(&errs, |e| matches!(
            e,
            AuditError::DuplicateEntry { .. }
        )));
    }

    #[test]
    fn detects_out_of_subtree_entries() {
        let mut b = subscribed_bench();
        // N4 is not in N6's subtree.
        b.node.scheme.test_inject_entry(N6, N4);
        let errs = audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap_err();
        assert!(has(&errs, |e| matches!(
            e,
            AuditError::EntryNotDescendant { .. }
        )));
    }

    #[test]
    fn detects_dead_entries() {
        let mut b = subscribed_bench();
        let n8 = NodeId(7);
        b.node.world.tree.remove_splice(n8);
        b.node.scheme.test_inject_entry(N6, n8);
        let errs = audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap_err();
        assert!(has(&errs, |e| matches!(e, AuditError::DeadEntry { .. })));
    }

    #[test]
    fn detects_branch_conflicts() {
        let mut b = subscribed_bench();
        // N3 already holds N6 (via the N5 branch); inject N5 on the same
        // branch.
        b.node.scheme.test_inject_entry(N3, NodeId(4));
        let errs = audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap_err();
        assert!(has(&errs, |e| matches!(
            e,
            AuditError::BranchConflict { .. }
        )));
    }

    #[test]
    fn detects_stale_upstream_entries() {
        let mut b = subscribed_bench();
        // Inject an entry at N3 for N4's branch although N4 never
        // subscribed: a stale upstream record (e.g. a lost unsubscribe).
        b.node.scheme.test_inject_entry(N3, N4);
        let errs = audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap_err();
        assert!(
            has(&errs, |e| matches!(
                e,
                AuditError::StaleUpstreamEntry { .. }
            )),
            "stale entry went undetected: {errs:?}"
        );
    }

    #[test]
    fn detects_unreachable_subscribers() {
        let mut b = subscribed_bench();
        // A node marks itself subscribed without ever telling upstream
        // (e.g. every one of its subscribe messages was lost).
        let n7 = NodeId(6);
        b.node.scheme.test_inject_entry(n7, n7);
        let errs = audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap_err();
        assert!(
            has(&errs, |e| matches!(
                e,
                AuditError::SubscriberUnreachable { .. }
            )),
            "unreachable subscriber went undetected: {errs:?}"
        );
    }
}
