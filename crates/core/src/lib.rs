//! DUP — Dynamic-tree based Update Propagation (the paper's contribution).
//!
//! DUP maintains, on top of the index search tree, a **dynamic update
//! propagation tree** (the *DUP tree*) containing only the authority, the
//! interested nodes, and the nearest common ancestors needed to fan pushes
//! out. Index updates travel **directly** between DUP-tree neighbours — one
//! overlay hop each, regardless of how many search-tree edges they skip —
//! which is where DUP's cost advantage over CUP's hop-by-hop pushes comes
//! from.
//!
//! The protocol state is one *subscriber list* per node, holding at most one
//! entry per downstream branch (plus the node itself when it is
//! subscribed): the nearest subscribed node in that branch's subtree.
//! Consecutive nodes holding an entry for the same subscriber form the
//! *virtual path*; the nodes whose entry for a branch is themselves (lists
//! of length ≥ 2, subscribed end nodes, and the root) form the DUP tree.
//!
//! Three messages maintain the structure, routed hop-by-hop up the search
//! tree exactly as in Figure 3: `subscribe(N_i)`, `unsubscribe(N_i)`, and
//! `substitute(N_i, N_j)`. This implementation derives all three from one
//! primitive — *mutate the local list, then tell the parent if the branch's
//! representative changed* — which reproduces the paper's message flows on
//! its own worked example (see the unit tests) while fixing a small
//! id-keying slip in the pseudocode (Figure 3's `process_unsubscribe` sends
//! `unsubscribe(N_i)` upstream even when the upstream entry is a descendant
//! of `N_i`; the intent, clear from the prose, is to clear the entry the
//! upstream node actually holds).
//!
//! # Example
//!
//! The paper's Figure 2(a) in five lines — N6 subscribes, the virtual path
//! forms, and a refresh is pushed over a single direct hop:
//!
//! ```
//! use dup_core::testkit::{paper_example_tree, TestBench};
//! use dup_core::{audit_quiescent, DupScheme};
//! use dup_overlay::NodeId;
//!
//! let mut bench = TestBench::new(paper_example_tree(), DupScheme::new(), 2);
//! let n6 = NodeId(5);
//! bench.make_interested(n6);
//! bench.drain();
//! assert_eq!(bench.node.scheme.s_list(NodeId(0)), &[n6]); // root lists N6 directly
//! audit_quiescent(&bench.node.scheme, &bench.node.world.tree).unwrap();
//!
//! let before = bench.push_hops();
//! bench.refresh();
//! assert_eq!(bench.push_hops() - before, 1); // one direct hop, not eight
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod dup;
pub mod kind;
pub mod oracle;
pub mod testkit;

pub use audit::{audit_quiescent, AuditError};
pub use dup::{DupMsg, DupScheme, RepairStats};
pub use kind::{run_simulation_kind, run_simulation_sharded, SchemeKind};
pub use oracle::{check_tree_invariants, InvariantReport, OracleMismatch};
