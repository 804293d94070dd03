//! Structured P2P overlay substrate.
//!
//! The paper assumes a structured overlay (CAN/Chord-style) in which queries
//! for a key route along well-defined paths to the key's *authority node*;
//! the union of those paths is the **index search tree** for the key. This
//! crate provides:
//!
//! * [`SearchTree`] — the index search tree with the mutation primitives the
//!   paper's §III-C churn handling needs (insert a node into an edge, add a
//!   leaf, splice a node out, replace the root).
//! * [`topology`] — generators for the paper's random tree (per-node child
//!   count uniform in `[1, D]`) and regular trees for tests.
//! * [`chord`] — a Chord ring (u64 identifier space, finger tables,
//!   `O(log n)` lookups) from which per-key search trees are derived, so the
//!   schemes can also be exercised on a "real" structured-overlay substrate
//!   instead of the paper's synthetic topology.
//! * [`NodeLists`] — per-node id lists in one arena: the tree's children
//!   and DUP's subscriber lists.
//!
//! # Example
//!
//! ```
//! use dup_overlay::{random_search_tree, ChordRing, TopologyParams};
//! use dup_sim::stream_rng;
//!
//! // The paper's synthetic topology: child counts uniform in [1, D].
//! let tree = random_search_tree(
//!     TopologyParams { nodes: 64, max_degree: 4 },
//!     &mut stream_rng(42, "docs-topology"),
//! );
//! assert_eq!(tree.len(), 64);
//! tree.check_invariants();
//!
//! // Or derive a search tree from real Chord lookups:
//! let ring = ChordRing::new(64, &mut stream_rng(42, "docs-ring"));
//! let key = 0xFEED;
//! let chord_tree = ring.search_tree(key);
//! assert_eq!(chord_tree.len(), 64);
//! // Every node's depth is its Chord lookup hop count for the key.
//! ```

#![warn(missing_docs)]

pub mod chord;
pub mod id;
pub mod lists;
pub mod topology;
pub mod tree;

pub use chord::ChordRing;
pub use id::NodeId;
pub use lists::NodeLists;
pub use topology::{random_search_tree, regular_search_tree, TopologyParams};
pub use tree::SearchTree;
