//! Search-tree topology generators.
//!
//! The paper's simulation setup: "a peer-to-peer network with n nodes ...
//! The maximum degree of the index search tree is D. The number of children
//! for each node is uniformly selected from [1, D]." The index is maintained
//! at the root.

use rand::Rng;

use dup_sim::StreamRng;

use crate::id::NodeId;
use crate::tree::SearchTree;

/// Parameters for random topology generation (Table I defaults: `n = 4096`,
/// `D = 4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyParams {
    /// Total number of nodes, including the root.
    pub nodes: usize,
    /// Maximum children per node (`D`).
    pub max_degree: usize,
}

impl TopologyParams {
    /// The paper's Table I defaults.
    pub fn paper_default() -> Self {
        TopologyParams {
            nodes: 4096,
            max_degree: 4,
        }
    }

    fn validate(&self) {
        assert!(self.nodes >= 1, "topology needs at least the root");
        assert!(self.max_degree >= 1, "max degree must be at least 1");
    }
}

/// Generates the paper's random index search tree: nodes are attached in
/// breadth-first order, and each node draws its child count uniformly from
/// `[1, D]` (truncated when the node budget runs out).
///
/// With `D = 1` this degenerates to a chain, which the paper's model permits.
pub fn random_search_tree(params: TopologyParams, rng: &mut StreamRng) -> SearchTree {
    params.validate();
    let n = params.nodes;
    let mut parents: Vec<Option<NodeId>> = Vec::with_capacity(n);
    parents.push(None); // root
    let mut frontier = std::collections::VecDeque::with_capacity(64);
    frontier.push_back(NodeId(0));
    while parents.len() < n {
        let parent = frontier
            .pop_front()
            .expect("frontier drained before all nodes were placed");
        let want = rng.gen_range(1..=params.max_degree);
        let take = want.min(n - parents.len());
        for _ in 0..take {
            let id = NodeId::from_index(parents.len());
            parents.push(Some(parent));
            frontier.push_back(id);
        }
    }
    SearchTree::from_parents(&parents)
}

/// Generates a complete `degree`-ary tree with exactly `nodes` nodes
/// (children assigned in breadth-first order). Deterministic; used by tests
/// and by ablations that need a regular topology.
pub fn regular_search_tree(nodes: usize, degree: usize) -> SearchTree {
    assert!(nodes >= 1, "topology needs at least the root");
    assert!(degree >= 1, "degree must be at least 1");
    let parents: Vec<Option<NodeId>> = (0..nodes)
        .map(|i| {
            if i == 0 {
                None
            } else {
                Some(NodeId::from_index((i - 1) / degree))
            }
        })
        .collect();
    SearchTree::from_parents(&parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_sim::stream_rng;

    #[test]
    fn random_tree_respects_size_and_degree() {
        let mut rng = stream_rng(1, "topo");
        for &(n, d) in &[(1usize, 4usize), (2, 1), (100, 2), (4096, 4), (777, 10)] {
            let t = random_search_tree(
                TopologyParams {
                    nodes: n,
                    max_degree: d,
                },
                &mut rng,
            );
            t.check_invariants();
            assert_eq!(t.len(), n);
            for node in t.live_nodes() {
                assert!(
                    t.children(node).len() <= d,
                    "node {node} has {} children (D={d})",
                    t.children(node).len()
                );
            }
        }
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        let a = random_search_tree(
            TopologyParams {
                nodes: 500,
                max_degree: 4,
            },
            &mut stream_rng(9, "t"),
        );
        let b = random_search_tree(
            TopologyParams {
                nodes: 500,
                max_degree: 4,
            },
            &mut stream_rng(9, "t"),
        );
        for id in a.live_nodes() {
            assert_eq!(a.parent(id), b.parent(id));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_search_tree(
            TopologyParams {
                nodes: 500,
                max_degree: 4,
            },
            &mut stream_rng(1, "t"),
        );
        let b = random_search_tree(
            TopologyParams {
                nodes: 500,
                max_degree: 4,
            },
            &mut stream_rng(2, "t"),
        );
        let differs = a.live_nodes().any(|id| a.parent(id) != b.parent(id));
        assert!(differs);
    }

    #[test]
    fn degree_one_is_a_chain() {
        let t = random_search_tree(
            TopologyParams {
                nodes: 10,
                max_degree: 1,
            },
            &mut stream_rng(3, "chain"),
        );
        t.check_invariants();
        let deepest = t.live_nodes().map(|n| t.depth(n)).max().unwrap();
        assert_eq!(deepest, 9);
    }

    #[test]
    fn larger_degree_means_shallower_trees() {
        let mut rng = stream_rng(5, "depth");
        let avg_depth = |d: usize, rng: &mut _| {
            let t = random_search_tree(
                TopologyParams {
                    nodes: 4096,
                    max_degree: d,
                },
                rng,
            );
            t.live_nodes().map(|n| t.depth(n) as f64).sum::<f64>() / t.len() as f64
        };
        let d2 = avg_depth(2, &mut rng);
        let d10 = avg_depth(10, &mut rng);
        assert!(d10 < d2, "avg depth D=10 ({d10}) should be < D=2 ({d2})");
    }

    #[test]
    fn regular_tree_shape() {
        let t = regular_search_tree(7, 2);
        t.check_invariants();
        assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(t.children(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert_eq!(t.depth(NodeId(6)), 2);
    }

    #[test]
    fn regular_tree_single_node() {
        let t = regular_search_tree(1, 3);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least the root")]
    fn zero_nodes_panics() {
        random_search_tree(
            TopologyParams {
                nodes: 0,
                max_degree: 4,
            },
            &mut stream_rng(0, "x"),
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_degree_panics() {
        random_search_tree(
            TopologyParams {
                nodes: 4,
                max_degree: 0,
            },
            &mut stream_rng(0, "x"),
        );
    }
}
