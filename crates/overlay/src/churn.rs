//! Churn operation descriptions shared between the overlay and the
//! protocol layer.
//!
//! §III-C distinguishes a node that *leaves on its own* (it informs its
//! neighbors, and the neighbor taking over its indices "acts as" it) from a
//! node that *fails* (its disappearance must be detected by neighbors in the
//! virtual path). The protocol layer reacts differently to the two, so the
//! distinction is part of the operation type.

use crate::id::NodeId;

/// A topology change applied to a search tree during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// A new node joins as a leaf under `parent`.
    JoinLeaf {
        /// The node the newcomer attaches beneath.
        parent: NodeId,
    },
    /// A new node joins inside the edge `parent → child`, taking over part
    /// of the key-space path (the paper's "N3′ inserted between N3 and N5").
    JoinBetween {
        /// Upper endpoint of the split edge.
        parent: NodeId,
        /// Lower endpoint of the split edge; it becomes the newcomer's child.
        child: NodeId,
    },
    /// `node` leaves gracefully; it informs neighbors first.
    Leave {
        /// The departing node.
        node: NodeId,
    },
    /// `node` fails silently; downstream virtual-path neighbors must detect
    /// the failure and re-subscribe.
    Fail {
        /// The failed node.
        node: NodeId,
    },
}

impl ChurnOp {
    /// The node that disappears, if this operation removes one.
    pub fn removed_node(&self) -> Option<NodeId> {
        match *self {
            ChurnOp::Leave { node } | ChurnOp::Fail { node } => Some(node),
            ChurnOp::JoinLeaf { .. } | ChurnOp::JoinBetween { .. } => None,
        }
    }

    /// True for the silent-failure variant.
    pub fn is_failure(&self) -> bool {
        matches!(self, ChurnOp::Fail { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removed_node_extraction() {
        assert_eq!(
            ChurnOp::Leave { node: NodeId(3) }.removed_node(),
            Some(NodeId(3))
        );
        assert_eq!(
            ChurnOp::Fail { node: NodeId(4) }.removed_node(),
            Some(NodeId(4))
        );
        assert_eq!(ChurnOp::JoinLeaf { parent: NodeId(0) }.removed_node(), None);
        assert_eq!(
            ChurnOp::JoinBetween {
                parent: NodeId(0),
                child: NodeId(1)
            }
            .removed_node(),
            None
        );
    }

    #[test]
    fn failure_flag() {
        assert!(ChurnOp::Fail { node: NodeId(1) }.is_failure());
        assert!(!ChurnOp::Leave { node: NodeId(1) }.is_failure());
    }
}
