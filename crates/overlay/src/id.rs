//! Node identifiers.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A dense overlay-node handle: one life of one slot.
///
/// The low 24 bits are the slot *index*, which every per-node table is
/// addressed by; the high 8 bits are the slot's *generation*. A slot a
/// departed node frees is reused by a later join at the next generation,
/// so per-node state is sized by the nodes alive, not by every node a run
/// ever created. Equality compares both parts: a list entry, payload or
/// in-flight event naming an earlier life is never equal to the slot's
/// current life, and [`crate::SearchTree::is_alive`] reads it as dead. A
/// slot whose generation would wrap is retired instead of reused, so no
/// two lives of one run share an id. Ids a tree built from a parent table
/// hands out, and every id of a run without departures, are generation 0,
/// where the id is the index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Bits of the slot index; the generation fills the rest.
    const INDEX_BITS: u32 = 24;
    const INDEX_MASK: u32 = (1 << NodeId::INDEX_BITS) - 1;

    /// The slot index as a `usize`, the key of every per-node table.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & NodeId::INDEX_MASK) as usize
    }

    /// The life of the slot this id names: 0 for its first occupant.
    #[inline]
    pub fn generation(self) -> u8 {
        (self.0 >> NodeId::INDEX_BITS) as u8
    }

    /// The generation-0 id of slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 24 bits.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId::with_generation(index, 0)
    }

    /// The id of life `generation` of slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 24 bits.
    #[inline]
    pub fn with_generation(index: usize, generation: u8) -> Self {
        let index = u32::try_from(index)
            .ok()
            .filter(|&i| i <= NodeId::INDEX_MASK)
            .expect("node index exceeds 24 bits");
        NodeId(u32::from(generation) << NodeId::INDEX_BITS | index)
    }
}

/// `N6` for a first life, `N6@2` for slot 6's third.
impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.generation() {
            0 => write!(f, "N{}", self.index()),
            g => write!(f, "N{}@{g}", self.index()),
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id, NodeId(42));
        assert_eq!(id.index(), 42);
        assert_eq!(id.generation(), 0);
    }

    #[test]
    fn a_generation_names_another_life_of_the_same_slot() {
        let later = NodeId::with_generation(42, 3);
        assert_eq!(later.index(), 42);
        assert_eq!(later.generation(), 3);
        assert_ne!(later, NodeId::from_index(42));
        assert_eq!(NodeId::with_generation(0xFF_FFFF, 255), NodeId(u32::MAX));
    }

    #[test]
    fn formats_like_the_paper() {
        assert_eq!(NodeId(6).to_string(), "N6");
        assert_eq!(format!("{:?}", NodeId(3)), "N3");
        assert_eq!(NodeId::with_generation(6, 2).to_string(), "N6@2");
    }

    #[test]
    #[should_panic(expected = "exceeds 24 bits")]
    fn oversized_index_panics() {
        NodeId::from_index(1 << 24);
    }
}
