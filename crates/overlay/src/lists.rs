//! Per-node lists of node ids in one arena.
//!
//! The search tree's child lists and DUP's subscriber lists are both "a
//! short list of ids per node", read on every hop and edited only on churn
//! or control traffic. [`NodeLists`] stores them as dense 4-byte runs in a
//! single allocation addressed by a per-node span, instead of one heap
//! `Vec` per node.

use crate::id::NodeId;

/// Per-node `(offset, len, capacity)` window into the arena.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    off: u32,
    len: u32,
    cap: u32,
}

/// Per-node id lists as a struct-of-arrays arena.
///
/// Layout: every list lives in one shared `Vec<NodeId>`, addressed by a
/// per-node `Span`. Readers get a slice and follow no pointer but the
/// arena's. Mutations are rare and go through a reusable scratch buffer; a
/// list that outgrows its span relocates to the arena tail with doubled
/// capacity (the abandoned run leaks, which is fine at list sizes of a
/// handful of entries). Built from a whole table at once (`from_pairs`,
/// for the search tree), every span is sized exactly: no slack, no
/// relocation.
#[derive(Debug, Clone, Default)]
pub struct NodeLists {
    spans: Vec<Span>,
    arena: Vec<NodeId>,
    /// Reusable edit buffer for [`NodeLists::edit`].
    scratch: Vec<NodeId>,
}

impl NodeLists {
    /// Lists for `nodes` nodes holding exactly `pairs`: `(owner, item)`
    /// appends `item` to `owner`'s list, in iteration order. A counting
    /// pass sizes each span, so the arena is filled without slack.
    ///
    /// # Panics
    ///
    /// Panics if an owner is not below `nodes`.
    pub(crate) fn from_pairs<I>(nodes: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (NodeId, NodeId)> + Clone,
    {
        let mut spans = vec![Span::default(); nodes];
        for (owner, _) in pairs.clone() {
            spans[owner.index()].cap += 1;
        }
        let mut off = 0u32;
        for span in &mut spans {
            span.off = off;
            off += span.cap;
        }
        let mut arena = vec![NodeId(0); off as usize];
        for (owner, item) in pairs {
            let span = &mut spans[owner.index()];
            arena[(span.off + span.len) as usize] = item;
            span.len += 1;
        }
        NodeLists {
            spans,
            arena,
            scratch: Vec::new(),
        }
    }

    /// Grows the span table to cover `node`.
    fn ensure(&mut self, node: NodeId) {
        if node.index() >= self.spans.len() {
            self.spans.resize(node.index() + 1, Span::default());
        }
    }

    /// Number of nodes the span table covers.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the span table covers no node.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The slot indices whose list is non-empty, in order. A list is
    /// addressed by slot, so which life owns it is the caller's to ask
    /// ([`crate::SearchTree::live_id`]).
    pub fn owners(&self) -> impl Iterator<Item = usize> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.len > 0)
            .map(|(i, _)| i)
    }

    /// The list of `node` (empty when never touched).
    #[inline]
    pub fn get(&self, node: NodeId) -> &[NodeId] {
        match self.spans.get(node.index()) {
            Some(s) => &self.arena[s.off as usize..(s.off + s.len) as usize],
            None => &[],
        }
    }

    /// The list of `node`, for in-place edits that keep its length.
    pub(crate) fn get_mut(&mut self, node: NodeId) -> &mut [NodeId] {
        match self.spans.get(node.index()) {
            Some(s) => &mut self.arena[s.off as usize..(s.off + s.len) as usize],
            None => &mut [],
        }
    }

    /// Overwrites `node`'s list with `items`, relocating to the arena tail
    /// when the span's capacity is exceeded.
    pub fn set(&mut self, node: NodeId, items: &[NodeId]) {
        self.ensure(node);
        let span = &mut self.spans[node.index()];
        if items.len() as u32 > span.cap {
            span.cap = (items.len() as u32).next_power_of_two();
            span.off = self.arena.len() as u32;
            self.arena
                .resize(self.arena.len() + span.cap as usize, NodeId(0));
        }
        span.len = items.len() as u32;
        self.arena[span.off as usize..span.off as usize + items.len()].copy_from_slice(items);
    }

    /// Applies `mutate` to a scratch copy of `node`'s list and writes the
    /// result back.
    pub fn edit(&mut self, node: NodeId, mutate: impl FnOnce(&mut Vec<NodeId>)) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(self.get(node));
        mutate(&mut scratch);
        self.set(node, &scratch);
        self.scratch = scratch;
    }

    /// Removes and returns `node`'s list; its span keeps the capacity.
    pub fn take(&mut self, node: NodeId) -> Vec<NodeId> {
        self.ensure(node);
        let out = self.get(node).to_vec();
        self.spans[node.index()].len = 0;
        out
    }

    /// Exchanges the lists of `a` and `b` without copying either.
    pub(crate) fn swap(&mut self, a: NodeId, b: NodeId) {
        self.ensure(a);
        self.ensure(b);
        self.spans.swap(a.index(), b.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_fills_exactly_in_order() {
        let n = NodeId;
        let pairs = [(n(2), n(5)), (n(0), n(1)), (n(2), n(3)), (n(0), n(4))];
        let lists = NodeLists::from_pairs(4, pairs.iter().copied());
        assert_eq!(lists.get(n(0)), &[n(1), n(4)]);
        assert_eq!(lists.get(n(1)), &[]);
        assert_eq!(lists.get(n(2)), &[n(5), n(3)]);
        assert_eq!(lists.arena.len(), pairs.len(), "no slack");
        assert_eq!(lists.get(n(9)), &[], "beyond the table");
        assert_eq!(lists.owners().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn growth_relocates_and_swap_moves_whole_lists() {
        let n = NodeId;
        let mut lists = NodeLists::from_pairs(2, [(n(0), n(1))].into_iter());
        lists.edit(n(0), |l| l.extend([n(7), n(8)]));
        assert_eq!(lists.get(n(0)), &[n(1), n(7), n(8)]);
        lists.get_mut(n(0))[1] = n(9);
        lists.swap(n(0), n(5));
        assert_eq!(lists.get(n(0)), &[]);
        assert_eq!(lists.get(n(5)), &[n(1), n(9), n(8)]);
        assert_eq!(lists.owners().collect::<Vec<_>>(), vec![5]);
        assert_eq!(lists.take(n(5)), vec![n(1), n(9), n(8)]);
        assert_eq!(lists.get(n(5)), &[]);
        assert_eq!(lists.owners().count(), 0);
        assert_eq!(lists.len(), 6);
    }
}
