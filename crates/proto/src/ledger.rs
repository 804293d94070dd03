//! Hop-cost accounting.
//!
//! The paper's *average query cost* is "the total number of hops that the
//! query related messages such as requests, replies and updates traveled in
//! the network divided by the total number of queries", explicitly including
//! the interest/subscription traffic of CUP and DUP. The ledger counts hops
//! per message class so the decomposition is reportable.

use serde::{Deserialize, Serialize};

/// The classes of overlay messages whose hops count toward query cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MsgClass {
    /// A query request traveling up the search tree.
    Request,
    /// A reply carrying the index down the reverse path.
    Reply,
    /// An index update pushed by CUP or DUP.
    Push,
    /// Interest/subscription maintenance traffic (CUP registrations, DUP
    /// subscribe/unsubscribe/substitute, churn repair messages).
    Control,
}

impl MsgClass {
    /// All classes, in reporting order.
    pub const ALL: [MsgClass; 4] = [
        MsgClass::Request,
        MsgClass::Reply,
        MsgClass::Push,
        MsgClass::Control,
    ];

    #[inline]
    fn idx(self) -> usize {
        match self {
            MsgClass::Request => 0,
            MsgClass::Reply => 1,
            MsgClass::Push => 2,
            MsgClass::Control => 3,
        }
    }
}

/// Hop and message counters per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostLedger {
    hops: [u64; 4],
    messages: [u64; 4],
}

impl CostLedger {
    /// A zeroed ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Records one message of `class` traveling `hops` overlay hops (every
    /// individual overlay transfer is one hop; multi-hop journeys charge
    /// per transfer as they happen).
    #[inline]
    pub fn charge(&mut self, class: MsgClass, hops: u64) {
        self.hops[class.idx()] += hops;
        self.messages[class.idx()] += 1;
    }

    /// Total hops traveled by messages of `class`.
    pub fn hops(&self, class: MsgClass) -> u64 {
        self.hops[class.idx()]
    }

    /// Number of messages of `class`.
    #[cfg(test)]
    fn messages(&self, class: MsgClass) -> u64 {
        self.messages[class.idx()]
    }

    /// Total hops across all classes — the numerator of the paper's average
    /// query cost.
    pub fn total_hops(&self) -> u64 {
        self.hops.iter().sum()
    }

    /// Adds another ledger's counters into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        for i in 0..4 {
            self.hops[i] += other.hops[i];
            self.messages[i] += other.messages[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_class() {
        let mut l = CostLedger::new();
        l.charge(MsgClass::Request, 1);
        l.charge(MsgClass::Request, 1);
        l.charge(MsgClass::Reply, 1);
        l.charge(MsgClass::Push, 1);
        l.charge(MsgClass::Control, 1);
        assert_eq!(l.hops(MsgClass::Request), 2);
        assert_eq!(l.messages(MsgClass::Request), 2);
        assert_eq!(l.total_hops(), 5);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CostLedger::new();
        a.charge(MsgClass::Push, 3);
        let mut b = CostLedger::new();
        b.charge(MsgClass::Push, 2);
        b.charge(MsgClass::Reply, 1);
        a.merge(&b);
        assert_eq!(a.hops(MsgClass::Push), 5);
        assert_eq!(a.messages(MsgClass::Push), 2);
        assert_eq!(a.hops(MsgClass::Reply), 1);
    }

    #[test]
    fn all_classes_listed_once() {
        assert_eq!(MsgClass::ALL.len(), 4);
        let mut l = CostLedger::new();
        for c in MsgClass::ALL {
            l.charge(c, 1);
        }
        assert_eq!(l.total_hops(), 4);
    }
}
