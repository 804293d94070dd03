//! Versioned index records and the authority's refresh schedule.
//!
//! The index — the `(key, value)` mapping for the data object under study —
//! is owned by the authority node. It carries a TTL (60 minutes in the
//! paper, from the Saroiu et al. measurement study): cached copies become
//! unusable once the TTL expires. The authority creates a new version on
//! every refresh; in the push schemes (CUP, DUP) the refresh happens
//! "exactly one minute before the previous index expires" so interested
//! nodes see no validity gap.

use serde::{Deserialize, Serialize};

use dup_sim::{SimDuration, SimTime};

/// A monotonically increasing index version number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Version(pub u64);

/// One published version of the index: what a node caches.
///
/// The record carries the *absolute* expiry instant stamped by the
/// authority; caching nodes inherit it unchanged, mirroring the TTL
/// semantics of the paper's PCX baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexRecord {
    /// Version number, increasing by one per refresh.
    pub version: Version,
    /// When the authority published this version.
    pub created: SimTime,
    /// When cached copies of this version stop being served.
    pub expires: SimTime,
}

impl IndexRecord {
    /// True while a cached copy may still be served.
    #[inline]
    pub fn is_valid_at(&self, now: SimTime) -> bool {
        now < self.expires
    }

    /// True when this copy has been superseded by `current` — i.e. serving
    /// it returns stale data under the weak-consistency model.
    #[inline]
    pub fn is_stale_versus(&self, current: Version) -> bool {
        self.version < current
    }
}

/// The authority node's refresh clock.
#[derive(Debug, Clone)]
pub struct AuthorityClock {
    ttl: SimDuration,
    push_lead: SimDuration,
    current: IndexRecord,
}

impl AuthorityClock {
    /// Creates the clock and publishes version 1 at `start`.
    ///
    /// # Panics
    ///
    /// Panics unless `push_lead < ttl` (a refresh must happen while the
    /// previous version is still valid) and `ttl` is non-zero.
    pub fn new(start: SimTime, ttl: SimDuration, push_lead: SimDuration) -> Self {
        assert!(!ttl.is_zero(), "index TTL must be non-zero");
        assert!(
            push_lead < ttl,
            "push lead ({push_lead}) must be shorter than the TTL ({ttl})"
        );
        AuthorityClock {
            ttl,
            push_lead,
            current: IndexRecord {
                version: Version(1),
                created: start,
                expires: start + ttl,
            },
        }
    }

    /// The paper's configuration: TTL 60 min, refresh 1 min before expiry.
    pub fn paper_default(start: SimTime) -> Self {
        AuthorityClock::new(start, SimDuration::from_mins(60), SimDuration::from_mins(1))
    }

    /// The live version.
    #[inline]
    pub fn current(&self) -> IndexRecord {
        self.current
    }

    /// The configured TTL.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// When the next refresh is due: `push_lead` before the current version
    /// expires.
    pub fn next_refresh_at(&self) -> SimTime {
        self.current.expires.saturating_sub(self.push_lead)
    }

    /// Publishes a new version at an arbitrary instant — "the authority node
    /// needs to update the index whenever it receives update messages"
    /// (§II-A). Every driver publishes through `NodeCore::publish` at
    /// [`AuthorityClock::next_refresh_at`].
    pub fn publish(&mut self, now: SimTime) -> IndexRecord {
        self.current = IndexRecord {
            version: Version(self.current.version.0 + 1),
            created: now,
            expires: now + self.ttl,
        };
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_validity_window() {
        let r = IndexRecord {
            version: Version(1),
            created: SimTime::ZERO,
            expires: SimTime::from_secs(3600),
        };
        assert!(r.is_valid_at(SimTime::ZERO));
        assert!(r.is_valid_at(SimTime::from_secs(3599)));
        assert!(!r.is_valid_at(SimTime::from_secs(3600)));
    }

    #[test]
    fn staleness_is_version_comparison() {
        let r = IndexRecord {
            version: Version(3),
            created: SimTime::ZERO,
            expires: SimTime::from_secs(10),
        };
        assert!(r.is_stale_versus(Version(4)));
        assert!(!r.is_stale_versus(Version(3)));
    }

    #[test]
    fn paper_default_schedule() {
        let clock = AuthorityClock::paper_default(SimTime::ZERO);
        assert_eq!(clock.current().version, Version(1));
        assert_eq!(clock.current().expires, SimTime::from_secs(3600));
        assert_eq!(clock.next_refresh_at(), SimTime::from_secs(3540));
    }

    #[test]
    fn refresh_chain_never_gaps() {
        let mut clock = AuthorityClock::paper_default(SimTime::ZERO);
        let mut prev = clock.current();
        for _ in 0..10 {
            let due = clock.next_refresh_at();
            let next = clock.publish(due);
            assert_eq!(next.version.0, prev.version.0 + 1);
            // The new version is published strictly before the old expires.
            assert!(next.created < prev.expires);
            assert_eq!(next.expires, next.created + SimDuration::from_mins(60));
            prev = next;
        }
        // Versions refresh every TTL − lead = 3540 s.
        assert_eq!(prev.created, SimTime::from_secs(3540 * 10));
    }

    #[test]
    #[should_panic(expected = "shorter than the TTL")]
    fn lead_must_fit_in_ttl() {
        AuthorityClock::new(
            SimTime::ZERO,
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        );
    }
}
