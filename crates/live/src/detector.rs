//! Heartbeat-based failure detection.
//!
//! The detector is a pure state machine fed with timestamps: it never reads
//! a clock itself, so the same code runs against wall time in the TCP host
//! and against virtual time in the deterministic loopback tests. Each peer
//! walks `Alive → Suspect → Dead` as its most recent heartbeat ages past
//! the configured thresholds, and any fresh heartbeat (same or newer
//! incarnation) snaps it back to `Alive`. A heartbeat carrying a *newer*
//! incarnation additionally reports a rejoin, which the host turns into the
//! deterministic splice-and-revive tree repair.
//!
//! The peer set is the caller's: a live host tracks only its search-tree
//! parent and children, [`FailureDetector::register`]ing a peer when it
//! becomes a neighbour and [`FailureDetector::forget`]ting it when it stops
//! being one (a former neighbour no longer heartbeats this host, and must
//! not be declared dead for it). Nodes further away are learned about from
//! the verdicts their own neighbours flood over the tree.
//!
//! ## Cost
//!
//! A host polls the detector on every frame and every loop step, and almost
//! none of those polls can find anything: a verdict only changes when some
//! peer's deadline passes. The detector therefore keeps `quiet_until`, a
//! lower bound on the earliest instant at which any slot can change
//! verdict, and [`FailureDetector::poll`] returns without touching a slot
//! while `now < quiet_until`. The bound holds by construction: every write
//! to a slot takes `min` with that slot's new deadline, clearing a slot can
//! only move the true earliest deadline later, and a poll that does scan
//! recomputes it exactly. A heartbeat is a slot write plus one `min`; with
//! heartbeats every `h` against a suspicion threshold `s`, a scan happens
//! about once per `s − h`, whatever the poll rate. A scan walks a slot
//! table as long as the highest peer id ever registered; only the host's
//! neighbours, as many as its degree, hold a slot.

use dup_overlay::NodeId;
use dup_sim::{SimDuration, SimTime};

/// Liveness verdict for one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Heard from recently.
    Alive,
    /// Quiet for longer than `suspect_after`; not yet declared failed.
    Suspect,
    /// Quiet for longer than `dead_after`; the host treats the peer as
    /// failed and lets the lease machinery expire its state.
    Dead,
}

/// A state change reported by [`FailureDetector::poll`] or
/// [`FailureDetector::on_heartbeat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The peer crossed the suspicion threshold.
    Suspected(NodeId),
    /// The peer crossed the death threshold.
    Died(NodeId),
    /// The peer came back: either a suspect/dead peer heartbeated again at
    /// its known incarnation, or any peer announced a newer incarnation
    /// (`restarted` is true only in the latter case).
    Revived {
        /// The peer that came back.
        peer: NodeId,
        /// True when the revival carried a newer incarnation — a process
        /// restart, requiring tree repair, not just a late heartbeat.
        restarted: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct PeerSlot {
    last_heard: SimTime,
    incarnation: u64,
    state: PeerState,
}

/// Tracks the liveness of a peer set, which the caller grows and shrinks,
/// from heartbeat arrival times.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    suspect_after: SimDuration,
    dead_after: SimDuration,
    peers: Vec<Option<PeerSlot>>,
    /// No slot changes verdict before this instant (`SimTime::MAX`: none
    /// ever will without a write). Never later than the earliest slot
    /// deadline — Alive: `last_heard + suspect_after`, Suspect:
    /// `last_heard + dead_after`, Dead: none — and equal to it right after
    /// a poll that scanned; writes in between only lower it.
    quiet_until: SimTime,
    /// Polls that walked the slots.
    #[cfg(test)]
    scans: u64,
}

impl FailureDetector {
    /// Creates a detector with the given quiet-time thresholds
    /// (`suspect_after < dead_after` is required).
    pub fn new(suspect_after: SimDuration, dead_after: SimDuration) -> Self {
        assert!(
            suspect_after < dead_after,
            "suspect threshold ({suspect_after}) must precede death threshold ({dead_after})"
        );
        FailureDetector {
            suspect_after,
            dead_after,
            peers: Vec::new(),
            quiet_until: SimTime::MAX,
            #[cfg(test)]
            scans: 0,
        }
    }

    /// Starts tracking `peer` as alive at `now` with `incarnation`. (The
    /// one place a slot is written outside `poll`: it lowers `quiet_until`
    /// to the slot's new deadline if that is earlier.)
    pub fn register(&mut self, peer: NodeId, now: SimTime, incarnation: u64) {
        let i = peer.index();
        if i >= self.peers.len() {
            self.peers.resize(i + 1, None);
        }
        self.peers[i] = Some(PeerSlot {
            last_heard: now,
            incarnation,
            state: PeerState::Alive,
        });
        self.quiet_until = self.quiet_until.min(now + self.suspect_after);
    }

    /// Stops tracking `peer`: its slot is cleared, so no poll reports it
    /// again until it is registered anew. `quiet_until` is left as it is —
    /// clearing a slot can only make the earliest deadline later, so the
    /// bound stays a lower bound.
    pub fn forget(&mut self, peer: NodeId) {
        if let Some(slot) = self.peers.get_mut(peer.index()) {
            *slot = None;
        }
    }

    /// The current verdict for `peer` (`None` when unregistered).
    pub fn state(&self, peer: NodeId) -> Option<PeerState> {
        self.peers
            .get(peer.index())
            .copied()
            .flatten()
            .map(|s| s.state)
    }

    /// Feeds one heartbeat. A peer that is not registered is not tracked,
    /// and stale incarnations (a delayed frame from a previous life) are
    /// ignored. Returns the transition the heartbeat caused, if any.
    pub fn on_heartbeat(
        &mut self,
        peer: NodeId,
        now: SimTime,
        incarnation: u64,
    ) -> Option<Transition> {
        let slot = self.peers.get(peer.index()).copied().flatten()?;
        if incarnation < slot.incarnation {
            return None;
        }
        self.register(peer, now, incarnation);
        let restarted = incarnation > slot.incarnation;
        if restarted || slot.state != PeerState::Alive {
            Some(Transition::Revived { peer, restarted })
        } else {
            None
        }
    }

    /// Advances every peer's verdict to `now`, returning the transitions
    /// that occurred, in peer order (one per peer at most: a peer that
    /// aged past both thresholds since the last poll reports `Died`
    /// without a `Suspected` before it). While `now` is short of
    /// `quiet_until` no verdict can have changed, and the call returns the
    /// empty `Vec` — which does not allocate — without reading a slot.
    pub fn poll(&mut self, now: SimTime) -> Vec<Transition> {
        let mut out = Vec::new();
        if now < self.quiet_until {
            return out;
        }
        #[cfg(test)]
        {
            self.scans += 1;
        }
        let mut quiet_until = SimTime::MAX;
        for (i, slot) in self.peers.iter_mut().enumerate() {
            let Some(slot) = slot else { continue };
            // Verdicts only age forward here; revival happens in
            // `on_heartbeat`.
            let quiet = now.saturating_since(slot.last_heard);
            if slot.state != PeerState::Dead && quiet >= self.dead_after {
                slot.state = PeerState::Dead;
                out.push(Transition::Died(NodeId::from_index(i)));
            } else if slot.state == PeerState::Alive && quiet >= self.suspect_after {
                slot.state = PeerState::Suspect;
                out.push(Transition::Suspected(NodeId::from_index(i)));
            }
            let deadline = match slot.state {
                PeerState::Alive => slot.last_heard + self.suspect_after,
                PeerState::Suspect => slot.last_heard + self.dead_after,
                PeerState::Dead => continue,
            };
            quiet_until = quiet_until.min(deadline);
        }
        self.quiet_until = quiet_until;
        out
    }

    /// An instant before which [`FailureDetector::poll`] reports nothing,
    /// for event-loop sleep budgeting, in O(1): never later than the
    /// earliest instant at which a poll could report a transition, and
    /// exactly that instant right after a poll that scanned (a heartbeat
    /// since may have pushed the true instant later; the poll at the bound
    /// then scans, finds nothing and tightens it). `None` when no poll
    /// will report anything until a slot is written: every peer is dead,
    /// or none is registered.
    pub fn next_deadline(&self) -> Option<SimTime> {
        (self.quiet_until != SimTime::MAX).then_some(self.quiet_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn d(secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }

    /// The last incarnation heard from `peer` (`None` when unregistered).
    fn incarnation(fd: &FailureDetector, peer: NodeId) -> Option<u64> {
        fd.peers
            .get(peer.index())
            .copied()
            .flatten()
            .map(|s| s.incarnation)
    }

    #[test]
    fn ages_through_suspect_to_dead() {
        let mut fd = FailureDetector::new(d(0.2), d(0.5));
        let p = NodeId(3);
        fd.register(p, t(0.0), 1);
        assert_eq!(fd.poll(t(0.1)), vec![]);
        assert_eq!(fd.poll(t(0.25)), vec![Transition::Suspected(p)]);
        assert_eq!(fd.poll(t(0.3)), vec![]);
        assert_eq!(fd.poll(t(0.6)), vec![Transition::Died(p)]);
        // Dead is terminal under poll.
        assert_eq!(fd.poll(t(10.0)), vec![]);
        assert_eq!(fd.state(p), Some(PeerState::Dead));
    }

    #[test]
    fn heartbeat_revives_and_restart_is_flagged() {
        let mut fd = FailureDetector::new(d(0.2), d(0.5));
        let p = NodeId(1);
        fd.register(p, t(0.0), 1);
        fd.poll(t(0.9));
        assert_eq!(fd.state(p), Some(PeerState::Dead));
        assert_eq!(
            fd.on_heartbeat(p, t(1.0), 1),
            Some(Transition::Revived {
                peer: p,
                restarted: false
            })
        );
        fd.poll(t(1.9));
        assert_eq!(
            fd.on_heartbeat(p, t(2.0), 2),
            Some(Transition::Revived {
                peer: p,
                restarted: true
            })
        );
        assert_eq!(incarnation(&fd, p), Some(2));
    }

    /// A forgotten peer is never reported, however long it stays quiet or
    /// whatever heartbeats still arrive from it, and the peers beside it
    /// age as before.
    #[test]
    fn a_forgotten_peer_is_never_reported() {
        let mut fd = FailureDetector::new(d(0.2), d(0.5));
        let (gone, kept) = (NodeId(4), NodeId(6));
        fd.register(gone, t(0.0), 1);
        fd.register(kept, t(0.0), 1);
        assert_eq!(
            fd.poll(t(0.25)),
            vec![Transition::Suspected(gone), Transition::Suspected(kept)]
        );
        fd.forget(gone);
        fd.forget(NodeId(40));
        assert_eq!(fd.state(gone), None);
        assert_eq!(fd.on_heartbeat(gone, t(0.3), 2), None);
        assert_eq!(fd.state(gone), None);
        assert_eq!(fd.poll(t(0.6)), vec![Transition::Died(kept)]);
        assert_eq!(fd.poll(t(60.0)), vec![]);
        assert_eq!(fd.next_deadline(), None);
        assert_eq!(fd.state(gone), None);
    }

    #[test]
    fn stale_incarnation_is_ignored() {
        let mut fd = FailureDetector::new(d(0.2), d(0.5));
        let p = NodeId(2);
        fd.register(p, t(0.0), 2);
        assert_eq!(fd.on_heartbeat(p, t(0.1), 1), None);
        // The stale frame must not have refreshed the lease on liveness.
        assert_eq!(fd.poll(t(0.3)), vec![Transition::Suspected(p)]);
    }

    #[test]
    fn jittered_heartbeats_within_threshold_never_expire() {
        // Heartbeats every 100 ms ± 40 ms of jitter against a 200 ms
        // suspicion threshold: no verdict ever leaves Alive.
        let mut fd = FailureDetector::new(d(0.2), d(0.5));
        let p = NodeId(0);
        fd.register(p, t(0.0), 1);
        let jitter = [0.04, -0.03, 0.04, -0.04, 0.02, 0.04, -0.01, 0.03];
        let mut at = 0.0;
        for (i, j) in jitter.iter().cycle().take(64).enumerate() {
            at = 0.1 * (i + 1) as f64 + j;
            assert_eq!(fd.poll(t(at)), vec![], "spurious transition at {at}");
            assert_eq!(fd.on_heartbeat(p, t(at), 1), None);
        }
        assert_eq!(fd.state(p), Some(PeerState::Alive));
        assert!(fd.next_deadline().unwrap() > t(at));
    }

    /// The gate at the benchmark's cadences and the widest peer set a
    /// 64-host cluster can give it (a host that monitored everyone): 63
    /// peers heartbeating every 0.2 s against 0.8 s / 2.0 s thresholds,
    /// polled every 5 ms for a virtual minute. A poll walks the slots about
    /// once per 0.6 s — the youngest deadline a scan can leave behind — not
    /// once per poll.
    #[test]
    fn a_poll_between_deadlines_visits_no_slot() {
        let mut fd = FailureDetector::new(d(0.8), d(2.0));
        for p in 1..64 {
            fd.register(NodeId(p), SimTime::ZERO, 1);
        }
        let polls = 12_000u64;
        for step in 1..=polls {
            let now = SimTime::from_nanos(step * 5_000_000);
            // Peer p beats every 40th step, at a phase of its own.
            for p in (1..64).filter(|p| (step + p) % 40 == 0) {
                assert_eq!(fd.on_heartbeat(NodeId(p as u32), now, 1), None);
            }
            assert_eq!(fd.poll(now), vec![], "spurious transition at {now}");
        }
        assert!(
            (1..=200).contains(&fd.scans),
            "{} scans in {polls} polls",
            fd.scans
        );
        assert!((1..64).all(|p| fd.state(NodeId(p)) == Some(PeerState::Alive)));
    }

    /// The detector as it was before `quiet_until`: every poll visits
    /// every slot and `next_deadline` takes the exact minimum.
    struct ScanEverything {
        suspect_after: SimDuration,
        dead_after: SimDuration,
        peers: Vec<Option<PeerSlot>>,
    }

    impl ScanEverything {
        fn register(&mut self, peer: NodeId, now: SimTime, incarnation: u64) {
            let i = peer.index();
            if i >= self.peers.len() {
                self.peers.resize(i + 1, None);
            }
            self.peers[i] = Some(PeerSlot {
                last_heard: now,
                incarnation,
                state: PeerState::Alive,
            });
        }

        fn forget(&mut self, peer: NodeId) {
            if let Some(slot) = self.peers.get_mut(peer.index()) {
                *slot = None;
            }
        }

        fn on_heartbeat(
            &mut self,
            peer: NodeId,
            now: SimTime,
            incarnation: u64,
        ) -> Option<Transition> {
            let was = self.peers.get(peer.index()).copied().flatten()?;
            if incarnation < was.incarnation {
                return None;
            }
            self.register(peer, now, incarnation);
            let restarted = incarnation > was.incarnation;
            (restarted || was.state != PeerState::Alive)
                .then_some(Transition::Revived { peer, restarted })
        }

        fn poll(&mut self, now: SimTime) -> Vec<Transition> {
            let mut out = Vec::new();
            for (i, slot) in self.peers.iter_mut().enumerate() {
                let Some(slot) = slot else { continue };
                let peer = NodeId::from_index(i);
                let quiet = now.saturating_since(slot.last_heard);
                match slot.state {
                    PeerState::Alive | PeerState::Suspect if quiet >= self.dead_after => {
                        slot.state = PeerState::Dead;
                        out.push(Transition::Died(peer));
                    }
                    PeerState::Alive if quiet >= self.suspect_after => {
                        slot.state = PeerState::Suspect;
                        out.push(Transition::Suspected(peer));
                    }
                    _ => {}
                }
            }
            out
        }

        fn next_deadline(&self) -> Option<SimTime> {
            self.peers
                .iter()
                .flatten()
                .filter_map(|s| match s.state {
                    PeerState::Alive => Some(s.last_heard + self.suspect_after),
                    PeerState::Suspect => Some(s.last_heard + self.dead_after),
                    PeerState::Dead => None,
                })
                .min()
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Register { peer: u32, incarnation: u64 },
        Heartbeat { peer: u32, incarnation: u64 },
        Forget { peer: u32 },
        Poll,
    }

    /// Peers 0..10 and incarnations 1..4: heartbeats reach peers nobody
    /// registered (and register nobody), and carry stale, equal and newer
    /// incarnations; peers are forgotten in every state, and peers never
    /// registered too.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            1 => (0u32..10, 1u64..4).prop_map(|(peer, incarnation)| Op::Register { peer, incarnation }),
            6 => (0u32..10, 1u64..4).prop_map(|(peer, incarnation)| Op::Heartbeat { peer, incarnation }),
            1 => (0u32..12).prop_map(|peer| Op::Forget { peer }),
            5 => Just(Op::Poll),
        ]
    }

    /// Signed nanoseconds to the next operation: mostly a fraction of the
    /// suspicion threshold forward, now and then past the death threshold,
    /// now and then backwards (a wall clock read on another thread).
    fn step() -> impl Strategy<Value = i64> {
        prop_oneof![
            8 => 0i64..300_000_000,
            1 => 300_000_000i64..3_000_000_000,
            1 => -500_000_000i64..0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 1024 }
        ))]

        /// Any interleaving of writes, forgets and polls, on a clock that
        /// sometimes steps backwards, reads the same on the gated detector
        /// and on the one that scans every slot on every poll: the
        /// transitions and their order, each peer's verdict and
        /// incarnation — and the O(1) deadline is never later than the
        /// exact one, and equal to it after a poll that scanned.
        fn the_gate_never_hides_a_transition(
            ops in prop::collection::vec((step(), op()), 1..400),
        ) {
            let (suspect_after, dead_after) = (d(0.8), d(2.0));
            let mut fd = FailureDetector::new(suspect_after, dead_after);
            let mut model = ScanEverything { suspect_after, dead_after, peers: Vec::new() };
            let mut at = 1_000_000_000i64;
            for (i, &(step, op)) in ops.iter().enumerate() {
                at = (at + step).max(0);
                let now = SimTime::from_nanos(at as u64);
                let ctx = format!("step {i} at {now}: {op:?}");
                let scans = fd.scans;
                match op {
                    Op::Register { peer, incarnation } => {
                        fd.register(NodeId(peer), now, incarnation);
                        model.register(NodeId(peer), now, incarnation);
                    }
                    Op::Heartbeat { peer, incarnation } => prop_assert_eq!(
                        fd.on_heartbeat(NodeId(peer), now, incarnation),
                        model.on_heartbeat(NodeId(peer), now, incarnation),
                        "{}", ctx
                    ),
                    Op::Forget { peer } => {
                        fd.forget(NodeId(peer));
                        model.forget(NodeId(peer));
                    }
                    Op::Poll => prop_assert_eq!(fd.poll(now), model.poll(now), "{}", ctx),
                }
                for peer in (0..10).map(NodeId) {
                    let want = model.peers.get(peer.index()).copied().flatten();
                    prop_assert_eq!(fd.state(peer), want.map(|s| s.state), "{}", ctx);
                    prop_assert_eq!(incarnation(&fd, peer), want.map(|s| s.incarnation), "{}", ctx);
                }
                let exact = model.next_deadline();
                let bound = fd.next_deadline();
                prop_assert!(
                    bound.unwrap_or(SimTime::MAX) <= exact.unwrap_or(SimTime::MAX),
                    "{}: bound {:?} later than {:?}", ctx, bound, exact
                );
                if fd.scans > scans {
                    prop_assert_eq!(bound, exact, "{}", ctx);
                }
            }
        }
    }
}
