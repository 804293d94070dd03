//! The pending-event set: a future-event list keyed by `(time, sequence)`.
//!
//! The sequence number breaks ties between events scheduled for the same
//! instant in FIFO order, which keeps runs deterministic regardless of how
//! the backing store resolves equal keys internally.
//!
//! Events live in a slab. A slab slot (a node) holds the payload and, in
//! front of it, 24 bytes of ordering metadata: the instant, the sequence
//! number with a cancelled bit under it, and a link to another node. Nodes
//! are recycled through a free list threaded through the links, so the
//! footprint is the queue's high-water mark. A [`TimerId`] names
//! `(sequence, slot)`: [`EventQueue::cancel`] compares the node's tag and
//! sets the bit, and the pop that empties the node reads the bit from the
//! line it is already touching. No per-event step hashes, and none
//! allocates once the slab has reached its high-water mark.
//!
//! Two interchangeable backends order the nodes:
//!
//! * [`QueueBackend::TimerWheel`] — what a simulation run gets by default.
//!   A hierarchical timer wheel: six levels of 64 slots each, every level
//!   64× coarser than the one below, with a `u64` occupancy bitmap per
//!   level so empty slots are skipped with one `trailing_zeros`. A wheel
//!   slot is a `u32` head of a list threaded through the nodes' links:
//!   placing, cascading and draining an event move no memory, and the
//!   wheel owns 1.5 KiB of heads whatever bursts pass through it.
//!   Near-future events (the vast majority in a message-passing
//!   simulation: deliveries a few hop latencies out) land in the finest
//!   level and are placed in `O(1)`; far-future timers (TTL-scale
//!   refreshes, interest checks) sit in a coarse level and cascade toward
//!   level zero as the cursor approaches — `O(1)` amortized per event per
//!   level. A small sorted `near` list holds the events of the slot the
//!   cursor is draining, so pops stay exact `(time, seq)` order; an
//!   overflow heap takes the (practically unreachable) instants beyond the
//!   top level's span.
//! * [`QueueBackend::Heap`] — a binary heap of 24-byte `(time, seq, slot)`
//!   keys; `O(log n)` push/pop, no tick to derive. [`EventQueue::new`]
//!   uses it, and it is the reference the wheel is tested against.
//!
//! Both backends pop in exactly `(time, seq)` order — the equivalence is
//! enforced by the model-based property test here and by end-to-end
//! report-identity tests in the workspace `tests/` tree.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// "No slot": the end of a list, and the slot of a fabricated handle.
const NIL: u32 = u32::MAX;

/// A handle to one queued event, returned by [`EventQueue::push`] and
/// consumed by [`EventQueue::cancel`]. Names the event's unique insertion
/// sequence number and the slab slot holding it; the slot is only a hint
/// where to look, the sequence number decides, so a handle outliving its
/// event can never touch the slot's next tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    seq: u64,
    slot: u32,
}

impl TimerId {
    /// Fabricates a placeholder handle carrying `seq`, for tests and
    /// bookkeeping layers that only compare handles. It names no slot:
    /// [`EventQueue::cancel`] returns false for it on every queue.
    pub fn from_raw(seq: u64) -> Self {
        TimerId { seq, slot: NIL }
    }

    /// The handle's sequence number.
    pub fn raw(self) -> u64 {
        self.seq
    }
}

/// A compact queue entry: the full ordering key plus the slab slot holding
/// the payload. Heap sifts and the wheel's `near` list move these 24 bytes,
/// never the event itself.
struct Key {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl Key {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so a BinaryHeap (a max-heap) pops the earliest event.
        other.key().cmp(&self.key())
    }
}

/// One slab slot: ordering metadata, then the payload. They share the slot
/// because a push and a pop touch both; a cascade reads only the head.
struct Node<E> {
    at: SimTime,
    /// `seq << 1 | cancelled`. A free slot keeps its last tenant's tag with
    /// the bit set, so no handle matches it.
    tag: u64,
    /// The next slot on whichever list this one is on: a wheel slot's
    /// chain while queued on the wheel, the free list once removed.
    next: u32,
    event: Option<E>,
}

/// The key stored in node `idx` and the next slot on its list.
#[inline]
fn unlink<E>(nodes: &[Node<E>], idx: u32) -> (Key, u32) {
    let n = &nodes[idx as usize];
    let key = Key {
        at: n.at,
        seq: n.tag >> 1,
        idx,
    };
    (key, n.next)
}

/// The event store shared by both backends, free slots chained from
/// `free`. Slots are recycled, so the footprint is the queue's high-water
/// mark, not its push count.
struct Slab<E> {
    nodes: Vec<Node<E>>,
    free: u32,
}

impl<E> Slab<E> {
    #[inline]
    fn insert(&mut self, at: SimTime, seq: u64, event: E) -> u32 {
        let node = Node {
            at,
            tag: seq << 1,
            next: NIL,
            event: Some(event),
        };
        let idx = self.free;
        if idx != NIL {
            let i = idx as usize;
            self.free = self.nodes[i].next;
            self.nodes[i] = node;
            return idx;
        }
        let i = self.nodes.len();
        assert!(i < NIL as usize, "pending-event slab overflow");
        self.nodes.push(node);
        i as u32
    }

    /// Frees slot `idx`; returns its payload and whether it was cancelled.
    #[inline]
    fn remove(&mut self, idx: u32) -> (E, bool) {
        let node = &mut self.nodes[idx as usize];
        let event = node
            .event
            .take()
            .expect("queue key pointed at an empty slab slot");
        let cancelled = node.tag & 1 != 0;
        node.tag |= 1;
        node.next = self.free;
        self.free = idx;
        (event, cancelled)
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
    }
}

/// Backend selection for an [`EventQueue`].
///
/// Marked `#[non_exhaustive]`: match with a wildcard arm so new backends
/// can be added without a breaking change. The formerly available
/// `Bucketed` calendar queue was removed after benchmarks showed it slower
/// than the heap in every cell; [`QueueBackend::TimerWheel`] replaces it.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueBackend {
    /// Binary heap. Needs no tick, so it backs [`EventQueue::new`];
    /// simulation runs use the wheel.
    Heap,
    /// Hierarchical timer wheel (six levels × 64 slots, bitmap-indexed),
    /// the backend of every configured simulation run.
    TimerWheel {
        /// Width of one finest-level wheel slot (rounded up to a
        /// power-of-two nanosecond count so slot indexing is a shift, not
        /// a division). Aim for roughly the event inter-arrival time, so
        /// the slot being drained holds about one event; the hierarchy
        /// covers `64^6` ticks above it, so no window knob is needed.
        tick: SimDuration,
    },
}

impl QueueBackend {
    /// The heap backend.
    pub const DEFAULT_HEAP: QueueBackend = QueueBackend::Heap;
}

/// Slots per wheel level; levels are 64× coarser as they go up.
const WHEEL_BITS: u32 = 6;
/// Slots per wheel level (64).
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
/// Wheel levels. Six levels cover `64^6 ≈ 6.9·10^10` ticks beyond the
/// cursor; with a millisecond tick that is two years of simulated time, so
/// the overflow heap is a correctness backstop, not a working store.
const WHEEL_LEVELS: usize = 6;

/// One wheel level: 64 unsorted slots plus an occupancy bitmap, so the
/// next occupied slot is found with a mask and a `trailing_zeros` instead
/// of a scan. A slot is the head of a chain through `Node::next` (`NIL`
/// when its bit is clear): the level owns no memory beyond these heads.
struct WheelLevel {
    occupied: u64,
    heads: [u32; WHEEL_SLOTS],
}

/// Hierarchical timer wheel state.
///
/// `cursor` is the absolute finest-level slot index the wheel has drained
/// up to: every event in a slot at or before the cursor lives in `near`
/// (a small sorted key list), every event after it in the level whose span
/// first covers its distance from the cursor, and everything beyond the
/// top level in `overflow`. Invariant: all `near` events precede all wheel
/// events in time, so the head of `near` is the wheel-or-near minimum and
/// only the `overflow` head can compete with it.
struct TimerWheel {
    /// log2 of the finest-level slot width in nanoseconds.
    shift: u32,
    /// Absolute finest-level slot index of the drain cursor.
    cursor: u64,
    /// Events at or before the cursor slot, kept sorted descending by
    /// `(time, seq)` so the minimum pops from the back in `O(1)` and an
    /// insert is a binary search plus a short contiguous shift — faster
    /// than heap sifts at the ≤ 50-key populations this simulator runs.
    near: Vec<Key>,
    /// Events currently placed in the levels (excludes near and overflow).
    in_wheel: usize,
    /// Events beyond the top level's span from the cursor.
    overflow: BinaryHeap<Key>,
    levels: Box<[WheelLevel; WHEEL_LEVELS]>,
}

impl TimerWheel {
    fn new(tick: SimDuration) -> Self {
        let width = tick.as_nanos().max(1).next_power_of_two();
        TimerWheel {
            shift: width.trailing_zeros(),
            cursor: 0,
            near: Vec::new(),
            in_wheel: 0,
            overflow: BinaryHeap::new(),
            levels: Box::new(std::array::from_fn(|_| WheelLevel {
                occupied: 0,
                heads: [NIL; WHEEL_SLOTS],
            })),
        }
    }

    /// The absolute finest-level slot index covering `at`.
    #[inline]
    fn slot0(&self, at: SimTime) -> u64 {
        at.as_nanos() >> self.shift
    }

    /// The level whose span covers a slot `s` relative to the cursor:
    /// the position of the highest differing bit, in 6-bit digits.
    /// Requires `s > cursor`; returns `WHEEL_LEVELS` for overflow.
    #[inline]
    fn level_of(&self, s: u64) -> usize {
        let diff = s ^ self.cursor;
        ((63 - diff.leading_zeros()) / WHEEL_BITS) as usize
    }

    /// Inserts into `near`, keeping it sorted descending by `(time, seq)`.
    #[inline]
    fn near_insert(&mut self, key: Key) {
        let k = key.key();
        let idx = self.near.partition_point(|e| e.key() > k);
        self.near.insert(idx, key);
    }

    /// The first occupied slot strictly beyond the cursor's own — which is
    /// already drained (level 0) or cascaded below (coarser levels) —
    /// finest level upward. A coarse level's events all start after the
    /// finer levels' current window, so the first hit holds the earliest.
    #[inline]
    fn first_occupied(&self) -> Option<(usize, usize)> {
        for (level, lv) in self.levels.iter().enumerate() {
            let cur_ring = ((self.cursor >> (WHEEL_BITS * level as u32)) & 63) as u32;
            let mask = if cur_ring == 63 {
                0
            } else {
                !0u64 << (cur_ring + 1)
            };
            let ready = lv.occupied & mask;
            if ready != 0 {
                return Some((level, ready.trailing_zeros() as usize));
            }
        }
        None
    }

    #[inline]
    fn push<E>(&mut self, nodes: &mut [Node<E>], key: Key) {
        let s = self.slot0(key.at);
        if s <= self.cursor {
            // The cursor slot (or earlier — a same-instant cascade or a
            // direct push into the past) drains through the near list.
            self.near_insert(key);
            return;
        }
        let level = self.level_of(s);
        if level >= WHEEL_LEVELS {
            self.overflow.push(key);
            return;
        }
        // All bits above the level match the cursor's, and the level's own
        // digit exceeds the cursor's, so the ring index never wraps into
        // already-drained territory.
        let ring = ((s >> (WHEEL_BITS * level as u32)) & 63) as usize;
        let lv = &mut self.levels[level];
        nodes[key.idx as usize].next = lv.heads[ring];
        lv.heads[ring] = key.idx;
        lv.occupied |= 1 << ring;
        self.in_wheel += 1;
    }

    /// Ensures `near` holds the earliest wheel events, advancing the
    /// cursor (and cascading coarse slots) as needed; leaves it empty when
    /// the wheel is too. `overflow` is consulted only to re-anchor a fully
    /// drained wheel.
    ///
    /// Kept out of line: it is generic over the payload only to reach the
    /// links, and inlined into every engine loop it cost the heap-backed
    /// live hosts 1 % of their throughput in code they never run.
    #[inline(never)]
    fn fill_near<E>(&mut self, nodes: &mut [Node<E>]) {
        while self.near.is_empty() {
            if self.in_wheel == 0 {
                // Wheel drained: re-anchor at the overflow's earliest
                // event and migrate everything that now fits the span.
                let Some(front) = self.overflow.peek() else {
                    return;
                };
                self.cursor = self.slot0(front.at);
                while let Some(f) = self.overflow.peek() {
                    let s = self.slot0(f.at);
                    if s > self.cursor && self.level_of(s) >= WHEEL_LEVELS {
                        break;
                    }
                    let key = self.overflow.pop().expect("peeked event vanished");
                    self.push(nodes, key);
                }
                continue;
            }
            let Some((level, ring)) = self.first_occupied() else {
                debug_assert!(false, "wheel count out of sync with occupancy");
                return;
            };
            // Advance the cursor to the start of the found slot: replace
            // the level's digit with `ring`, zero everything below.
            let w = WHEEL_BITS * level as u32;
            self.cursor = (((self.cursor >> (w + WHEEL_BITS)) << WHEEL_BITS) | ring as u64) << w;
            let lv = &mut self.levels[level];
            lv.occupied &= !(1u64 << ring);
            let mut idx = std::mem::replace(&mut lv.heads[ring], NIL);
            while idx != NIL {
                let (key, next) = unlink(nodes, idx);
                self.in_wheel -= 1;
                if level == 0 {
                    self.near.push(key);
                } else {
                    // Cascade a coarse slot down: re-place every key
                    // against the advanced cursor (finer level, or `near`
                    // when the key falls in the cursor slot itself).
                    self.push(nodes, key);
                }
                idx = next;
            }
            if level == 0 {
                // `near` was empty (loop condition), so one unstable sort
                // replaces per-key ordered inserts. Key's `Ord` is
                // reversed, so the ascending sort yields the
                // descending-by-time layout.
                self.near.sort_unstable();
            }
        }
    }

    /// Single-scan pop-with-horizon: locates the minimum once and either
    /// removes it (strictly before `limit`) or reports its instant without
    /// disturbing it.
    #[inline]
    fn pop_before<E>(&mut self, nodes: &mut [Node<E>], limit: Option<SimTime>) -> Popped<Key> {
        if self.near.is_empty() {
            self.fill_near(nodes);
        }
        let take_overflow = match (self.near.last(), self.overflow.peek()) {
            (None, None) => return Popped::Empty,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            // An early overflow event can undercut the wheel: it was
            // pushed against an older cursor and is migrated lazily.
            (Some(n), Some(o)) => o.key() < n.key(),
        };
        let at = if take_overflow {
            self.overflow
                .peek()
                .expect("overflow candidate vanished")
                .at
        } else {
            self.near.last().expect("near candidate vanished").at
        };
        if limit.is_some_and(|h| at >= h) {
            return Popped::AtOrAfter(at);
        }
        let key = if take_overflow {
            self.overflow.pop()
        } else {
            self.near.pop()
        };
        Popped::Event(key.expect("peeked event vanished"))
    }

    /// The `(time, seq)` of the earliest pending event without disturbing
    /// the wheel (no cursor movement, no cascades): the near list's head,
    /// else a bitmap walk to the first occupied slot and an unsorted scan
    /// of that one slot, always compared against the overflow head.
    fn peek_key<E>(&self, nodes: &[Node<E>]) -> Option<(SimTime, u64)> {
        let mut best = self.near.last().map(Key::key);
        if best.is_none() {
            if let Some((level, ring)) = self.first_occupied() {
                let mut idx = self.levels[level].heads[ring];
                while idx != NIL {
                    let (key, next) = unlink(nodes, idx);
                    best = Some(best.map_or(key.key(), |b| b.min(key.key())));
                    idx = next;
                }
            }
        }
        let over = self.overflow.peek().map(Key::key);
        match (best, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    fn clear(&mut self) {
        for lv in self.levels.iter_mut() {
            lv.occupied = 0;
            lv.heads = [NIL; WHEEL_SLOTS];
        }
        self.near.clear();
        self.overflow.clear();
        self.in_wheel = 0;
        // The cursor stays: clearing must not rewind time, so fresh
        // pushes keep landing relative to where the simulation left off.
    }
}

#[cfg(test)]
impl TimerWheel {
    /// Bytes the wheel owns beyond the slab.
    fn footprint(&self) -> usize {
        std::mem::size_of_val(&*self.levels)
            + (self.near.capacity() + self.overflow.capacity()) * std::mem::size_of::<Key>()
    }
}

/// The two interchangeable orderings of the slab's nodes.
enum Store {
    Heap(BinaryHeap<Key>),
    Wheel(TimerWheel),
}

impl Store {
    #[inline]
    fn push<E>(&mut self, nodes: &mut [Node<E>], key: Key) {
        match self {
            Store::Heap(h) => h.push(key),
            Store::Wheel(w) => w.push(nodes, key),
        }
    }

    #[inline]
    fn pop_before<E>(&mut self, nodes: &mut [Node<E>], limit: Option<SimTime>) -> Popped<Key> {
        match self {
            Store::Heap(h) => match h.peek() {
                None => Popped::Empty,
                Some(k) if limit.is_some_and(|l| k.at >= l) => Popped::AtOrAfter(k.at),
                Some(_) => Popped::Event(h.pop().expect("peeked event vanished")),
            },
            Store::Wheel(w) => w.pop_before(nodes, limit),
        }
    }

    fn peek_key<E>(&self, nodes: &[Node<E>]) -> Option<(SimTime, u64)> {
        match self {
            Store::Heap(h) => h.peek().map(Key::key),
            Store::Wheel(w) => w.peek_key(nodes),
        }
    }

    fn clear(&mut self) {
        match self {
            Store::Heap(h) => h.clear(),
            Store::Wheel(w) => w.clear(),
        }
    }
}

/// Result of a [`EventQueue::pop_before`] call: the popped event, or why
/// nothing was popped.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) enum Popped<E> {
    /// The earliest event, removed from the queue.
    Event(E),
    /// The earliest pending event fires at this instant, which is at or
    /// after the requested limit; it stays queued.
    AtOrAfter(SimTime),
    /// No events are pending.
    Empty,
}

/// A future-event list ordered by `(time, insertion sequence)`.
pub struct EventQueue<E> {
    store: Store,
    slab: Slab<E>,
    next_seq: u64,
    len: usize,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty heap-backed queue: the backend that needs no tick
    /// derived from a workload.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::DEFAULT_HEAP)
    }

    /// Creates an empty queue with the given backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        EventQueue {
            store: match backend {
                QueueBackend::Heap => Store::Heap(BinaryHeap::new()),
                QueueBackend::TimerWheel { tick } => Store::Wheel(TimerWheel::new(tick)),
            },
            slab: Slab {
                nodes: Vec::new(),
                free: NIL,
            },
            next_seq: 0,
            len: 0,
            peak_len: 0,
        }
    }

    /// Makes room for `additional` more pending events, so that pushing
    /// them reallocates nothing on either backend.
    pub fn reserve(&mut self, additional: usize) {
        self.slab.nodes.reserve(additional);
        if let Store::Heap(h) = &mut self.store {
            h.reserve(additional);
        }
    }

    /// Enqueues `event` to fire at `at`. Events with equal instants pop in
    /// the order they were pushed. The returned handle cancels the event via
    /// [`EventQueue::cancel`]; callers that never cancel may ignore it.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.slab.insert(at, seq, event);
        self.store.push(&mut self.slab.nodes, Key { at, seq, idx });
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        TimerId { seq, slot: idx }
    }

    /// Cancels a pending event by handle. Returns true when the event was
    /// pending and is now marked; false — and nothing is marked — for a
    /// handle whose event already popped, was already cancelled, was
    /// dropped by [`EventQueue::clear`], or was never issued by this queue
    /// ([`TimerId::from_raw`]). One tag comparison in the handle's slot
    /// decides, and since sequence numbers are never reused, a stale
    /// handle cannot hit the slot's next tenant.
    ///
    /// Deletion is lazy: the event is discarded on its way out of the
    /// backend, so [`EventQueue::len`] keeps counting it until a pop
    /// sweeps past its instant.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        match self.slab.nodes.get_mut(id.slot as usize) {
            Some(node) if node.tag == id.seq << 1 => {
                node.tag |= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest pending event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self.pop_before(None) {
            Popped::Event(e) => Some(e),
            Popped::AtOrAfter(_) | Popped::Empty => None,
        }
    }

    /// Removes and returns the earliest pending event if it fires strictly
    /// before `limit` (`None` = no limit). A single backend scan serves
    /// both the horizon check and the removal, which matters for the wheel
    /// backend where locating the minimum can advance the cursor.
    ///
    /// A cancelled event at or after `limit` may still be reported through
    /// [`Popped::AtOrAfter`] (it is swept only when a pop actually reaches
    /// it); both backends share this behaviour, and the engine only uses the
    /// reported instant to park at its horizon.
    #[inline]
    pub(crate) fn pop_before(&mut self, limit: Option<SimTime>) -> Popped<(SimTime, E)> {
        loop {
            match self.store.pop_before(&mut self.slab.nodes, limit) {
                Popped::Event(k) => {
                    // The sweep of cancelled events lives here, above both
                    // backends, so it cannot make them diverge.
                    let (event, cancelled) = self.slab.remove(k.idx);
                    self.len -= 1;
                    if !cancelled {
                        return Popped::Event((k.at, event));
                    }
                }
                Popped::AtOrAfter(at) => return Popped::AtOrAfter(at),
                Popped::Empty => return Popped::Empty,
            }
        }
    }

    /// The instant of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.store.peek_key(&self.slab.nodes).map(|(at, _)| at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Largest number of simultaneously pending events seen so far.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events; every handle issued so far goes stale
    /// (the sequence counter keeps advancing so determinism is preserved
    /// across a clear).
    pub fn clear(&mut self) {
        self.store.clear();
        self.slab.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both backends, so every contract test runs against each.
    fn backends() -> Vec<(&'static str, EventQueue<&'static str>)> {
        vec![
            ("heap", EventQueue::new()),
            (
                "timer-wheel",
                EventQueue::with_backend(QueueBackend::TimerWheel {
                    tick: SimDuration::from_nanos(1 << 20), // ~1 ms
                }),
            ),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for (name, mut q) in backends() {
            q.push(SimTime::from_secs(3), "c");
            q.push(SimTime::from_secs(1), "a");
            q.push(SimTime::from_secs(2), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "backend {name}");
        }
    }

    #[test]
    fn ties_break_fifo() {
        for backend in [
            QueueBackend::DEFAULT_HEAP,
            QueueBackend::TimerWheel {
                tick: SimDuration::from_secs(1),
            },
        ] {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_secs(5);
            for i in 0..100 {
                q.push(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn interleaved_ties_and_times() {
        for (name, mut q) in backends() {
            q.push(SimTime::from_secs(2), "t2-first");
            q.push(SimTime::from_secs(1), "t1");
            q.push(SimTime::from_secs(2), "t2-second");
            assert_eq!(q.pop().unwrap().1, "t1", "backend {name}");
            assert_eq!(q.pop().unwrap().1, "t2-first", "backend {name}");
            assert_eq!(q.pop().unwrap().1, "t2-second", "backend {name}");
            assert!(q.pop().is_none(), "backend {name}");
        }
    }

    #[test]
    fn peek_time_sees_earliest() {
        for (name, mut q) in backends() {
            assert_eq!(q.peek_time(), None, "backend {name}");
            q.push(SimTime::from_secs(9), "a");
            q.push(SimTime::from_secs(4), "b");
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)), "backend {name}");
            assert_eq!(q.len(), 2, "backend {name}");
        }
    }

    #[test]
    fn clear_empties_but_keeps_working() {
        for (name, mut q) in backends() {
            q.push(SimTime::from_secs(1), "a");
            q.clear();
            assert!(q.is_empty(), "backend {name}");
            q.push(SimTime::from_secs(2), "b");
            assert_eq!(
                q.pop(),
                Some((SimTime::from_secs(2), "b")),
                "backend {name}"
            );
        }
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for s in 0..10u64 {
            q.push(SimTime::from_secs(s), s);
        }
        for _ in 0..4 {
            q.pop();
        }
        q.push(SimTime::from_secs(99), 99);
        assert_eq!(q.peak_len(), 10);
        assert_eq!(q.len(), 7);
    }

    #[test]
    fn wheel_cascades_preserve_order_across_levels() {
        // A 1-nanosecond tick puts these instants several levels up the
        // hierarchy; they must cascade down and pop in exact order.
        let mut q = EventQueue::with_backend(QueueBackend::TimerWheel {
            tick: SimDuration::from_nanos(1),
        });
        let times: Vec<u64> = (0..500).map(|i| (i * 7919) % 10_000_000).collect();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(*t), i);
        }
        let mut sorted: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        sorted.sort();
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn wheel_overflow_reanchors_and_preserves_order() {
        // Instants beyond the top level's span (64^6 ticks at a 1 ns tick
        // ≈ 68.7 s) land in the overflow heap; draining the wheel must
        // re-anchor there and keep exact order, including an early
        // overflow event undercutting later in-wheel pushes.
        let mut q = EventQueue::with_backend(QueueBackend::TimerWheel {
            tick: SimDuration::from_nanos(1),
        });
        let far = SimTime::from_secs(100); // overflow relative to cursor 0
        q.push(far, "far");
        q.push(SimTime::from_secs(1), "near");
        // After popping "near" the cursor sits at ~1 s; "farther" is still
        // beyond the span (joins "far" in overflow) while "soon" lands in
        // the wheel and must undercut both at pop time.
        assert_eq!(q.pop().unwrap().1, "near");
        q.push(SimTime::from_secs(101), "farther");
        q.push(SimTime::from_secs(2), "soon");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["soon", "far", "farther"]);
    }

    #[test]
    fn cancel_skips_events_on_both_backends() {
        for (name, mut q) in backends() {
            let _a = q.push(SimTime::from_secs(1), "a");
            let b = q.push(SimTime::from_secs(2), "b");
            let _c = q.push(SimTime::from_secs(3), "c");
            assert!(q.cancel(b), "backend {name}");
            assert!(!q.cancel(b), "backend {name}: double cancel");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "c"], "backend {name}");
        }
    }

    #[test]
    fn cancel_of_head_event_is_swept_before_later_events() {
        for (name, mut q) in backends() {
            let head = q.push(SimTime::from_secs(1), "head");
            q.push(SimTime::from_secs(1), "tail");
            assert!(q.cancel(head), "backend {name}");
            // len counts the cancelled event until a pop sweeps it.
            assert_eq!(q.len(), 2, "backend {name}");
            assert_eq!(q.pop().unwrap().1, "tail", "backend {name}");
            assert!(q.pop().is_none(), "backend {name}");
            assert_eq!(q.len(), 0, "backend {name}");
        }
    }

    #[test]
    fn cancel_all_pending_drains_to_empty() {
        for (name, mut q) in backends() {
            let ids: Vec<TimerId> = (0..5u64)
                .map(|s| q.push(SimTime::from_secs(s), "x"))
                .collect();
            for id in ids {
                assert!(q.cancel(id), "backend {name}");
            }
            assert!(q.pop().is_none(), "backend {name}");
            assert!(q.is_empty(), "backend {name}");
        }
    }

    #[test]
    fn cancel_rejects_stale_and_fabricated_handles() {
        for (name, mut q) in backends() {
            let a = q.push(SimTime::from_secs(1), "a");
            assert!(!q.cancel(TimerId::from_raw(a.raw())), "{name}: fabricated");
            assert!(q.cancel(a), "backend {name}");
            q.clear();
            assert!(!q.cancel(a), "{name}: dropped by clear");
            // "b" moves into a's slot; a's handle must not reach it, and
            // fresh pushes pop normally though their seqs run on.
            let b = q.push(SimTime::from_secs(2), "b");
            assert!(!q.cancel(a), "{name}: the slot's next tenant");
            assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")), "{name}");
            assert!(!q.cancel(b), "{name}: already popped");
            q.push(SimTime::from_secs(3), "c");
            assert!(!q.cancel(b), "{name}: popped, slot reused");
            assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")), "{name}");
        }
    }

    #[test]
    fn wheel_retains_no_burst_capacity() {
        // Every lap parks 4 096 events in one coarse slot, which cascades
        // into a single level-0 slot — a different one each lap — and
        // drains from there. Slots that were `Vec`s kept each burst's
        // capacity (64 × 4 096 keys after one turn of level 0); list heads
        // keep nothing, so what the wheel owns beyond the slab stops
        // growing after the first lap and the slab recycles its slots.
        let mut q = EventQueue::with_backend(QueueBackend::TimerWheel {
            tick: SimDuration::from_nanos(1),
        });
        let mut first_lap = None;
        for lap in 1..=130u64 {
            let at = SimTime::from_nanos(lap * 64 + lap % 63 + 1);
            for i in 0..4096 {
                q.push(at, i);
            }
            while q.pop().is_some() {}
            let Store::Wheel(wheel) = &q.store else {
                unreachable!("built on the wheel");
            };
            let owned = wheel.footprint();
            assert_eq!(*first_lap.get_or_insert(owned), owned, "lap {lap}");
            assert_eq!(q.slab.nodes.len(), 4096, "lap {lap}");
        }
    }

    #[test]
    fn wheel_mixed_horizons_match_heap() {
        // The simulator's real timer profile: dense near-future deliveries
        // (tens of microseconds to ~1 s) mixed with sparse TTL-scale
        // timers hours out, popped with interleaved pushes so the cursor
        // crosses every level boundary repeatedly.
        let mut heap = EventQueue::new();
        let mut wheel = EventQueue::with_backend(QueueBackend::TimerWheel {
            tick: SimDuration::from_nanos(1 << 26), // ~67 ms
        });
        let mut state = 0xD1B54A32D192ED03u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for i in 0..4000u64 {
            if rng() % 4 != 0 {
                // 1-in-8: a far timer (up to ~4 hours); else a delivery
                // within ~2 s.
                let gap = if rng() % 8 == 0 {
                    rng() % 14_400_000_000_000
                } else {
                    rng() % 2_000_000_000
                };
                let at = now + gap;
                heap.push(SimTime::from_nanos(at), i);
                wheel.push(SimTime::from_nanos(at), i);
            } else {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t.as_nanos();
                }
            }
        }
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The reference: pending events in a `Vec` kept sorted by `(at, seq)`,
    /// cancelled ones flagged in place and swept when a pop reaches them.
    #[derive(Default)]
    struct Model {
        pending: Vec<(u64, u64, bool)>,
        next_seq: u64,
        peak: usize,
    }

    impl Model {
        fn push(&mut self, at: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            let i = self.pending.partition_point(|e| (e.0, e.1) < (at, seq));
            self.pending.insert(i, (at, seq, false));
            self.peak = self.peak.max(self.pending.len());
            seq
        }

        fn cancel(&mut self, seq: u64) -> bool {
            match self.pending.iter_mut().find(|e| e.1 == seq && !e.2) {
                Some(e) => {
                    e.2 = true;
                    true
                }
                None => false,
            }
        }

        fn pop_before(&mut self, limit: Option<u64>) -> Popped<(SimTime, u64)> {
            loop {
                let Some(&(at, seq, cancelled)) = self.pending.first() else {
                    return Popped::Empty;
                };
                if limit.is_some_and(|l| at >= l) {
                    return Popped::AtOrAfter(SimTime::from_nanos(at));
                }
                self.pending.remove(0);
                if !cancelled {
                    return Popped::Event((SimTime::from_nanos(at), seq));
                }
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push this far past the last popped instant (0: the same instant).
        Push(u64),
        Pop,
        /// `pop_before` with the limit this far past the last popped instant.
        PopBefore(u64),
        /// Cancel the n-th handle issued so far (modulo their count), be
        /// its event pending, popped, cancelled or cleared.
        Cancel(usize),
        /// Cancel a fabricated handle with this sequence number.
        CancelRaw(u64),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            8 => Just(Op::Push(0)),
            20 => (1u64..200).prop_map(Op::Push),
            16 => (1u64..5_000_000).prop_map(Op::Push),
            // Hours out: the coarse levels, and past the 1 ns wheel's span.
            6 => (1u64..20_000_000_000_000).prop_map(Op::Push),
            22 => Just(Op::Pop),
            10 => (0u64..10_000_000).prop_map(Op::PopBefore),
            14 => (0usize..1 << 16).prop_map(Op::Cancel),
            3 => (0u64..64).prop_map(Op::CancelRaw),
            1 => Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 1024 }
        ))]

        /// Any interleaving of the queue's operations reads the same on the
        /// heap, on the wheel at three very different ticks, and on the
        /// sorted-`Vec` model: popped sequence, `cancel`'s answer, `len`,
        /// `peak_len` and `peek_time` after every step.
        fn every_backend_follows_the_sorted_vec_model(
            ops in prop::collection::vec(op(), 1..400),
        ) {
            let wheel = |nanos| QueueBackend::TimerWheel {
                tick: SimDuration::from_nanos(nanos),
            };
            for backend in [
                QueueBackend::DEFAULT_HEAP,
                wheel(1),
                wheel(4096),
                wheel(8_000_000_000),
            ] {
                let mut q = EventQueue::with_backend(backend);
                let mut model = Model::default();
                let mut handles = Vec::new();
                let mut now = 0u64;
                for (step, op) in ops.iter().enumerate() {
                    let ctx = format!("{backend:?}, step {step}: {op:?}");
                    match *op {
                        Op::Push(gap) => {
                            let seq = model.push(now + gap);
                            handles.push((q.push(SimTime::from_nanos(now + gap), seq), seq));
                        }
                        Op::Pop => {
                            let want = match model.pop_before(None) {
                                Popped::Event(e) => Some(e),
                                _ => None,
                            };
                            now = want.map_or(now, |(at, _)| at.as_nanos());
                            prop_assert_eq!(q.pop(), want, "{}", ctx);
                        }
                        Op::PopBefore(ahead) => {
                            let limit = now + ahead;
                            let want = model.pop_before(Some(limit));
                            if let Popped::Event((at, _)) = want {
                                now = at.as_nanos();
                            }
                            let got = q.pop_before(Some(SimTime::from_nanos(limit)));
                            prop_assert_eq!(got, want, "{}", ctx);
                        }
                        Op::Cancel(n) => {
                            if let Some(&(id, seq)) = handles.get(n % handles.len().max(1)) {
                                prop_assert_eq!(q.cancel(id), model.cancel(seq), "{}", ctx);
                            }
                        }
                        Op::CancelRaw(seq) => {
                            prop_assert!(!q.cancel(TimerId::from_raw(seq)), "{}", ctx);
                        }
                        Op::Clear => {
                            q.clear();
                            model.pending.clear();
                        }
                    }
                    let head = model.pending.first().map(|e| SimTime::from_nanos(e.0));
                    prop_assert_eq!(q.peek_time(), head, "{}", ctx);
                    prop_assert_eq!(q.len(), model.pending.len(), "{}", ctx);
                    prop_assert_eq!(q.peak_len(), model.peak, "{}", ctx);
                }
            }
        }
    }
}
