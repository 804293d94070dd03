//! Deterministic in-process cluster: the loopback [`FrameNet`].
//!
//! Every frame is queued with a fixed virtual transit delay and delivered
//! when the cluster's virtual clock passes it — no sockets, no threads, no
//! wall time. The failure-detector, lease-expiry, and rejoin state
//! machines run exactly as they do over TCP (same [`NodeHost`] code), but
//! every run is bit-reproducible, which is what makes kill/restart
//! recovery unit-testable.

use std::collections::{HashSet, VecDeque};

use dup_overlay::NodeId;
use dup_sim::{SimDuration, SimTime};

use crate::codec::{Frame, NodeSnapshot};
use crate::host::{FrameNet, LiveConfig, LiveScheme, NodeHost};

/// The loopback transport: a virtual-time frame queue with severable
/// links.
pub struct LoopbackNet<M> {
    delay: SimDuration,
    /// In-flight frames as `(deliver_at, to, frame)`; constant delay keeps
    /// the queue sorted by push order, preserving per-pair FIFO like TCP.
    queue: VecDeque<(SimTime, NodeId, Frame<M>)>,
    /// Severed directed links (frames are silently dropped, as during a
    /// TCP reconnect window).
    cut: HashSet<(NodeId, NodeId)>,
    /// Frames handed to the net so far (including dropped ones).
    pub sent: u64,
    /// Of those, `Heartbeat` frames.
    pub heartbeats: u64,
    /// Frames dropped on severed links.
    pub dropped: u64,
    now: SimTime,
}

impl<M> LoopbackNet<M> {
    /// Creates the net with the given per-frame transit delay.
    pub fn new(delay: SimDuration) -> Self {
        LoopbackNet {
            delay,
            queue: VecDeque::new(),
            cut: HashSet::new(),
            sent: 0,
            heartbeats: 0,
            dropped: 0,
            now: SimTime::ZERO,
        }
    }

    /// Severs the directed link `from → to`.
    pub fn cut_link(&mut self, from: NodeId, to: NodeId) {
        self.cut.insert((from, to));
    }

    /// Restores the directed link `from → to`.
    pub fn heal_link(&mut self, from: NodeId, to: NodeId) {
        self.cut.remove(&(from, to));
    }

    /// Removes and returns every frame due at or before `now`, in send
    /// order: the due frames are a prefix of the queue, and the frames
    /// behind them are not touched.
    fn take_due(&mut self, now: SimTime) -> Vec<(NodeId, Frame<M>)> {
        self.now = now;
        let due = self.queue.partition_point(|&(at, ..)| at <= now);
        self.queue
            .drain(..due)
            .map(|(_, to, frame)| (to, frame))
            .collect()
    }

    /// Frames still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

impl<M> FrameNet<M> for LoopbackNet<M> {
    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame<M>) -> bool {
        self.sent += 1;
        self.heartbeats += u64::from(matches!(frame, Frame::Heartbeat { .. }));
        if self.cut.contains(&(from, to)) {
            self.dropped += 1;
            return false;
        }
        self.queue.push_back((self.now + self.delay, to, frame));
        true
    }
}

/// A whole cluster driven on virtual time: hosts plus the loopback net,
/// with kill/restart controls mirroring what the TCP harness does to real
/// processes.
pub struct LoopbackCluster<S: LiveScheme> {
    cfg: LiveConfig,
    hosts: Vec<Option<NodeHost<S>>>,
    net: LoopbackNet<S::Msg>,
    incarnations: Vec<u64>,
    make_scheme: fn() -> S,
    quantum: SimDuration,
    now: SimTime,
}

impl<S: LiveScheme> LoopbackCluster<S> {
    /// Boots every node of `cfg`'s topology at virtual time zero.
    pub fn new(cfg: LiveConfig, make_scheme: fn() -> S) -> Self {
        let n = cfg.n();
        let mut cluster = LoopbackCluster {
            hosts: Vec::new(),
            net: LoopbackNet::new(SimDuration::from_secs_f64(0.001)),
            incarnations: vec![1; n],
            make_scheme,
            quantum: SimDuration::from_secs_f64(0.005),
            now: SimTime::ZERO,
            cfg,
        };
        for i in 0..n {
            let mut host = NodeHost::new(
                NodeId::from_index(i),
                1,
                cluster.cfg.clone(),
                (cluster.make_scheme)(),
                cluster.now,
            );
            host.start(cluster.now, &mut cluster.net);
            cluster.hosts.push(Some(host));
        }
        cluster
    }

    /// The cluster's virtual clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The loopback net (link controls, traffic counters).
    pub fn net_mut(&mut self) -> &mut LoopbackNet<S::Msg> {
        &mut self.net
    }

    /// The host for `node`, unless killed.
    pub fn host(&self, node: NodeId) -> Option<&NodeHost<S>> {
        self.hosts[node.index()].as_ref()
    }

    /// Mutable access to the host for `node`, unless killed (attach a
    /// probe, say).
    pub fn host_mut(&mut self, node: NodeId) -> Option<&mut NodeHost<S>> {
        self.hosts[node.index()].as_mut()
    }

    /// Hands `frame` straight to `to`'s host at the current instant, as if
    /// a peer — or anyone who can reach its socket — had sent it.
    pub fn inject(&mut self, to: NodeId, frame: Frame<S::Msg>) {
        if let Some(host) = self.hosts[to.index()].as_mut() {
            host.on_frame(self.now, frame, &mut self.net);
        }
    }

    /// Advances virtual time by `dur`, delivering frames and running every
    /// live host on each tick.
    pub fn run_for(&mut self, dur: SimDuration) {
        let end = self.now + dur;
        while self.now < end {
            self.now += self.quantum;
            let now = self.now;
            let due = self.net.take_due(now);
            let LoopbackCluster { hosts, net, .. } = self;
            for (to, frame) in due {
                // Frames to a killed process vanish, as on a dead socket.
                if let Some(host) = hosts[to.index()].as_mut() {
                    host.on_frame(now, frame, net);
                }
            }
            for host in hosts.iter_mut().flatten() {
                host.advance(now, net);
            }
        }
    }

    /// Kills `node`'s process abruptly (no goodbye traffic).
    pub fn kill(&mut self, node: NodeId) {
        self.hosts[node.index()] = None;
    }

    /// Restarts `node` with a bumped incarnation; it rejoins via
    /// Hello/HelloAck and re-subscribes through the query path.
    pub fn restart(&mut self, node: NodeId) {
        let i = node.index();
        assert!(self.hosts[i].is_none(), "restart of a live node {node}");
        self.incarnations[i] += 1;
        let mut host = NodeHost::new(
            node,
            self.incarnations[i],
            self.cfg.clone(),
            (self.make_scheme)(),
            self.now,
        );
        host.start(self.now, &mut self.net);
        self.hosts[i] = Some(host);
    }

    /// Snapshots every live host.
    pub fn snapshots(&self) -> Vec<NodeSnapshot> {
        self.hosts.iter().flatten().map(|h| h.snapshot()).collect()
    }
}
