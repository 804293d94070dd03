//! Real-socket transport: length-delimited TCP on localhost.
//!
//! Discovery is file-based: each node binds an ephemeral port and
//! publishes it as `<rendezvous>/<index>.addr`; peers re-read the file on
//! every dial, so a restarted process (new port, bumped incarnation) is
//! found without any coordinator. Outbound links are lazy — the first
//! frame to a peer dials it — and a broken link drops into
//! [`ReconnectBackoff`]-governed redial instead of blocking the host.
//! Inbound frames from all peers funnel through one reader channel;
//! [`run_live_node`] is the complete event loop of a node process, with
//! its sleep budgeted by the host's next timer/detector deadline.

use std::fs::File;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use dup_overlay::NodeId;
use dup_sim::{SimDuration, SimTime};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::backoff::ReconnectBackoff;
use crate::codec::{read_frame, write_frame, Frame};
use crate::host::{FrameNet, LiveConfig, LiveScheme, NodeHost};

/// How long a blocked socket write may stall the event loop before the
/// link is declared broken and handed to the backoff policy.
const WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// No rendezvous file is read past this: a socket address is shorter, and
/// whatever else the file holds is refused before it is allocated for.
const MAX_ADDR_BYTES: u64 = 256;

/// The rendezvous file advertising `node`'s listener address.
pub fn addr_file(dir: &Path, node: NodeId) -> PathBuf {
    dir.join(format!("{}.addr", node.index()))
}

/// Publishes `addr` for `node` atomically (write-then-rename), so a
/// dialing peer never reads a half-written file.
pub fn publish_addr(dir: &Path, node: NodeId, addr: &str) -> io::Result<()> {
    let tmp = dir.join(format!("{}.addr.tmp", node.index()));
    std::fs::write(&tmp, addr)?;
    std::fs::rename(&tmp, addr_file(dir, node))
}

/// Outbound half of the live transport: lazy per-peer TCP links with
/// exponential-backoff redial. Sending to a peer whose link is down (or
/// still backed off) reports `false` — exactly the contract the loopback
/// net's severed links have, so the host code is identical.
pub struct TcpNet {
    me: NodeId,
    dir: PathBuf,
    links: Vec<Option<TcpStream>>,
    backoff: ReconnectBackoff,
    epoch: Instant,
    /// Frames written successfully.
    pub sent: u64,
    /// Frames dropped because the link was down or backed off.
    pub dropped: u64,
}

impl TcpNet {
    /// Creates the net for `me`, dialing peers via `dir`'s rendezvous
    /// files. `epoch` anchors backoff timestamps (share it with the node's
    /// wall clock).
    pub fn new(me: NodeId, dir: PathBuf, n: usize, epoch: Instant) -> Self {
        TcpNet {
            me,
            dir,
            links: (0..n).map(|_| None).collect(),
            backoff: ReconnectBackoff::new(
                SimDuration::from_secs_f64(0.05),
                2.0,
                SimDuration::from_secs_f64(1.0),
            ),
            epoch,
            sent: 0,
            dropped: 0,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Ensures an outbound link to `to`, dialing (within the backoff
    /// schedule) if necessary.
    fn link(&mut self, to: NodeId) -> Option<&mut TcpStream> {
        let i = to.index();
        if self.links[i].is_none() {
            let now = self.now();
            if !self.backoff.may_attempt(to, now) {
                return None;
            }
            match self.dial(to) {
                Ok(stream) => {
                    self.backoff.note_success(to);
                    self.links[i] = Some(stream);
                }
                Err(_) => {
                    self.backoff.note_failure(to, now);
                    return None;
                }
            }
        }
        self.links[i].as_mut()
    }

    fn dial(&self, to: NodeId) -> io::Result<TcpStream> {
        // Re-read on every attempt: a restarted peer publishes a new port.
        // The file is anyone's to write: it must hold a literal socket
        // address (no name is ever resolved) within its first bytes.
        let mut addr = String::new();
        File::open(addr_file(&self.dir, to))?
            .take(MAX_ADDR_BYTES)
            .read_to_string(&mut addr)?;
        let addr: SocketAddr = addr
            .trim()
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(stream)
    }

    /// Consecutive dial failures currently recorded against `to`.
    pub fn failures(&self, to: NodeId) -> u32 {
        self.backoff.failures(to)
    }
}

impl<M: Serialize> FrameNet<M> for TcpNet {
    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame<M>) -> bool {
        debug_assert_eq!(from, self.me, "TcpNet sends only on behalf of its owner");
        let had_link = self.links[to.index()].is_some();
        let Some(stream) = self.link(to) else {
            self.dropped += 1;
            return false;
        };
        match write_frame(stream, &frame) {
            Ok(()) => {
                self.sent += 1;
                true
            }
            Err(_) => {
                // The cached link is stale (peer died, or restarted on a
                // new port). Retry once over a fresh dial — the rendezvous
                // file is re-read, so a restarted peer is found
                // immediately; only a failed dial engages the backoff.
                self.links[to.index()] = None;
                if had_link {
                    if let Ok(mut fresh) = self.dial(to) {
                        if write_frame(&mut fresh, &frame).is_ok() {
                            self.backoff.note_success(to);
                            self.links[to.index()] = Some(fresh);
                            self.sent += 1;
                            return true;
                        }
                    }
                }
                let now = self.now();
                self.backoff.note_failure(to, now);
                self.dropped += 1;
                false
            }
        }
    }
}

/// Spawns the accept loop: every inbound connection gets a reader thread
/// that decodes frames into `tx` until the peer closes. A body that is
/// not a frame is dropped and reading goes on — the length prefix kept
/// the stream aligned; any other error ends the connection.
fn spawn_acceptor<M>(listener: TcpListener, tx: mpsc::Sender<Frame<M>>)
where
    M: DeserializeOwned + Send + 'static,
{
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let tx = tx.clone();
            thread::spawn(move || {
                // Buffered, so a frame's prefix and body are one `read`.
                let mut stream = BufReader::new(stream);
                loop {
                    match read_frame::<_, M>(&mut stream) {
                        Ok(frame) => {
                            if tx.send(frame).is_err() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::InvalidData => {}
                        Err(_) => break,
                    }
                }
            });
        }
    });
}

/// Runs one live node to completion: binds a listener, publishes its
/// address, boots the protocol host, and loops — delivering inbound
/// frames, firing due timers, and sleeping no longer than the host's next
/// deadline. Returns when a [`Frame::Shutdown`] arrives or the listener
/// dies.
pub fn run_live_node<S>(
    index: usize,
    incarnation: u64,
    rendezvous: &Path,
    cfg: LiveConfig,
    scheme: S,
) -> io::Result<()>
where
    S: LiveScheme,
    S::Msg: Serialize + DeserializeOwned + Send + 'static,
{
    let me = NodeId::from_index(index);
    let n = cfg.n();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    publish_addr(rendezvous, me, &listener.local_addr()?.to_string())?;

    let (tx, rx) = mpsc::channel::<Frame<S::Msg>>();
    spawn_acceptor(listener, tx);

    let epoch = Instant::now();
    let mut net = TcpNet::new(me, rendezvous.to_path_buf(), n, epoch);
    let now = || SimTime::from_nanos(u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX));
    let mut host = NodeHost::new(me, incarnation, cfg, scheme, now());
    host.start(now(), &mut net);

    loop {
        // Sleep only as long as nothing can become due: the next timer
        // event, detector deadline, or heartbeat — capped so inbound
        // frames are still polled at a steady floor.
        let budget = host
            .next_deadline()
            .saturating_since(now())
            .as_nanos()
            .clamp(1_000_000, 50_000_000);
        match rx.recv_timeout(Duration::from_nanos(budget)) {
            Ok(Frame::Shutdown) => {
                let _ = std::fs::remove_file(addr_file(rendezvous, me));
                return Ok(());
            }
            Ok(Frame::SnapshotReq { reply_to }) => {
                let snap = host.snapshot();
                if let Ok(mut reply) = TcpStream::connect(reply_to.trim()) {
                    let _ = reply.set_write_timeout(Some(WRITE_TIMEOUT));
                    let _ = write_frame(&mut reply, &Frame::<S::Msg>::Snapshot(snap));
                }
                host.advance(now(), &mut net);
            }
            Ok(frame) => host.on_frame(now(), frame, &mut net),
            Err(mpsc::RecvTimeoutError::Timeout) => host.advance(now(), &mut net),
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use super::*;
    use dup_core::DupMsg;

    fn heartbeat(incarnation: u64) -> Frame<DupMsg> {
        Frame::Heartbeat {
            node: NodeId(1),
            incarnation,
        }
    }

    /// A scratch rendezvous directory of this test's own.
    fn rendezvous(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dup-live-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        dir
    }

    /// A body that does not decode costs that frame, not the connection:
    /// the frame behind it on the same socket is delivered.
    #[test]
    fn garbage_body_is_skipped_and_the_connection_keeps_reading() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel::<Frame<DupMsg>>();
        spawn_acceptor(listener, tx);

        let mut peer = TcpStream::connect(addr).unwrap();
        let garbage = b"{\"Heartbeat\":{\"node\":\"one\"}} not a frame";
        let mut bytes = (garbage.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(garbage);
        write_frame(&mut bytes, &heartbeat(7)).unwrap();
        peer.write_all(&bytes).unwrap();

        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("valid frame arrives");
        assert!(
            matches!(got, Frame::Heartbeat { incarnation: 7, .. }),
            "got {got:?}"
        );
    }

    /// The rendezvous file is outside input: whatever it holds, a send
    /// fails as a down link fails (`false`, backoff engaged), and once the
    /// file is republished the next dial the backoff permits connects.
    #[test]
    fn malformed_addr_file_fails_the_send_and_republishing_heals_it() {
        let dir = rendezvous("addr");
        let (me, peer) = (NodeId(0), NodeId(1));
        let mut net = TcpNet::new(me, dir.clone(), 2, Instant::now());
        let hostile: [&[u8]; 5] = [
            b"",
            b"not an address",
            b"\xff\xfe\x00garbage",
            b"localhost:9",
            &vec![b'7'; 1 << 20],
        ];
        for (i, contents) in hostile.into_iter().enumerate() {
            std::fs::write(addr_file(&dir, peer), contents).unwrap();
            // Move the clock past the longest backoff instead of sleeping.
            net.epoch -= Duration::from_secs(2);
            assert!(!net.send(me, peer, heartbeat(1)), "case {i} sent");
            assert_eq!(net.failures(peer), i as u32 + 1, "case {i}");
            assert!(
                !net.send(me, peer, heartbeat(1)),
                "case {i}: backoff let a dial through"
            );
            assert_eq!(
                net.failures(peer),
                i as u32 + 1,
                "case {i}: backed-off send dialed"
            );
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        publish_addr(&dir, peer, &listener.local_addr().unwrap().to_string()).unwrap();
        assert!(!net.send(me, peer, heartbeat(2)), "backoff still holds");
        net.epoch -= Duration::from_secs(2);
        assert!(net.send(me, peer, heartbeat(2)));
        assert_eq!(net.failures(peer), 0);
        let (mut inbound, _) = listener.accept().unwrap();
        let got: Frame<DupMsg> = read_frame(&mut inbound).unwrap();
        assert!(
            matches!(got, Frame::Heartbeat { incarnation: 2, .. }),
            "got {got:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
