//! Wire frames and the length-delimited codec.
//!
//! Every byte that crosses a live-host connection is one [`Frame`],
//! encoded as a 4-byte big-endian length followed by that many bytes of
//! JSON. The JSON is whatever `#[derive(Serialize, Deserialize)]` makes
//! of the [`Frame`], [`dup_proto::Msg`] and scheme-message declarations;
//! this module adds only the length prefix and its cap. [`write_frame`]
//! has `serde_json` render the body, puts the prefix in front of it in
//! the same buffer and writes the two at once; [`read_frame`] reads the
//! body into a buffer that grows with what arrives and has `serde_json`
//! decode the frame from it. Neither builds a tree of JSON values.
//!
//! Which path runs: the derive writes each declaration's canonical
//! compact JSON as straight-line code, and `serde_json` tries it first.
//! Every frame but `HelloAck` and `Snapshot` is written and read that
//! way; those two carry a [`SearchTree`], whose impls are written by
//! hand, so they are rendered by the general JSON writer and read by the
//! general parser. So is any body that is not byte for byte what
//! [`write_frame`] writes (whitespace, reordered keys, damage) or that
//! holds an escaped string, which only the parser unescapes: the
//! straight-line reader gives up at the first byte that differs and the
//! parser reads the whole body again, accepting or refusing it as it
//! always did.
//!
//! What bounds an untrusted body, and where: its length here, before
//! allocating; UTF-8 over the whole body in `serde_json`, before either
//! path; nesting depth (128) on both paths, by the parser's container
//! walker and by the straight-line reader's level count; integer ranges
//! by checked digits on the straight-line path and by the derived impls
//! on the parser's; variant names and missing fields in the derived
//! code on both; trailing bytes at the parser's entry point, to which
//! the straight-line path hands any body with bytes left over — and a
//! body that fails any of them is `io::ErrorKind::InvalidData`, with the
//! stream still aligned on the next prefix. The protocol
//! payload travels inside [`Frame::Deliver`] untouched — the same `Msg`
//! values the simulator schedules are what the sockets carry, so the
//! scheme logic cannot diverge between the two substrates, and any
//! scheme whose messages derive serde (PCX's empty `NoMsg` included) can
//! run over a serializing net. Causal span identity
//! ([`dup_proto::scheme::Ev::Deliver`]'s `cause`) is a simulator-side
//! observability concern and is not serialized; receivers reconstruct
//! deliveries with `SpanInfo::NONE`.

use std::io::{self, Read, Write};

use dup_overlay::{NodeId, SearchTree};
use dup_proto::{Msg, MsgClass};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

/// Refuse frames larger than this (a corrupt length prefix must not make
/// the reader allocate gigabytes).
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// One host's state snapshot, as reported to the harness for the oracle
/// check. `s_list` is the node's **own** subscriber list — the only list a
/// live host owns; the harness rebuilds global state by loading each
/// host's list into one scheme (see `DupScheme::load_list`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// The reporting node.
    pub node: NodeId,
    /// Its process incarnation (bumped on restart).
    pub incarnation: u64,
    /// Its current view of the search tree.
    pub tree: SearchTree,
    /// Its own subscriber list.
    pub s_list: Vec<NodeId>,
    /// Whether it is subscribed (appears in its own list).
    pub subscribed: bool,
    /// The version of its cached index copy, if any.
    pub cache_version: Option<u64>,
    /// The authority version it has observed (its local authority clock).
    pub authority_version: u64,
    /// Queries it has issued so far.
    pub queries_issued: u64,
}

/// Everything that travels between live hosts (and the harness).
///
/// This declaration is the wire format: serde's externally tagged layout,
/// fields in the order written here (pinned byte for byte by
/// `tests/golden/frames.txt`). A new field is one line here and a
/// re-recorded golden.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Frame<M> {
    /// Announces a (re)started process. Receivers repair their tree for a
    /// newer incarnation; a restart (incarnation above 1) is answered with
    /// [`Frame::HelloAck`].
    Hello {
        /// The announcing node.
        node: NodeId,
        /// Its process incarnation.
        incarnation: u64,
    },
    /// Reply to [`Frame::Hello`]: the responder's tree view, which a
    /// restarted node adopts as its bootstrap state.
    HelloAck {
        /// The responding node.
        node: NodeId,
        /// The responder's incarnation.
        incarnation: u64,
        /// The responder's current search-tree view.
        tree: SearchTree,
    },
    /// Periodic liveness beacon feeding the failure detector of a
    /// search-tree neighbour.
    Heartbeat {
        /// The beaconing node.
        node: NodeId,
        /// Its process incarnation.
        incarnation: u64,
    },
    /// A membership verdict, flooded over the search tree: `node` at
    /// `incarnation` is alive (admitted) or dead (spliced out). Hosts order
    /// verdicts on a node by incarnation, dead above alive at the same one.
    Verdict {
        /// The node the verdict is about.
        node: NodeId,
        /// The incarnation it names.
        incarnation: u64,
        /// Alive, or dead.
        alive: bool,
    },
    /// One protocol message, exactly as the in-sim substrate would have
    /// scheduled it.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Addressee.
        to: NodeId,
        /// Accounting class of the hop.
        class: MsgClass,
        /// The protocol payload.
        msg: Msg<M>,
    },
    /// Harness control: report a [`NodeSnapshot`] by dialing `reply_to`
    /// and writing one [`Frame::Snapshot`].
    SnapshotReq {
        /// Address (host:port) the snapshot should be sent to.
        reply_to: String,
    },
    /// Reply to [`Frame::SnapshotReq`].
    Snapshot(NodeSnapshot),
    /// Harness control: exit the process cleanly.
    Shutdown,
}

/// A frame body starts out with room for this much, and no length prefix
/// makes [`read_frame`] reserve more before the bytes have arrived.
const BODY_RESERVE: usize = 64 * 1024;

/// Writes one length-delimited frame: prefix and body are built in one
/// buffer (the body rendered, then the prefix moved in front of it) and
/// handed to `w` in one `write_all`, so a frame is one `write` syscall
/// and one segment on a `TCP_NODELAY` socket.
pub fn write_frame<W: Write, M: Serialize>(w: &mut W, frame: &Frame<M>) -> io::Result<()> {
    let mut buf = serde_json::to_vec(frame).map_err(io::Error::other)?;
    let len = u32::try_from(buf.len()).map_err(|_| io::Error::other("frame too large"))?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::other("frame exceeds MAX_FRAME_BYTES"));
    }
    buf.splice(..0, len.to_be_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one length-delimited frame. `Err(UnexpectedEof)` on a closed
/// connection, cleanly between frames or short inside one;
/// `Err(InvalidData)` on a body that is not a frame, after which the
/// stream is still aligned on the next prefix; any other error is the
/// connection's.
pub fn read_frame<R: Read, M: DeserializeOwned>(r: &mut R) -> io::Result<Frame<M>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::other(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    // The prefix is a peer's claim: the buffer grows with the bytes that
    // arrive, not with the length announced.
    let len = len as usize;
    let mut body = Vec::with_capacity(len.min(BODY_RESERVE));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    serde_json::from_slice(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use super::*;
    use dup_core::DupMsg;
    use dup_proto::cup::CupMsg;
    use dup_proto::pcx::NoMsg;
    use dup_proto::{IndexRecord, Version};
    use dup_sim::SimTime;
    use proptest::prelude::*;

    fn record() -> IndexRecord {
        IndexRecord {
            version: Version(7),
            created: SimTime::from_secs(3),
            expires: SimTime::from_nanos(3_600_000_000_001),
        }
    }

    /// One frame per `Frame` variant but `Deliver`.
    fn control_frames() -> Vec<Frame<DupMsg>> {
        let tree = SearchTree::from_parents(&[None, Some(NodeId(0)), Some(NodeId(0))]);
        vec![
            Frame::Hello {
                node: NodeId(3),
                incarnation: 2,
            },
            Frame::HelloAck {
                node: NodeId(1),
                incarnation: 1,
                tree: tree.clone(),
            },
            Frame::Heartbeat {
                node: NodeId(0),
                incarnation: u64::MAX,
            },
            Frame::Verdict {
                node: NodeId(5),
                incarnation: 3,
                alive: false,
            },
            Frame::SnapshotReq {
                reply_to: "127.0.0.1:9\"\\\u{e9}".into(),
            },
            Frame::Snapshot(NodeSnapshot {
                node: NodeId(2),
                incarnation: 4,
                tree,
                s_list: vec![NodeId(2), NodeId(1)],
                subscribed: true,
                cache_version: None,
                authority_version: 9,
                queries_issued: 12,
            }),
            Frame::Shutdown,
        ]
    }

    /// `Frame::Deliver` once per `Msg` variant, `Scheme` once per entry of
    /// `scheme` and `Tracked` around the first of them.
    fn deliver_frames<M: Clone>(scheme: &[M]) -> Vec<Frame<M>> {
        let mut msgs = vec![
            Msg::Request {
                origin: NodeId(6),
                visited: vec![NodeId(6), NodeId(5), NodeId(3)],
                issued_at: SimTime::from_nanos(1_500_000_000),
                riders: vec![NodeId(6)],
            },
            Msg::Reply {
                record: record(),
                remaining: vec![NodeId(6), NodeId(5)],
                issued_at: SimTime::from_nanos(1_500_000_000),
            },
        ];
        msgs.extend(scheme.iter().cloned().map(Msg::Scheme));
        msgs.extend(scheme.first().map(|inner| Msg::Tracked {
            seq: u64::MAX,
            inner: inner.clone(),
        }));
        msgs.push(Msg::Ack { seq: 41 });
        let classes = [
            MsgClass::Request,
            MsgClass::Reply,
            MsgClass::Push,
            MsgClass::Control,
        ];
        let deliver = |(i, msg)| Frame::Deliver {
            from: NodeId(3),
            to: NodeId(2),
            class: classes[i % classes.len()],
            msg,
        };
        msgs.into_iter().enumerate().map(deliver).collect()
    }

    fn dup_frames() -> Vec<Frame<DupMsg>> {
        let mut frames = control_frames();
        frames.extend(deliver_frames(&[
            DupMsg::Subscribe { subject: NodeId(5) },
            DupMsg::Unsubscribe { subject: NodeId(5) },
            DupMsg::Substitute {
                old: NodeId(5),
                new: NodeId(4),
            },
            DupMsg::Push(record()),
        ]));
        frames
    }

    fn cup_frames() -> Vec<Frame<CupMsg>> {
        deliver_frames(&[CupMsg::Register, CupMsg::Deregister, CupMsg::Push(record())])
    }

    fn wire<M: Serialize>(frames: &[Frame<M>]) -> Vec<u8> {
        let mut buf = Vec::new();
        for frame in frames {
            write_frame(&mut buf, frame).unwrap();
        }
        buf
    }

    /// Decodes `body` as `read_frame` does, text → type (straight-line
    /// when the body is canonical, by the parser when not), and through
    /// the tree, text → `Value` → type: the two must agree on what the
    /// frame is (by `Debug`) or that it is none.
    fn decode_both_ways<M: DeserializeOwned + Debug>(body: &[u8]) -> Option<String> {
        let shown = |frame: Frame<M>| format!("{frame:?}");
        let streamed = serde_json::from_slice(body).ok().map(shown);
        let tree = serde_json::from_slice::<serde_json::Value>(body).ok();
        let via_tree = tree.and_then(|v| serde_json::from_value(v).ok()).map(shown);
        let text = String::from_utf8_lossy(body);
        assert_eq!(streamed, via_tree, "decoders disagree on {text}");
        streamed
    }

    /// Every frame of a stream reads back equal (by `Debug`), then EOF; the
    /// tree-building decoder and encoder agree with the streaming ones on
    /// each.
    fn assert_round_trips<M: Serialize + DeserializeOwned + Debug>(frames: &[Frame<M>]) {
        let buf = wire(frames);
        let mut r = &buf[..];
        for f in frames {
            let got: Frame<M> = read_frame(&mut r).unwrap();
            assert_eq!(format!("{got:?}"), format!("{f:?}"));
            let body = &wire(std::slice::from_ref(f))[4..];
            assert_eq!(decode_both_ways::<M>(body), Some(format!("{f:?}")));
            let via_tree = serde_json::to_vec(&serde_json::to_value(f).unwrap()).unwrap();
            assert_eq!(via_tree, body, "encoders disagree on {f:?}");
        }
        assert!(read_frame::<_, M>(&mut r).is_err(), "EOF expected");
    }

    #[test]
    fn frames_round_trip() {
        assert_round_trips(&dup_frames());
        assert_round_trips(&cup_frames());
        // PCX has no scheme messages, but its queries and replies cross
        // the codec like any other scheme's; a frame claiming to carry one
        // of the messages that cannot exist is refused.
        assert_round_trips(&deliver_frames::<NoMsg>(&[]));
        let forged = wire(&cup_frames()[2..3]);
        assert!(read_frame::<_, CupMsg>(&mut &forged[..]).is_ok());
        assert!(read_frame::<_, NoMsg>(&mut &forged[..]).is_err());
    }

    /// Wire golden: the `write_frame` bytes (hex, one frame per line) of
    /// one frame per `Frame` variant, `Deliver` repeated for every `Msg`
    /// variant over `DupMsg` and `CupMsg`, must match the committed file
    /// byte for byte — the encoding is what two hosts of different builds
    /// agree on. Re-record with:
    ///
    /// ```text
    /// DUP_RECORD_GOLDEN=1 cargo test -p dup-live --lib golden
    /// ```
    #[test]
    fn golden_frame_bytes_are_pinned() {
        fn hex<M: Serialize>(frame: &Frame<M>) -> String {
            let line: String = wire(std::slice::from_ref(frame))
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            line + "\n"
        }
        let mut actual: String = dup_frames().iter().map(hex).collect();
        actual.extend(cup_frames().iter().map(hex));
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/frames.txt");
        if std::env::var_os("DUP_RECORD_GOLDEN").is_some() {
            std::fs::write(path, &actual).expect("golden file is writable");
        }
        let golden = std::fs::read_to_string(path).expect("golden file is committed");
        assert_eq!(actual, golden, "wire golden drifted; actual:\n{actual}");
    }

    fn framed(body: &str) -> Vec<u8> {
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body.as_bytes());
        buf
    }

    /// Every frame, a heartbeat included, is as large as the largest
    /// variant, and the live loop moves frames by value: a variant that
    /// outgrows the boxed bootstrap tree shows here first.
    #[test]
    fn a_frame_stays_112_bytes() {
        assert_eq!(std::mem::size_of::<Frame<DupMsg>>(), 112);
    }

    /// A node id is 4 bytes, and the simulator's event and message carry
    /// several: an id that grew a field would grow every queued event.
    #[test]
    fn ids_events_and_messages_keep_their_size() {
        use std::mem::size_of;
        assert_eq!(size_of::<NodeId>(), 4);
        assert_eq!(size_of::<dup_proto::Ev<DupMsg>>(), 104);
        assert_eq!(size_of::<Msg<DupMsg>>(), 64);
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame::<_, DupMsg>(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("cap"), "got {err}");
    }

    /// A reader that records the largest buffer it was asked to fill.
    struct Metered<'a> {
        bytes: &'a [u8],
        largest_ask: usize,
    }

    impl Read for Metered<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_ask = self.largest_ask.max(buf.len());
            self.bytes.read(buf)
        }
    }

    /// A prefix that announces the largest frame allowed, three bytes, then
    /// nothing: the reader reports the short frame, having held room for
    /// what arrived and not for what was announced.
    #[test]
    fn announced_length_is_not_allocated_before_the_bytes_arrive() {
        let sent = [&MAX_FRAME_BYTES.to_be_bytes()[..], b"{\"H"].concat();
        let mut peer = Metered {
            bytes: &sent,
            largest_ask: 0,
        };
        let err = read_frame::<_, DupMsg>(&mut peer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            peer.largest_ask <= BODY_RESERVE,
            "asked for {} bytes",
            peer.largest_ask
        );
    }

    /// What the tree-building decoder held a body to, the streaming one
    /// holds it to: nothing after the value, UTF-8 throughout, integers in
    /// their field's range, known variants in their own shape, every field
    /// present; of a repeated field the last one stays. A body that fails
    /// is `InvalidData`, so a reader can tell it from a dead socket.
    #[test]
    fn decoder_limits_hold() {
        let heartbeat = |fields: &str| format!(r#"{{"Heartbeat":{{{fields}}}}}"#);
        let intact = heartbeat(r#""node":1,"incarnation":2"#);
        assert!(decode_both_ways::<DupMsg>(intact.as_bytes()).is_some());
        let refused: [(Vec<u8>, &str); 11] = [
            ((intact.clone() + " x").into_bytes(), "trailing"),
            ((intact + "{}").into_bytes(), "trailing"),
            (
                b"{\"SnapshotReq\":{\"reply_to\":\"\xff\"}}".to_vec(),
                "utf-8",
            ),
            (
                heartbeat(r#""node":4294967296,"incarnation":2"#).into_bytes(),
                "out of range",
            ),
            (
                heartbeat(r#""node":1,"incarnation":-1"#).into_bytes(),
                "expected u64",
            ),
            (
                heartbeat(r#""node":1,"incarnation":1.5"#).into_bytes(),
                "expected u64",
            ),
            (
                r#"{"Heartbeet":{"node":1,"incarnation":2}}"#.into(),
                "unknown Frame variant Heartbeet",
            ),
            (r#""Heartbeat""#.into(), "unknown Frame variant Heartbeat"),
            (
                r#"{"Shutdown":null}"#.into(),
                "unknown Frame variant Shutdown",
            ),
            (
                heartbeat(r#""node":1"#).into_bytes(),
                "missing field `incarnation`",
            ),
            (
                heartbeat(r#""node":1,"incarnation":2},"Shutdown":{"#).into_bytes(),
                "several entries",
            ),
        ];
        for (body, why) in &refused {
            let mut buf = (body.len() as u32).to_be_bytes().to_vec();
            buf.extend_from_slice(body);
            let err = read_frame::<_, DupMsg>(&mut &buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(why), "wanted {why}, got {err}");
            assert_eq!(decode_both_ways::<DupMsg>(body), None);
        }
        let twice = heartbeat(r#""node":1,"incarnation":2,"node":9"#);
        let last: Frame<DupMsg> = read_frame(&mut &framed(&twice)[..]).unwrap();
        assert!(
            matches!(
                last,
                Frame::Heartbeat {
                    node: NodeId(9),
                    ..
                }
            ),
            "got {last:?}"
        );
        decode_both_ways::<DupMsg>(twice.as_bytes());
    }

    /// A host adopts a bootstrap tree as it arrives, so decoding admits
    /// only a tree `SearchTree` could have built: one case per way a
    /// peer's tree can be broken, each `InvalidData` from `read_frame`.
    #[test]
    fn malformed_trees_are_refused() {
        let slot = |alive, parent: &str, children: &str, depth: u32| {
            format!(
                r#"{{"alive":{alive},"parent":{parent},"children":[{children}],"depth":{depth}}}"#
            )
        };
        let hello_ack = |slots: [String; 3], alive: usize| {
            framed(&format!(
                r#"{{"HelloAck":{{"node":0,"incarnation":1,"tree":{{"root":0,"nodes":[{}],"alive":{alive}}}}}}}"#,
                slots.join(",")
            ))
        };
        // N0 → N1 → N2.
        let chain = || {
            [
                slot(true, "null", "1", 0),
                slot(true, "0", "2", 1),
                slot(true, "1", "", 2),
            ]
        };
        let intact: Frame<DupMsg> = read_frame(&mut &hello_ack(chain(), 3)[..]).unwrap();
        assert!(matches!(intact, Frame::HelloAck { tree, .. } if tree.depth(NodeId(2)) == 2));
        let broken = |n: usize, replacement: String| {
            let mut slots = chain();
            slots[n] = replacement;
            slots
        };
        let cases = [
            (broken(2, slot(true, "200", "", 2)), 3, "N2 names N200"),
            (broken(1, slot(true, "0", "9", 1)), 3, "N1 names N9"),
            (
                [
                    slot(true, "null", "1", 0),
                    slot(true, "0", "", 1),
                    slot(true, "0", "", 1),
                ],
                3,
                "N2 missing from parent N0",
            ),
            (
                broken(0, slot(true, "null", "1,2", 0)),
                3,
                "child N2 does not point back",
            ),
            (
                broken(0, slot(true, "null", "1,1", 0)),
                3,
                "3 child entries for 3 live nodes",
            ),
            (
                [
                    slot(true, "null", "", 0),
                    slot(true, "2", "2", 1),
                    slot(true, "1", "1", 2),
                ],
                3,
                "depth of N1",
            ),
            (broken(2, slot(true, "1", "", 5)), 3, "depth of N2"),
            (chain(), 2, "alive count drifted"),
            (
                broken(2, slot(false, "1", "", 2)),
                2,
                "dead node N2 keeps a parent",
            ),
            (
                [
                    slot(true, "null", "", 0),
                    slot(false, "null", "2", 1),
                    slot(false, "null", "", 2),
                ],
                1,
                "dead node N1 keeps children",
            ),
            (
                broken(0, slot(false, "null", "1", 0)),
                2,
                "root must be alive",
            ),
        ];
        for (slots, alive, why) in cases {
            let err = read_frame::<_, DupMsg>(&mut &hello_ack(slots, alive)[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(why), "wanted {why}, got {err}");
        }
    }

    /// Nesting is the one input whose cost is stack, not heap: 100 000 `[`
    /// are far below `MAX_FRAME_BYTES` and must come back as an error, not
    /// overflow the reader's stack — as the whole body, and as the value of
    /// a field `Heartbeat` does not declare, which the decoder reads past
    /// without building it. The cap counts the two levels around the field.
    #[test]
    fn deeply_nested_frame_is_refused() {
        let buf = framed(&"[".repeat(100_000));
        assert!(read_frame::<_, DupMsg>(&mut &buf[..]).is_err());
        let heartbeat = |depth: usize| {
            framed(&format!(
                r#"{{"Heartbeat":{{"node":1,"x":{}{},"incarnation":2}}}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            ))
        };
        let fits: Frame<DupMsg> = read_frame(&mut &heartbeat(126)[..]).unwrap();
        assert!(matches!(fits, Frame::Heartbeat { incarnation: 2, .. }));
        for depth in [127, 129, 100_000] {
            let err = read_frame::<_, DupMsg>(&mut &heartbeat(depth)[..]).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "got {err}");
        }
    }

    /// The JSON body of every `Frame` variant and, inside `Deliver`, every
    /// `Msg` variant, in the codec's own spelling. `#` is a slot for a
    /// `u32`, `$` for a `u64`, `@` for one of the scheme's messages.
    const BODIES: [&str; 12] = [
        r#"{"Hello":{"node":#,"incarnation":$}}"#,
        r#"{"HelloAck":{"node":#,"incarnation":$,"tree":{"root":0,"nodes":[{"alive":true,"parent":null,"children":[1],"depth":0},{"alive":true,"parent":0,"children":[],"depth":1},{"alive":false,"parent":null,"children":[],"depth":7}],"alive":2}}}"#,
        r#"{"Heartbeat":{"node":#,"incarnation":$}}"#,
        r#"{"Verdict":{"node":#,"incarnation":$,"alive":true}}"#,
        r#"{"SnapshotReq":{"reply_to":"127.0.0.1:#"}}"#,
        r#"{"Snapshot":{"node":#,"incarnation":$,"tree":{"root":0,"nodes":[{"alive":true,"parent":null,"children":[],"depth":0}],"alive":1},"s_list":[#,#],"subscribed":false,"cache_version":$,"authority_version":$,"queries_issued":$}}"#,
        r#""Shutdown""#,
        r#"{"Deliver":{"from":#,"to":#,"class":"Request","msg":{"Request":{"origin":#,"visited":[#,#,#],"issued_at":$,"riders":[]}}}}"#,
        r#"{"Deliver":{"from":#,"to":#,"class":"Reply","msg":{"Reply":{"record":{"version":$,"created":$,"expires":$},"remaining":[#],"issued_at":$}}}}"#,
        r#"{"Deliver":{"from":#,"to":#,"class":"Push","msg":{"Scheme":@}}}"#,
        r#"{"Deliver":{"from":#,"to":#,"class":"Control","msg":{"Tracked":{"seq":$,"inner":@}}}}"#,
        r#"{"Deliver":{"from":#,"to":#,"class":"Control","msg":{"Ack":{"seq":$}}}}"#,
    ];
    const DUP_MSGS: [&str; 4] = [
        r#"{"Subscribe":{"subject":#}}"#,
        r#"{"Unsubscribe":{"subject":#}}"#,
        r#"{"Substitute":{"old":#,"new":#}}"#,
        r#"{"Push":{"version":$,"created":$,"expires":$}}"#,
    ];
    const CUP_MSGS: [&str; 3] = [r#""Register""#, r#""Deregister""#, DUP_MSGS[3]];

    /// A generated frame body: template `pick` with its slots filled from
    /// `draws`, or `None` when the template needs a scheme message and the
    /// scheme has none.
    fn generated(pick: usize, scheme: &[&str], draws: &[u64]) -> Option<String> {
        let template = BODIES[pick];
        let msg = match scheme {
            [] if template.contains('@') => return None,
            [] => "",
            _ => scheme[draws[0] as usize % scheme.len()],
        };
        let template = template.replace('@', msg);
        let mut draws = draws.iter().cycle();
        let mut fill = |c| match c {
            '#' => (*draws.next().unwrap() as u32).to_string(),
            '$' => draws.next().unwrap().to_string(),
            c => c.to_string(),
        };
        Some(template.chars().map(&mut fill).collect())
    }

    /// Replaces one variant tag in `body` by another.
    fn swap_tag(body: &str, pick: usize) -> String {
        const TAGS: &str =
            "Hello HelloAck Heartbeat Verdict Deliver SnapshotReq Snapshot Shutdown \
            Request Reply Scheme Tracked Ack Subscribe Register Push";
        let quoted = |tag: &str| format!("\"{tag}\"");
        let tags: Vec<&str> = TAGS.split_whitespace().collect();
        let present: Vec<&&str> = tags.iter().filter(|t| body.contains(&quoted(t))).collect();
        let old = present[pick % present.len()];
        body.replacen(&quoted(old), &quoted(tags[pick % tags.len()]), 1)
    }

    /// Applies `edit` to the members of the `pick`-th JSON object in
    /// `body` (generated bodies hold no structural character inside a
    /// string, so a scan by depth finds them).
    fn edit_object(body: &str, pick: usize, edit: impl FnOnce(&mut Vec<&str>)) -> String {
        let opens: Vec<usize> = body.match_indices('{').map(|(i, _)| i).collect();
        if opens.is_empty() {
            return body.to_owned();
        }
        let open = opens[pick % opens.len()];
        let (mut depth, mut start, mut members) = (0usize, open + 1, Vec::new());
        for (i, c) in body[open..].char_indices().map(|(i, c)| (open + i, c)) {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                ',' if depth == 1 => {
                    members.push(&body[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
            if depth == 0 {
                members.push(&body[start..i]);
                edit(&mut members);
                return format!("{}{}{}", &body[..=open], members.join(","), &body[i..]);
            }
        }
        unreachable!("generated bodies are balanced")
    }

    /// A generated body decodes, and re-encodes to the same bytes (so
    /// `read_frame(write_frame(f)) == f`); damaged in one of the ways a
    /// broken or hostile peer can damage it, `read_frame` still returns —
    /// `Ok` or `Err`, never a panic — and returns what decoding through
    /// the tree would.
    fn check<M: Serialize + DeserializeOwned + Debug>(body: &str, damage: usize, pick: usize) {
        let intact = framed(body);
        let frame: Frame<M> = read_frame(&mut &intact[..]).expect("generated frame decodes");
        assert_eq!(wire(std::slice::from_ref(&frame)), intact, "{frame:?}");
        let damaged = match damage {
            0 => intact[..pick % intact.len()].to_vec(),
            1 => {
                let mut flipped = intact;
                let at = pick % flipped.len();
                flipped[at] ^= 1 << (pick % 8);
                flipped
            }
            2 => framed(&swap_tag(body, pick)),
            3 => framed(&edit_object(body, pick, |members| {
                members.remove(pick % members.len());
            })),
            4 => framed(&edit_object(body, pick, |members| {
                members.push(members[pick % members.len()]);
            })),
            _ => [&(MAX_FRAME_BYTES + 1).to_be_bytes()[..], &intact[4..]].concat(),
        };
        let result = read_frame::<_, M>(&mut &damaged[..]);
        assert!(damage < 5 || result.is_err(), "oversized prefix accepted");
        decode_both_ways::<M>(damaged.get(4..).unwrap_or_default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        fn generated_frames_round_trip_and_damaged_ones_never_panic(
            template in 0usize..BODIES.len(),
            draws in prop::collection::vec(any::<u64>(), 8..9),
            damage in 0usize..6,
            pick in any::<usize>(),
        ) {
            check::<DupMsg>(&generated(template, &DUP_MSGS, &draws).unwrap(), damage, pick);
            check::<CupMsg>(&generated(template, &CUP_MSGS, &draws).unwrap(), damage, pick);
            if let Some(body) = generated(template, &[], &draws) {
                check::<NoMsg>(&body, damage, pick);
            }
        }
    }
}
