//! Wire frames and the length-delimited codec.
//!
//! Every byte that crosses a live-host connection is one [`Frame`],
//! encoded as a 4-byte big-endian length followed by that many bytes of
//! JSON. The JSON is whatever `#[derive(Serialize, Deserialize)]` makes
//! of the [`Frame`], [`dup_proto::Msg`] and scheme-message declarations;
//! this module adds only the length prefix and its cap. The protocol
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
    /// newer incarnation and answer with [`Frame::HelloAck`].
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
    /// Periodic liveness beacon feeding the failure detector.
    Heartbeat {
        /// The beaconing node.
        node: NodeId,
        /// Its process incarnation.
        incarnation: u64,
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

/// Writes one length-delimited frame.
pub fn write_frame<W: Write, M: Serialize>(w: &mut W, frame: &Frame<M>) -> io::Result<()> {
    let body = serde_json::to_vec(frame).map_err(io::Error::other)?;
    let len = u32::try_from(body.len()).map_err(|_| io::Error::other("frame too large"))?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::other("frame exceeds MAX_FRAME_BYTES"));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(&body)?;
    w.flush()
}

/// Reads one length-delimited frame. `Err(UnexpectedEof)` on a cleanly
/// closed connection.
pub fn read_frame<R: Read, M: DeserializeOwned>(r: &mut R) -> io::Result<Frame<M>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::other(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    serde_json::from_slice(&body).map_err(io::Error::other)
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

    const CLASSES: [MsgClass; 4] = [
        MsgClass::Request,
        MsgClass::Reply,
        MsgClass::Push,
        MsgClass::Control,
    ];

    fn record() -> IndexRecord {
        IndexRecord {
            version: Version(7),
            created: SimTime::from_secs(3),
            expires: SimTime::from_nanos(3_600_000_000_001),
        }
    }

    fn wire<M: Serialize>(frame: &Frame<M>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        buf
    }

    fn assert_round_trips<M: Serialize + DeserializeOwned + Debug>(frame: &Frame<M>) {
        let got: Frame<M> = read_frame(&mut &wire(frame)[..]).unwrap();
        assert_eq!(format!("{got:?}"), format!("{frame:?}"));
    }

    #[test]
    fn frames_round_trip() {
        let frames: Vec<Frame<DupMsg>> = vec![
            Frame::Hello {
                node: NodeId(3),
                incarnation: 2,
            },
            Frame::Heartbeat {
                node: NodeId(0),
                incarnation: 1,
            },
            Frame::Deliver {
                from: NodeId(1),
                to: NodeId(2),
                class: MsgClass::Control,
                msg: Msg::Scheme(DupMsg::Subscribe { subject: NodeId(5) }),
            },
            Frame::SnapshotReq {
                reply_to: "127.0.0.1:9".into(),
            },
            Frame::Shutdown,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            let got: Frame<DupMsg> = read_frame(&mut r).unwrap();
            assert_eq!(format!("{got:?}"), format!("{f:?}"));
        }
        assert!(read_frame::<_, DupMsg>(&mut r).is_err(), "EOF expected");
    }

    /// PCX has no scheme messages, but its queries and replies cross the
    /// codec like any other scheme's; a frame claiming to carry one of the
    /// messages that cannot exist is refused.
    #[test]
    fn pcx_frames_round_trip() {
        assert_round_trips(&Frame::<NoMsg>::Deliver {
            from: NodeId(6),
            to: NodeId(5),
            class: MsgClass::Request,
            msg: Msg::Request {
                origin: NodeId(6),
                visited: vec![NodeId(6)],
                issued_at: SimTime::from_secs(1),
                riders: Vec::new(),
            },
        });
        let forged = wire(&Frame::Deliver {
            from: NodeId(6),
            to: NodeId(5),
            class: MsgClass::Control,
            msg: Msg::Scheme(CupMsg::Register),
        });
        assert!(read_frame::<_, NoMsg>(&mut &forged[..]).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame::<_, DupMsg>(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("cap"), "got {err}");
    }

    /// Nesting is the one input whose cost is stack, not heap: a frame of
    /// 100 000 `[` is far below `MAX_FRAME_BYTES` and must come back as an
    /// error, not overflow the reader's stack.
    #[test]
    fn deeply_nested_frame_is_refused() {
        let body = "[".repeat(100_000);
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body.as_bytes());
        let err = read_frame::<_, DupMsg>(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "got {err}");
    }

    /// One `write_frame` encoding, hex, newline-terminated.
    fn hex_line<M: Serialize>(frame: &Frame<M>) -> String {
        let mut line: String = wire(frame).iter().map(|b| format!("{b:02x}")).collect();
        line.push('\n');
        line
    }

    /// `Frame::Deliver` once per `Msg` variant, `Scheme` once per entry of
    /// `scheme` and `Tracked` around the first of them.
    fn deliver_lines<M: Serialize + Clone>(scheme: &[M]) -> String {
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
        msgs.push(Msg::Tracked {
            seq: u64::MAX,
            inner: scheme[0].clone(),
        });
        msgs.push(Msg::Ack { seq: 41 });
        msgs.into_iter()
            .enumerate()
            .map(|(i, msg)| {
                hex_line(&Frame::Deliver {
                    from: NodeId(3),
                    to: NodeId(2),
                    class: CLASSES[i % CLASSES.len()],
                    msg,
                })
            })
            .collect()
    }

    /// Wire golden: the `write_frame` bytes of one frame per `Frame`
    /// variant, `Deliver` repeated for every `Msg` variant over `DupMsg`
    /// and `CupMsg`, must match the committed file byte for byte — the
    /// encoding is what two hosts of different builds agree on. Re-record
    /// with:
    ///
    /// ```text
    /// DUP_RECORD_GOLDEN=1 cargo test -p dup-live --lib golden
    /// ```
    #[test]
    fn golden_frame_bytes_are_pinned() {
        let tree = SearchTree::from_parents(&[None, Some(NodeId(0)), Some(NodeId(0))]);
        let control: Vec<Frame<DupMsg>> = vec![
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
        ];
        let mut actual: String = control.iter().map(hex_line).collect();
        actual += &deliver_lines(&[
            DupMsg::Subscribe { subject: NodeId(5) },
            DupMsg::Unsubscribe { subject: NodeId(5) },
            DupMsg::Substitute {
                old: NodeId(5),
                new: NodeId(4),
            },
            DupMsg::Push(record()),
        ]);
        actual += &deliver_lines(&[CupMsg::Register, CupMsg::Deregister, CupMsg::Push(record())]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/frames.txt");
        if std::env::var_os("DUP_RECORD_GOLDEN").is_some() {
            std::fs::write(path, &actual).expect("golden file is writable");
        }
        let golden = std::fs::read_to_string(path).expect("golden file is committed");
        assert_eq!(actual, golden, "wire golden drifted; actual:\n{actual}");
    }

    /// Builds a scheme message from raw draws; `None` for a scheme that
    /// has none.
    type SchemeMsg<M> = fn(u64, NodeId, NodeId) -> Option<M>;

    fn dup_msg(pick: u64, a: NodeId, b: NodeId) -> Option<DupMsg> {
        Some(match pick % 4 {
            0 => DupMsg::Subscribe { subject: a },
            1 => DupMsg::Unsubscribe { subject: a },
            2 => DupMsg::Substitute { old: a, new: b },
            _ => DupMsg::Push(record()),
        })
    }

    fn cup_msg(pick: u64, _: NodeId, _: NodeId) -> Option<CupMsg> {
        Some(match pick % 3 {
            0 => CupMsg::Register,
            1 => CupMsg::Deregister,
            _ => CupMsg::Push(record()),
        })
    }

    fn no_msg(_: u64, _: NodeId, _: NodeId) -> Option<NoMsg> {
        None
    }

    /// A valid tree of `seeds.len() + 1` nodes: node `i` hangs under an
    /// earlier node picked by `seeds[i - 1]`.
    fn tree(seeds: &[NodeId]) -> SearchTree {
        let mut parents = vec![None];
        parents.extend(
            seeds
                .iter()
                .enumerate()
                .map(|(i, s)| Some(NodeId(s.0 % (i as u32 + 1)))),
        );
        SearchTree::from_parents(&parents)
    }

    /// Every `Frame` variant and, inside `Deliver`, every `Msg` variant the
    /// scheme can produce, over the full range of ids and counters.
    fn frames<M: Debug>(scheme: SchemeMsg<M>) -> impl Strategy<Value = Frame<M>> {
        let ids = || prop::collection::vec(any::<u32>().prop_map(NodeId), 0..6);
        let draws = (
            0usize..11,
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            ids(),
            ids(),
            0usize..CLASSES.len(),
        );
        draws.prop_map(move |(variant, a, b, x, y, list, more, class)| {
            let (a, b) = (NodeId(a), NodeId(b));
            let at = SimTime::from_nanos(x);
            let deliver = |msg| Frame::Deliver {
                from: a,
                to: b,
                class: CLASSES[class],
                msg,
            };
            match variant {
                0 => Frame::Hello {
                    node: a,
                    incarnation: x,
                },
                1 => Frame::HelloAck {
                    node: a,
                    incarnation: x,
                    tree: tree(&list),
                },
                2 => Frame::Heartbeat {
                    node: a,
                    incarnation: x,
                },
                3 => Frame::SnapshotReq {
                    reply_to: format!("127.0.0.1:{}", x % 65_536),
                },
                4 => Frame::Snapshot(NodeSnapshot {
                    node: a,
                    incarnation: x,
                    tree: tree(&list),
                    s_list: more,
                    subscribed: x % 2 == 0,
                    cache_version: (y % 2 == 0).then_some(y),
                    authority_version: y,
                    queries_issued: x,
                }),
                5 => Frame::Shutdown,
                6 => deliver(Msg::Request {
                    origin: a,
                    visited: list,
                    issued_at: at,
                    riders: more,
                }),
                7 => deliver(Msg::Reply {
                    record: record(),
                    remaining: list,
                    issued_at: at,
                }),
                8 => deliver(scheme(x, a, b).map_or(Msg::Ack { seq: y }, Msg::Scheme)),
                9 => deliver(match scheme(x, a, b) {
                    Some(inner) => Msg::Tracked { seq: y, inner },
                    None => Msg::Ack { seq: y },
                }),
                _ => deliver(Msg::Ack { seq: y }),
            }
        })
    }

    /// Names a decoder matches on: `Frame`, `Msg` and scheme variants.
    const TAGS: [&str; 15] = [
        "Hello",
        "HelloAck",
        "Heartbeat",
        "Deliver",
        "SnapshotReq",
        "Snapshot",
        "Shutdown",
        "Request",
        "Reply",
        "Scheme",
        "Tracked",
        "Ack",
        "Subscribe",
        "Register",
        "Push",
    ];

    /// Replaces one variant tag in `body` by another.
    fn swap_tag(body: &str, pick: usize) -> String {
        let quoted = |tag: &str| format!("\"{tag}\"");
        let present: Vec<&str> = TAGS
            .into_iter()
            .filter(|tag| body.contains(&quoted(tag)))
            .collect();
        let old = present[pick % present.len()];
        let new = TAGS[pick % TAGS.len()];
        body.replacen(&quoted(old), &quoted(new), 1)
    }

    /// Applies `edit` to the members of the `pick`-th JSON object in
    /// `body` (generated frames hold no structural character inside a
    /// string, so a scan by depth finds them).
    fn edit_object(body: &str, pick: usize, edit: impl FnOnce(&mut Vec<&str>)) -> String {
        let opens: Vec<usize> = body.match_indices('{').map(|(i, _)| i).collect();
        if opens.is_empty() {
            return body.to_owned();
        }
        let open = opens[pick % opens.len()];
        let (mut depth, mut start, mut close) = (0usize, open + 1, body.len());
        let mut members = Vec::new();
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
                close = i;
                break;
            }
        }
        edit(&mut members);
        format!("{}{}{}", &body[..=open], members.join(","), &body[close..])
    }

    /// Damages an encoded frame in one of the ways a broken or hostile
    /// peer can, and requires `read_frame` to return — `Ok` or `Err`,
    /// never a panic.
    fn survives_damage<M: Serialize + DeserializeOwned>(
        frame: &Frame<M>,
        kind: usize,
        pick: usize,
        mask: u8,
    ) {
        let mut wire = wire(frame);
        let body = std::str::from_utf8(&wire[4..]).unwrap();
        let rebody = |body: String| {
            let mut wire = (body.len() as u32).to_be_bytes().to_vec();
            wire.extend_from_slice(body.as_bytes());
            wire
        };
        match kind {
            0 => wire.truncate(pick % wire.len()),
            1 => {
                let at = pick % wire.len();
                wire[at] ^= mask | 1;
            }
            2 => wire = rebody(swap_tag(body, pick)),
            3 => {
                wire = rebody(edit_object(body, pick, |members| {
                    members.remove(pick % members.len());
                }))
            }
            4 => {
                wire = rebody(edit_object(body, pick, |members| {
                    members.push(members[pick % members.len()]);
                }))
            }
            _ => wire[..4].copy_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes()),
        }
        let result = read_frame::<_, M>(&mut &wire[..]);
        assert!(kind < 5 || result.is_err(), "oversized prefix accepted");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        fn generated_frames_round_trip(
            dup in frames(dup_msg),
            cup in frames(cup_msg),
            pcx in frames(no_msg),
        ) {
            assert_round_trips(&dup);
            assert_round_trips(&cup);
            assert_round_trips(&pcx);
        }

        fn damaged_frames_never_panic_the_reader(
            dup in frames(dup_msg),
            cup in frames(cup_msg),
            pcx in frames(no_msg),
            kind in 0usize..6,
            pick in any::<usize>(),
            mask in any::<u8>(),
        ) {
            survives_damage(&dup, kind, pick, mask);
            survives_damage(&cup, kind, pick, mask);
            survives_damage(&pcx, kind, pick, mask);
        }
    }
}
