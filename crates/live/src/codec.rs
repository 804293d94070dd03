//! Wire frames and the length-delimited codec.
//!
//! Every byte that crosses a live-host connection is one [`Frame`],
//! encoded as a 4-byte big-endian length followed by that many bytes of
//! JSON. The protocol payload ([`dup_proto::Msg`]) travels inside
//! [`Frame::Deliver`] untouched — the same `Msg` values the simulator
//! schedules are what the sockets carry, so the scheme logic cannot
//! diverge between the two substrates. Causal span identity
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
/// Serde impls are hand-written (externally tagged, matching the derive
/// layout) because the vendored `serde_derive` does not handle generic
/// types.
#[derive(Debug, Clone)]
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

impl<M: Serialize> Serialize for Frame<M> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStructVariant;
        match self {
            Frame::Hello { node, incarnation } => {
                let mut sv = serializer.serialize_struct_variant("Frame", 0, "Hello", 2)?;
                sv.serialize_field("node", node)?;
                sv.serialize_field("incarnation", incarnation)?;
                sv.end()
            }
            Frame::HelloAck {
                node,
                incarnation,
                tree,
            } => {
                let mut sv = serializer.serialize_struct_variant("Frame", 1, "HelloAck", 3)?;
                sv.serialize_field("node", node)?;
                sv.serialize_field("incarnation", incarnation)?;
                sv.serialize_field("tree", tree)?;
                sv.end()
            }
            Frame::Heartbeat { node, incarnation } => {
                let mut sv = serializer.serialize_struct_variant("Frame", 2, "Heartbeat", 2)?;
                sv.serialize_field("node", node)?;
                sv.serialize_field("incarnation", incarnation)?;
                sv.end()
            }
            Frame::Deliver {
                from,
                to,
                class,
                msg,
            } => {
                let mut sv = serializer.serialize_struct_variant("Frame", 3, "Deliver", 4)?;
                sv.serialize_field("from", from)?;
                sv.serialize_field("to", to)?;
                sv.serialize_field("class", class)?;
                sv.serialize_field("msg", msg)?;
                sv.end()
            }
            Frame::SnapshotReq { reply_to } => {
                let mut sv = serializer.serialize_struct_variant("Frame", 4, "SnapshotReq", 1)?;
                sv.serialize_field("reply_to", reply_to)?;
                sv.end()
            }
            Frame::Snapshot(snap) => {
                serializer.serialize_newtype_variant("Frame", 5, "Snapshot", snap)
            }
            Frame::Shutdown => serializer.serialize_unit_variant("Frame", 6, "Shutdown"),
        }
    }
}

impl<'de, M: Deserialize<'de>> Deserialize<'de> for Frame<M> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;

        /// Pulls one named field out of an externally-tagged payload.
        fn field<'de, T: Deserialize<'de>, E: serde::de::Error>(
            payload: &serde::Content,
            key: &str,
        ) -> Result<T, E> {
            let value = payload
                .get(key)
                .cloned()
                .ok_or_else(|| E::custom(format_args!("missing field `{key}`")))?;
            T::deserialize(serde::ContentDeserializer::<E>::new(value))
        }

        let content = deserializer.content()?;
        let entries = match content {
            serde::Content::Str(variant) if variant == "Shutdown" => return Ok(Frame::Shutdown),
            serde::Content::Map(entries) => entries,
            other => {
                return Err(D::Error::custom(format_args!(
                    "expected externally tagged Frame, got {other:?}"
                )))
            }
        };
        let [(variant, payload)] = <[_; 1]>::try_from(entries)
            .map_err(|_| D::Error::custom("expected a single-variant map for Frame"))?;
        match variant.as_str() {
            "Hello" => Ok(Frame::Hello {
                node: field(&payload, "node")?,
                incarnation: field(&payload, "incarnation")?,
            }),
            "HelloAck" => Ok(Frame::HelloAck {
                node: field(&payload, "node")?,
                incarnation: field(&payload, "incarnation")?,
                tree: field(&payload, "tree")?,
            }),
            "Heartbeat" => Ok(Frame::Heartbeat {
                node: field(&payload, "node")?,
                incarnation: field(&payload, "incarnation")?,
            }),
            "Deliver" => Ok(Frame::Deliver {
                from: field(&payload, "from")?,
                to: field(&payload, "to")?,
                class: field(&payload, "class")?,
                msg: field(&payload, "msg")?,
            }),
            "SnapshotReq" => Ok(Frame::SnapshotReq {
                reply_to: field(&payload, "reply_to")?,
            }),
            "Snapshot" => {
                NodeSnapshot::deserialize(serde::ContentDeserializer::<D::Error>::new(payload))
                    .map(Frame::Snapshot)
            }
            other => Err(D::Error::custom(format_args!(
                "unknown Frame variant `{other}`"
            ))),
        }
    }
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
    use super::*;
    use dup_core::DupMsg;
    use dup_proto::cup::CupMsg;
    use dup_proto::{IndexRecord, Version};
    use dup_sim::SimTime;

    fn record() -> IndexRecord {
        IndexRecord {
            version: Version(7),
            created: SimTime::from_secs(3),
            expires: SimTime::from_nanos(3_600_000_000_001),
        }
    }

    /// One `write_frame` encoding, hex, newline-terminated.
    fn hex_line<M: Serialize>(frame: &Frame<M>) -> String {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        let mut line: String = buf.iter().map(|b| format!("{b:02x}")).collect();
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
        let classes = [
            MsgClass::Request,
            MsgClass::Reply,
            MsgClass::Push,
            MsgClass::Control,
        ];
        msgs.into_iter()
            .enumerate()
            .map(|(i, msg)| {
                hex_line(&Frame::Deliver {
                    from: NodeId(3),
                    to: NodeId(2),
                    class: classes[i % classes.len()],
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

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame::<_, DupMsg>(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("cap"), "got {err}");
    }
}
