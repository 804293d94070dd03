//! Kill/restart recovery over the deterministic loopback transport.
//!
//! These are the live-host state machines — failure detection, lease
//! expiry, splice-out degradation, incarnation-keyed rejoin — driven
//! entirely on virtual time, so every run is reproducible and fast. The
//! TCP smoke harness (`dup-experiments live-smoke`) runs the same hosts
//! over real sockets; anything provable without wall time is proved here.

use dup_core::{DupMsg, DupScheme};
use dup_live::{oracle_check, Frame, LiveConfig, LoopbackCluster, NodeHost};
use dup_overlay::{NodeId, SearchTree};
use dup_proto::{CaptureProbe, Msg, MsgClass, ProbeEvent, ProbeSink};
use dup_sim::{SimDuration, SimTime};

/// The smoke topology: a root chain with a mid-tree fan-out at node 2
/// (children 3 and 4) so splicing it out actually moves branches.
fn smoke_parents() -> Vec<Option<NodeId>> {
    [
        None,
        Some(0),
        Some(1),
        Some(2),
        Some(2),
        Some(4),
        Some(5),
        Some(5),
    ]
    .into_iter()
    .map(|p| p.map(NodeId))
    .collect()
}

fn smoke_cluster() -> LoopbackCluster<DupScheme> {
    LoopbackCluster::new(LiveConfig::smoke(smoke_parents()), DupScheme::new)
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

#[test]
fn eight_nodes_converge_to_the_oracle() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    let snaps = cluster.snapshots();
    assert_eq!(snaps.len(), 8);
    oracle_check(&snaps).expect("steady-state cluster fails the oracle");
    // Dense workload + zero interest threshold: everyone ends subscribed.
    for snap in &snaps {
        assert!(
            snap.queries_issued > 0,
            "node {} issued no queries",
            snap.node
        );
        assert!(snap.subscribed, "node {} never subscribed", snap.node);
    }
}

#[test]
fn killing_a_mid_tree_node_degrades_to_the_substitute_rule() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    let victim = NodeId(2);
    cluster.kill(victim);
    // One convergence bound: detection (1.0 s quiet) + lease expiry of the
    // dead entry + re-assertion along the spliced paths.
    cluster.run_for(LiveConfig::smoke(smoke_parents()).convergence_bound());
    let snaps = cluster.snapshots();
    assert_eq!(snaps.len(), 7);
    for snap in &snaps {
        assert!(
            !snap.tree.is_alive(victim),
            "node {} still sees the victim alive",
            snap.node
        );
        // Substitute-rule degradation: the orphans fell to the victim's
        // parent instead of stalling.
        assert_eq!(snap.tree.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(snap.tree.parent(NodeId(4)), Some(NodeId(1)));
    }
    oracle_check(&snaps).expect("post-kill cluster fails the oracle");
}

#[test]
fn restarted_node_rejoins_within_the_convergence_bound() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    let victim = NodeId(2);
    cluster.kill(victim);
    cluster.run_for(secs(2.0));
    cluster.restart(victim);
    // The acceptance bound: oracle-clean within 8 lease periods of the
    // restart.
    cluster.run_for(LiveConfig::smoke(smoke_parents()).convergence_bound());
    let snaps = cluster.snapshots();
    assert_eq!(snaps.len(), 8);
    for snap in &snaps {
        assert!(
            snap.tree.is_alive(victim),
            "node {} has not readmitted the restarted node",
            snap.node
        );
    }
    let revived = snaps.iter().find(|s| s.node == victim).unwrap();
    assert_eq!(revived.incarnation, 2, "restart must bump the incarnation");
    assert!(revived.queries_issued > 0, "revived node never re-engaged");
    assert!(revived.subscribed, "revived node never re-subscribed");
    oracle_check(&snaps).expect("post-restart cluster fails the oracle");
}

#[test]
fn sub_threshold_link_outage_causes_no_expiry_and_recovers() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    // Sever 3 <-> 2 for less than `suspect_after`: frames drop, the
    // detector stays quiet, and what was lost is re-covered once the link
    // heals (a keep-alive by the next one, a tracked message by the
    // reliability layer).
    cluster.net_mut().cut_link(NodeId(3), NodeId(2));
    cluster.net_mut().cut_link(NodeId(2), NodeId(3));
    cluster.run_for(secs(0.3));
    cluster.net_mut().heal_link(NodeId(3), NodeId(2));
    cluster.net_mut().heal_link(NodeId(2), NodeId(3));
    cluster.run_for(secs(2.0));
    let snaps = cluster.snapshots();
    for snap in &snaps {
        for peer in 0..8 {
            assert!(
                snap.tree.is_alive(NodeId(peer)),
                "node {} expired node {peer} over a sub-threshold outage",
                snap.node
            );
        }
    }
    assert!(
        cluster.net_mut().dropped > 0,
        "the cut never dropped frames"
    );
    oracle_check(&snaps).expect("post-outage cluster fails the oracle");
}

/// One line per live host: everything the refactors of the host's
/// dispatch loop must leave untouched — how many queries it issued, what
/// it charged per message class, its own subscriber list, and the index
/// versions it holds.
fn render_cluster(cluster: &LoopbackCluster<DupScheme>) -> String {
    let mut out = String::new();
    for snap in cluster.snapshots() {
        let host = cluster.host(snap.node).expect("snapshotted host is live");
        let ledger = host.world().metrics.ledger();
        let hops: Vec<String> = MsgClass::ALL
            .iter()
            .map(|&c| format!("{c:?}:{}", ledger.hops(c)))
            .collect();
        let s_list: Vec<u32> = snap.s_list.iter().map(|n| n.0).collect();
        out.push_str(&format!(
            "N{} inc={} queries={} hops=[{}] s_list={:?} cache={:?} authority={}\n",
            snap.node.0,
            snap.incarnation,
            snap.queries_issued,
            hops.join(" "),
            s_list,
            snap.cache_version,
            snap.authority_version,
        ));
    }
    out
}

/// Holds `actual` to `tests/golden/<file>`, re-recording it first when
/// `DUP_RECORD_GOLDEN` is set.
fn assert_golden(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("DUP_RECORD_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("golden file is writable");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file is committed");
    assert_eq!(actual, golden, "{file} drifted; actual:\n{actual}");
}

/// Live golden: a fixed script on virtual time — boot the 8-node smoke
/// tree, kill N2 at 3 s, restart it at 5 s, run one convergence bound —
/// must reproduce the committed per-host state byte for byte. The
/// loopback cluster is deterministic, so any diff is a behaviour change
/// in the host, the scheme or the reliability layer and must be
/// deliberate. Re-record with:
///
/// ```text
/// DUP_RECORD_GOLDEN=1 cargo test -p dup-live --test loopback golden
/// ```
#[test]
fn golden_kill_restart_script_is_pinned() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    cluster.kill(NodeId(2));
    cluster.run_for(secs(2.0));
    cluster.restart(NodeId(2));
    cluster.run_for(LiveConfig::smoke(smoke_parents()).convergence_bound());
    assert_golden("loopback_kill_restart.txt", &render_cluster(&cluster));
}

/// 64 hosts on the complete 4-ary tree at `live_mesh`'s cadences.
fn mesh64() -> LiveConfig {
    let parents = (0..64)
        .map(|i| (i > 0).then(|| NodeId::from_index((i - 1) / 4)))
        .collect();
    LiveConfig {
        heartbeat_every: secs(0.2),
        suspect_after: secs(0.8),
        dead_after: secs(2.0),
        query_every: secs(0.05),
        ..LiveConfig::smoke(parents)
    }
}

/// The benchmark's shape as a script: 64 hosts on the complete 4-ary tree
/// at `live_mesh`'s cadences, N2 killed at 5 s and restarted at 8 s, 16
/// virtual seconds in all.
const MESH64_SECS: f64 = 16.0;

fn mesh64_script() -> LoopbackCluster<DupScheme> {
    let mut cluster = LoopbackCluster::new(mesh64(), DupScheme::new);
    cluster.run_for(secs(5.0));
    cluster.kill(NodeId(2));
    cluster.run_for(secs(3.0));
    cluster.restart(NodeId(2));
    cluster.run_for(secs(MESH64_SECS - 8.0));
    cluster
}

/// Live golden at the benchmark's shape ([`mesh64_script`]). Beside the
/// per-host state it pins the net's traffic counters (heartbeats apart)
/// and every host's rejected-frame count, so a change to the host loop,
/// the detector or the loopback queue that moves a single frame shows.
/// The cluster it leaves must pass the oracle. Re-record as above.
#[test]
fn golden_mesh64_kill_restart_script_is_pinned() {
    let mut cluster = mesh64_script();
    let mut actual = render_cluster(&cluster);
    let net = cluster.net_mut();
    actual.push_str(&format!(
        "net sent={} heartbeats={} dropped={}\n",
        net.sent, net.heartbeats, net.dropped
    ));
    let rejected: Vec<u64> = (0..64)
        .map(|i| cluster.host(NodeId(i)).map_or(0, |h| h.rejected_frames()))
        .collect();
    actual.push_str(&format!("rejected={rejected:?}\n"));
    assert_golden("loopback_mesh64.txt", &actual);
    oracle_check(&cluster.snapshots()).expect("mesh64 script ends off the oracle");
}

/// Maintenance is bounded by tree degree: within one keep-alive window a
/// host sends each upward assertion once, and untracked, so its children's
/// keep-alives draw no acks. Over the mesh64 script every host's `Control`
/// hops stay within one per window plus a slack of two for itself and two
/// per child in the configured tree (tracked resyncs and push acks),
/// however deep its subtree.
#[test]
fn maintenance_is_bounded_by_tree_degree() {
    let cfg = mesh64();
    let cluster = mesh64_script();
    let windows = (MESH64_SECS / (cfg.lease_every.as_secs_f64() / 2.0)).ceil() as u64;
    for snap in cluster.snapshots() {
        let children = cfg
            .parents
            .iter()
            .filter(|&&p| p == Some(snap.node))
            .count() as u64;
        let bound = windows + 2 * (1 + children);
        let host = cluster.host(snap.node).expect("snapshotted host is live");
        let control = host.world().metrics.ledger().hops(MsgClass::Control);
        assert!(
            control <= bound,
            "node {} charged {control} control hops, above {bound} for {children} children",
            snap.node
        );
    }
}

/// Whether `node`'s own subscriber list holds `entry`.
fn lists(cluster: &LoopbackCluster<DupScheme>, node: NodeId, entry: NodeId) -> bool {
    let host = cluster.host(node).expect("host is live");
    host.snapshot().s_list.contains(&entry)
}

/// Cuts the upward link of N37 (a leaf under N9) from 5.1 virtual s for
/// `cut`, with a probe on N9 from the cut on, then heals it; returns the
/// cluster and how often N9 expired its entry for N37.
fn cut_leaf_uplink(cut: SimDuration) -> (LoopbackCluster<DupScheme>, u64) {
    let (leaf, parent) = (NodeId(37), NodeId(9));
    let mut cluster = LoopbackCluster::new(mesh64(), DupScheme::new);
    cluster.run_for(secs(5.1));
    assert!(lists(&cluster, parent, leaf));
    let capture = CaptureProbe::new();
    cluster
        .host_mut(parent)
        .unwrap()
        .attach_probe(ProbeSink::attach(capture.clone()));
    cluster.net_mut().cut_link(leaf, parent);
    cluster.run_for(cut);
    cluster.net_mut().heal_link(leaf, parent);
    let expired = capture.count(|e| {
        matches!(e, ProbeEvent::LeaseExpired { node, entry } if *node == parent && *entry == leaf)
    });
    (cluster, expired)
}

/// A keep-alive assertion is soft state, sent untracked: a lost one is
/// re-covered by the next, not by a retransmit. A lease epoch spans two
/// keep-alive windows, so a cut shorter than one keep-alive period (here
/// across the keep-alive due at 5.25 s) expires no entry. A cut longer
/// than a lease period but shorter than `dead_after` expires the leaf's
/// entry, and the first keep-alive after the heal puts it back, through
/// the uncovered-subscribe path; the cluster is oracle-clean within one
/// convergence bound.
#[test]
fn a_lost_keepalive_is_soft_state() {
    let cfg = mesh64();
    let (leaf, parent) = (NodeId(37), NodeId(9));

    let (mut cluster, expired) = cut_leaf_uplink(secs(0.2));
    assert!(
        cluster.net_mut().dropped > 0,
        "the cut never dropped frames"
    );
    assert_eq!(expired, 0, "one lost keep-alive expired the entry");
    cluster.run_for(cfg.convergence_bound());
    oracle_check(&cluster.snapshots()).expect("cluster fails the oracle after a short cut");
    let retransmits = |cluster: &LoopbackCluster<DupScheme>| {
        let host = cluster.host(leaf).unwrap();
        host.world().reliable.stats().retransmits
    };
    assert_eq!(
        retransmits(&cluster),
        0,
        "a lost keep-alive was retransmitted"
    );

    let long = secs(1.2);
    assert!(long > cfg.lease_every && long < cfg.dead_after);
    let (mut cluster, expired) = cut_leaf_uplink(long);
    assert_eq!(expired, 1, "a cut past a lease period kept the entry");
    assert!(
        !lists(&cluster, parent, leaf),
        "the expired entry is back before the heal"
    );
    cluster.run_for(secs(0.25) + secs(0.01));
    assert!(
        lists(&cluster, parent, leaf),
        "the first keep-alive after the heal did not restore the entry"
    );
    for snap in cluster.snapshots() {
        assert!(
            snap.tree.is_alive(leaf),
            "node {} declared N37 dead",
            snap.node
        );
    }
    cluster.run_for(cfg.convergence_bound());
    oracle_check(&cluster.snapshots()).expect("cluster fails the oracle after a long cut");
    assert_eq!(
        retransmits(&cluster),
        0,
        "a lost keep-alive was retransmitted"
    );
}

/// Hostile frames: ids far outside the cluster (which used to size peer
/// tables and index per-sender state) and a bootstrap tree that leaves
/// the receiver out (which used to hit an `assert!`). Every one must be
/// dropped and counted, and the cluster must still reach the oracle.
#[test]
fn hostile_frames_are_dropped_counted_and_survived() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    let outsider = NodeId(u32::MAX);
    let target = NodeId(4);
    assert!(cluster.host(target).unwrap().joined());
    let tracked = |from, to| Frame::Deliver {
        from,
        to,
        class: MsgClass::Control,
        msg: Msg::Tracked {
            seq: 7,
            inner: DupMsg::Subscribe { subject: from },
        },
    };
    let hostile = [
        Frame::Heartbeat {
            node: outsider,
            incarnation: 9,
        },
        Frame::Hello {
            node: outsider,
            incarnation: 9,
        },
        Frame::HelloAck {
            node: outsider,
            incarnation: 9,
            tree: SearchTree::from_parents(&smoke_parents()),
        },
        tracked(outsider, target),
        tracked(NodeId(1), outsider),
        Frame::Verdict {
            node: NodeId(8),
            incarnation: 9,
            alive: false,
        },
    ];
    let sent = hostile.len() as u64;
    for frame in hostile {
        cluster.inject(target, frame);
    }
    assert_eq!(cluster.host(target).unwrap().rejected_frames(), sent);

    // A restarted host is un-joined until its first HelloAck: a tree
    // without it must be refused, not adopted (and not panic).
    let victim = NodeId(2);
    cluster.kill(victim);
    cluster.run_for(secs(2.0));
    cluster.restart(victim);
    let mut without_victim = SearchTree::from_parents(&smoke_parents());
    without_victim.remove_splice(victim);
    cluster.inject(
        victim,
        Frame::HelloAck {
            node: NodeId(0),
            incarnation: 1,
            tree: without_victim,
        },
    );
    let revived = cluster.host(victim).unwrap();
    assert_eq!(revived.rejected_frames(), 1);
    assert!(!revived.joined(), "a tree without the host was adopted");

    cluster.run_for(LiveConfig::smoke(smoke_parents()).convergence_bound());
    let snaps = cluster.snapshots();
    assert_eq!(snaps.len(), 8);
    assert!(cluster.host(victim).unwrap().joined());
    oracle_check(&snaps).expect("cluster fed hostile frames fails the oracle");
}

/// The live host speaks the simulator's probe vocabulary: the same
/// `NodeCore` handlers run under both drivers, so a probe attached to a
/// host sees the events a simulation would emit for that node.
#[test]
fn attached_probe_sees_the_simulators_events() {
    let mut cluster = smoke_cluster();
    let node = NodeId(5);
    let capture = CaptureProbe::new();
    cluster
        .host_mut(node)
        .unwrap()
        .attach_probe(ProbeSink::attach(capture.clone()));
    cluster.run_for(secs(3.0));
    let issued = capture.count(|e| matches!(e, ProbeEvent::QueryIssued { .. }));
    assert_eq!(
        issued,
        cluster.host(node).unwrap().snapshot().queries_issued
    );
    assert!(issued > 0);
    assert!(capture.count(|e| matches!(e, ProbeEvent::QueryServed { .. })) > 0);
    assert!(capture.count(|e| matches!(e, ProbeEvent::MsgSent { .. })) > 0);
    assert!(capture.count(|e| matches!(e, ProbeEvent::MsgDelivered { .. })) > 0);
    assert!(capture.count(|e| matches!(e, ProbeEvent::CacheInsert { .. })) > 0);
}

/// A configuration `advance` could not make progress on, or the detector
/// could not order, is refused when the host is built, by field name.
fn host_with(edit: fn(&mut LiveConfig)) {
    let mut cfg = LiveConfig::smoke(smoke_parents());
    edit(&mut cfg);
    NodeHost::new(NodeId(0), 1, cfg, DupScheme::new(), SimTime::ZERO);
}

#[test]
#[should_panic(expected = "heartbeat_every must be positive")]
fn zero_heartbeat_cadence_is_refused() {
    host_with(|cfg| cfg.heartbeat_every = SimDuration::ZERO);
}

#[test]
#[should_panic(expected = "lease_every (0.000000s) must be positive")]
fn zero_lease_period_is_refused() {
    host_with(|cfg| cfg.lease_every = SimDuration::ZERO);
}

#[test]
#[should_panic(expected = "suspect_after (1.000000s) must be shorter than dead_after")]
fn suspicion_threshold_at_the_death_threshold_is_refused() {
    host_with(|cfg| cfg.suspect_after = cfg.dead_after);
}

/// Only N9's neighbours (N2 above it, N37–N40 below) heartbeat it, so
/// most of the cluster learns of its death from the flooded verdict: every
/// survivor's tree drops it within `dead_after` + 1 s of the kill, and the
/// cluster then passes the oracle.
#[test]
fn a_death_two_levels_down_reaches_every_view() {
    let cfg = mesh64();
    let mut cluster = LoopbackCluster::new(cfg.clone(), DupScheme::new);
    cluster.run_for(secs(5.0));
    let victim = NodeId(9);
    cluster.kill(victim);
    cluster.run_for(cfg.dead_after + secs(1.0));
    let snaps = cluster.snapshots();
    assert_eq!(snaps.len(), 63);
    for snap in &snaps {
        assert!(
            !snap.tree.is_alive(victim),
            "node {} still sees N9 alive",
            snap.node
        );
        assert_eq!(snap.tree.parent(NodeId(37)), Some(NodeId(2)));
    }
    cluster.run_for(cfg.convergence_bound());
    oracle_check(&cluster.snapshots()).expect("cluster fails the oracle after N9's death");
}

/// The former-neighbour guard: N2's death and restart move the hosts
/// around it in and out of each other's neighbourhoods, and a host that
/// stops monitoring a former neighbour must not later declare it dead. 20
/// virtual seconds after the restart, no view is missing a live node.
///
/// The same holds for two processes restarted in one instant, each
/// un-joined while the other's `Hello` arrives: an un-joined host holds
/// only the configured tree, which still shows the other at its old
/// place, so it must not answer — a restart that adopted that tree would
/// monitor children that never heartbeat it and declare them dead. The
/// pairs are the root with N2 in both restart orders, and N2 with its
/// child N9.
#[test]
fn former_neighbours_are_not_declared_dead() {
    for restarted in [&[2][..], &[2, 0], &[0, 2], &[2, 9]] {
        let mut cluster = LoopbackCluster::new(mesh64(), DupScheme::new);
        cluster.run_for(secs(5.0));
        for &node in restarted {
            cluster.kill(NodeId(node));
        }
        cluster.run_for(secs(3.0));
        for &node in restarted {
            cluster.restart(NodeId(node));
        }
        cluster.run_for(secs(20.0));
        let snaps = cluster.snapshots();
        assert_eq!(snaps.len(), 64);
        for snap in &snaps {
            let missing: Vec<u32> = (0..64)
                .filter(|&i| !snap.tree.is_alive(NodeId(i)))
                .collect();
            assert!(
                missing.is_empty(),
                "restarts {restarted:?}: node {} lost {missing:?}",
                snap.node
            );
        }
    }
}

fn verdict(node: u32, incarnation: u64, alive: bool) -> Frame<DupMsg> {
    Frame::Verdict {
        node: NodeId(node),
        incarnation,
        alive,
    }
}

fn tree_json(cluster: &LoopbackCluster<DupScheme>, node: u32) -> String {
    let snap = cluster.host(NodeId(node)).unwrap().snapshot();
    serde_json::to_string(&snap.tree).unwrap()
}

/// Verdicts are ordered by incarnation, dead above alive at the same
/// incarnation. A dead verdict about N2's first life, arriving after its
/// second was admitted, splices nothing; dead-then-alive and
/// alive-then-dead at one incarnation leave the same tree.
#[test]
fn stale_and_reordered_verdicts_converge() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    cluster.kill(NodeId(2));
    cluster.run_for(secs(2.0));
    cluster.restart(NodeId(2));
    cluster.run_for(secs(1.0));
    assert!(cluster.host(NodeId(2)).unwrap().joined());
    let before = tree_json(&cluster, 6);
    assert!(cluster
        .host(NodeId(6))
        .unwrap()
        .world()
        .tree
        .is_alive(NodeId(2)));
    cluster.inject(NodeId(6), verdict(2, 1, false));
    assert_eq!(tree_json(&cluster, 6), before, "a stale verdict spliced");

    // On two hosts that agree: N3 at the incarnation they hold, and N4 at
    // one they have not seen (admitted, then spliced, in either order).
    assert_eq!(tree_json(&cluster, 6), tree_json(&cluster, 7));
    for (node, incarnation) in [(3, 1), (4, 3)] {
        cluster.inject(NodeId(6), verdict(node, incarnation, false));
        cluster.inject(NodeId(6), verdict(node, incarnation, true));
        cluster.inject(NodeId(7), verdict(node, incarnation, true));
        cluster.inject(NodeId(7), verdict(node, incarnation, false));
    }
    let tree = &cluster.host(NodeId(6)).unwrap().world().tree;
    assert!(!tree.is_alive(NodeId(3)) && !tree.is_alive(NodeId(4)));
    assert_eq!(tree_json(&cluster, 6), tree_json(&cluster, 7));
}
