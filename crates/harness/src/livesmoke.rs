//! The live smoke test: real processes, real sockets, oracle-checked
//! recovery.
//!
//! `dup-experiments live-smoke` boots an 8-node DUP cluster on localhost
//! (one process per node, spawned from this same binary via the hidden
//! `live-node` subcommand), waits for it to converge, SIGKILLs a mid-tree
//! node, restarts it with a bumped incarnation, and asserts that every
//! host's tree re-converges to the NCA-closure oracle within the
//! 8-lease-period bound. The per-phase timings, final snapshots, and a
//! Prometheus rendering land in `LIVE_report.json` / `LIVE_metrics.prom`
//! when `--out` is given.

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use serde::Serialize;

use dup_core::{DupMsg, DupScheme};
use dup_live::tcp::addr_file;
use dup_live::{oracle_check, read_frame, write_frame, Frame, LiveConfig, NodeSnapshot};
use dup_overlay::NodeId;
use dup_proto::Registry;

use crate::report::write_artifact;

/// The smoke topology: a root chain with a mid-tree fan-out at node 2, so
/// killing it actually reparents branches (children 3 and 4 fall to 1).
pub fn smoke_parents() -> Vec<Option<NodeId>> {
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

/// The node this smoke test kills and restarts.
pub const SMOKE_VICTIM: NodeId = NodeId(2);

/// Entry point of the hidden `live-node` subcommand: one DUP node process,
/// running until the harness sends `Shutdown`.
pub fn live_node_main(index: usize, incarnation: u64, rendezvous: &Path) -> Result<(), String> {
    let cfg = LiveConfig::smoke(smoke_parents());
    if index >= cfg.n() {
        return Err(format!("node index {index} out of range (n={})", cfg.n()));
    }
    dup_live::run_live_node(index, incarnation, rendezvous, cfg, DupScheme::new())
        .map_err(|e| format!("live node {index} failed: {e}"))
}

/// What `live-smoke` measured, serialized as `LIVE_report.json`.
#[derive(Debug, Clone, Serialize)]
pub struct LiveSmokeReport {
    /// Cluster size.
    pub nodes: usize,
    /// The killed/restarted node.
    pub victim: u32,
    /// Lease period in seconds.
    pub lease_secs: f64,
    /// The acceptance bound (8 lease periods) in seconds.
    pub bound_secs: f64,
    /// Wall seconds from process spawn to the first oracle-clean poll.
    pub boot_converged_secs: f64,
    /// Wall seconds from SIGKILL to every survivor having spliced the
    /// victim out, oracle-clean.
    pub kill_recovered_secs: f64,
    /// Wall seconds from restart to full 8-node oracle-clean convergence —
    /// the number the bound is asserted on.
    pub rejoin_recovered_secs: f64,
    /// Whether every phase completed within its deadline.
    pub passed: bool,
    /// Queries issued across the cluster at the final snapshot.
    pub queries_issued: u64,
    /// The final per-node snapshots.
    pub final_snapshots: Vec<NodeSnapshot>,
}

/// Renders the smoke report as Prometheus metrics.
pub fn live_registry(report: &LiveSmokeReport) -> Registry {
    let mut reg = Registry::new();
    reg.describe("dup_live_smoke_runs_total", "Live smoke runs, by outcome");
    reg.describe(
        "dup_live_rejoin_seconds",
        "Wall seconds from victim restart to oracle-clean convergence",
    );
    reg.describe(
        "dup_live_bound_seconds",
        "The acceptance bound: eight lease periods",
    );
    reg.describe("dup_live_nodes", "Cluster size of the live smoke test");
    reg.describe(
        "dup_live_queries_issued_total",
        "Queries issued across the cluster at the final snapshot",
    );
    let outcome = if report.passed { "pass" } else { "fail" };
    reg.inc_counter("dup_live_smoke_runs_total", &[("outcome", outcome)], 1);
    reg.set_gauge("dup_live_rejoin_seconds", &[], report.rejoin_recovered_secs);
    reg.set_gauge("dup_live_bound_seconds", &[], report.bound_secs);
    reg.set_gauge("dup_live_nodes", &[], report.nodes as f64);
    reg.inc_counter("dup_live_queries_issued_total", &[], report.queries_issued);
    reg
}

/// A fleet of node processes; kills every survivor on drop so a failed
/// run never leaks children.
struct Fleet {
    exe: PathBuf,
    rendezvous: PathBuf,
    children: Vec<Option<Child>>,
}

impl Fleet {
    fn spawn_node(&mut self, index: usize, incarnation: u64) -> Result<(), String> {
        let child = Command::new(&self.exe)
            .arg("live-node")
            .arg(index.to_string())
            .arg(incarnation.to_string())
            .arg(&self.rendezvous)
            .spawn()
            .map_err(|e| format!("cannot spawn node {index}: {e}"))?;
        self.children[index] = Some(child);
        Ok(())
    }

    fn kill_node(&mut self, index: usize) -> Result<(), String> {
        let Some(mut child) = self.children[index].take() else {
            return Err(format!("node {index} is not running"));
        };
        child
            .kill()
            .map_err(|e| format!("cannot kill node {index}: {e}"))?;
        let _ = child.wait();
        Ok(())
    }

    /// Asks every node to exit and reaps it, escalating to SIGKILL after
    /// `grace`.
    fn shutdown(&mut self, grace: Duration) {
        for index in 0..self.children.len() {
            if self.children[index].is_none() {
                continue;
            }
            if let Ok(addr) =
                std::fs::read_to_string(addr_file(&self.rendezvous, NodeId::from_index(index)))
            {
                if let Ok(mut stream) = TcpStream::connect(addr.trim()) {
                    let _ = write_frame(&mut stream, &Frame::<DupMsg>::Shutdown);
                }
            }
        }
        let deadline = Instant::now() + grace;
        for slot in &mut self.children {
            let Some(child) = slot else { continue };
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
            *slot = None;
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Requests a snapshot from every node in `expect`, returning whatever
/// arrived before `timeout`. Nodes that cannot be dialed (not yet
/// published, just killed) are simply absent from the result.
fn poll_snapshots(
    rendezvous: &Path,
    expect: &[usize],
    timeout: Duration,
) -> Result<Vec<NodeSnapshot>, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("snapshot listener: {e}"))?;
    let reply_to = listener
        .local_addr()
        .map_err(|e| format!("snapshot listener addr: {e}"))?
        .to_string();
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("snapshot listener nonblocking: {e}"))?;

    let mut asked = 0usize;
    for &index in expect {
        let Ok(addr) = std::fs::read_to_string(addr_file(rendezvous, NodeId::from_index(index)))
        else {
            continue;
        };
        let Ok(mut stream) = TcpStream::connect(addr.trim()) else {
            continue;
        };
        let req = Frame::<DupMsg>::SnapshotReq {
            reply_to: reply_to.clone(),
        };
        if write_frame(&mut stream, &req).is_ok() {
            asked += 1;
        }
    }

    let mut snapshots = Vec::new();
    let deadline = Instant::now() + timeout;
    while snapshots.len() < asked && Instant::now() < deadline {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                if let Ok(Frame::Snapshot(snap)) = read_frame::<_, DupMsg>(&mut stream) {
                    snapshots.push(snap);
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    snapshots.sort_by_key(|s| s.node.index());
    Ok(snapshots)
}

/// Polls until `accept` approves a snapshot set or `deadline` passes.
/// Returns the accepted snapshots and the elapsed wall time.
fn poll_until(
    rendezvous: &Path,
    expect: &[usize],
    deadline: Duration,
    accept: impl Fn(&[NodeSnapshot]) -> bool,
) -> Result<(Vec<NodeSnapshot>, f64), String> {
    let start = Instant::now();
    let mut last_len = 0usize;
    while start.elapsed() < deadline {
        let snaps = poll_snapshots(rendezvous, expect, Duration::from_millis(800))?;
        last_len = snaps.len();
        if snaps.len() == expect.len() && accept(&snaps) {
            return Ok((snaps, start.elapsed().as_secs_f64()));
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    Err(format!(
        "no oracle-clean state within {:.1} s (last poll: {last_len}/{} snapshots)",
        deadline.as_secs_f64(),
        expect.len()
    ))
}

/// True when the snapshot set is oracle-clean and every node in it is
/// subscribed and has issued queries.
fn converged(snaps: &[NodeSnapshot]) -> bool {
    oracle_check(snaps).is_ok() && snaps.iter().all(|s| s.subscribed && s.queries_issued > 0)
}

/// Runs the live smoke test end to end. `Ok(true)` on pass, `Ok(false)`
/// when a phase missed its deadline (details on stderr).
pub fn run_live_smoke(out_dir: Option<&Path>) -> Result<bool, String> {
    let cfg = LiveConfig::smoke(smoke_parents());
    let n = cfg.n();
    let victim = SMOKE_VICTIM.index();
    let bound = Duration::from_secs_f64(cfg.convergence_bound().as_secs_f64());

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let rendezvous = std::env::temp_dir().join(format!("dup-live-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&rendezvous)
        .map_err(|e| format!("cannot create {}: {e}", rendezvous.display()))?;

    let mut fleet = Fleet {
        exe,
        rendezvous: rendezvous.clone(),
        children: (0..n).map(|_| None).collect(),
    };

    let run = (|| -> Result<LiveSmokeReport, String> {
        println!("live-smoke: booting {n} node processes ...");
        for index in 0..n {
            fleet.spawn_node(index, 1)?;
        }
        let all: Vec<usize> = (0..n).collect();
        let (_, boot_secs) = poll_until(&rendezvous, &all, Duration::from_secs(30), converged)
            .map_err(|e| format!("boot convergence: {e}"))?;
        println!("live-smoke: converged {boot_secs:.2} s after spawn");

        println!("live-smoke: SIGKILL node {victim} (mid-tree, children 3 and 4)");
        fleet.kill_node(victim)?;
        let survivors: Vec<usize> = (0..n).filter(|&i| i != victim).collect();
        let kill_deadline = Duration::from_secs_f64(cfg.dead_after.as_secs_f64()) + bound;
        let (_, kill_secs) = poll_until(&rendezvous, &survivors, kill_deadline, |snaps| {
            snaps.iter().all(|s| !s.tree.is_alive(SMOKE_VICTIM)) && oracle_check(snaps).is_ok()
        })
        .map_err(|e| format!("post-kill convergence: {e}"))?;
        println!("live-smoke: survivors spliced the victim out {kill_secs:.2} s after the kill");

        println!("live-smoke: restarting node {victim} (incarnation 2)");
        fleet.spawn_node(victim, 2)?;
        let rejoin = poll_until(&rendezvous, &all, bound, |snaps| {
            snaps.iter().all(|s| s.tree.is_alive(SMOKE_VICTIM)) && converged(snaps)
        });
        let (snaps, rejoin_secs) = match rejoin {
            Ok(ok) => ok,
            Err(e) => {
                // One diagnostic poll so the failure names the actual
                // divergence, not just the timeout.
                if let Ok(last) = poll_snapshots(&rendezvous, &all, Duration::from_millis(800)) {
                    for s in &last {
                        eprintln!(
                            "live-smoke:   node {} inc {} subscribed={} queries={} victim_alive={} s_list={:?}",
                            s.node,
                            s.incarnation,
                            s.subscribed,
                            s.queries_issued,
                            s.tree.is_alive(SMOKE_VICTIM),
                            s.s_list
                        );
                    }
                    if let Err(why) = oracle_check(&last) {
                        eprintln!("live-smoke:   oracle: {why}");
                    }
                }
                return Err(format!(
                    "rejoin missed the {:.1} s bound (8 lease periods): {e}",
                    bound.as_secs_f64()
                ));
            }
        };
        println!(
            "live-smoke: oracle-clean again {rejoin_secs:.2} s after restart (bound {:.1} s)",
            bound.as_secs_f64()
        );

        Ok(LiveSmokeReport {
            nodes: n,
            victim: SMOKE_VICTIM.0,
            lease_secs: cfg.lease_every.as_secs_f64(),
            bound_secs: bound.as_secs_f64(),
            boot_converged_secs: boot_secs,
            kill_recovered_secs: kill_secs,
            rejoin_recovered_secs: rejoin_secs,
            passed: true,
            queries_issued: 0,
            final_snapshots: snaps,
        })
    })();

    fleet.shutdown(Duration::from_secs(2));
    let _ = std::fs::remove_dir_all(&rendezvous);

    let mut report = run.map_err(|e| {
        eprintln!("live-smoke: FAILED: {e}");
        e
    })?;
    report.queries_issued = report
        .final_snapshots
        .iter()
        .map(|s| s.queries_issued)
        .sum();

    if let Some(dir) = out_dir {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("report serialization: {e}"))?;
        write_artifact(dir, "LIVE_report.json", &json)?;
        let prom = live_registry(&report).render_prometheus();
        write_artifact(dir, "LIVE_metrics.prom", &prom)?;
    }
    println!(
        "live-smoke: PASS (boot {:.2} s, splice {:.2} s, rejoin {:.2} s <= bound {:.1} s)",
        report.boot_converged_secs,
        report.kill_recovered_secs,
        report.rejoin_recovered_secs,
        report.bound_secs
    );
    Ok(report.passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_topology_is_the_documented_shape() {
        let parents = smoke_parents();
        assert_eq!(parents.len(), 8);
        assert_eq!(parents[0], None);
        assert_eq!(parents[SMOKE_VICTIM.index()], Some(NodeId(1)));
        // The victim is mid-tree: at least two children reparent on kill.
        let children: Vec<usize> = (0..8)
            .filter(|&i| parents[i] == Some(SMOKE_VICTIM))
            .collect();
        assert_eq!(children, vec![3, 4]);
    }

    #[test]
    fn registry_renders_the_outcome() {
        let report = LiveSmokeReport {
            nodes: 8,
            victim: 2,
            lease_secs: 0.5,
            bound_secs: 4.0,
            boot_converged_secs: 1.0,
            kill_recovered_secs: 2.0,
            rejoin_recovered_secs: 1.5,
            passed: true,
            queries_issued: 123,
            final_snapshots: Vec::new(),
        };
        let prom = live_registry(&report).render_prometheus();
        assert!(prom.contains("dup_live_smoke_runs_total{outcome=\"pass\"} 1"));
        assert!(prom.contains("dup_live_rejoin_seconds 1.5"));
        assert!(prom.contains("dup_live_queries_issued_total 123"));
    }
}
