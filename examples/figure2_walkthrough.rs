//! A step-by-step replay of the paper's Figure 2 on the protocol API.
//!
//! ```text
//! cargo run --release --example figure2_walkthrough
//! ```
//!
//! Uses the protocol-level test bench (no workload, no routing — just the
//! DUP maintenance protocol) to walk the exact scenario the paper uses to
//! explain DUP: N6 subscribes, then N4, then N6 leaves, printing every
//! node's subscriber list and the push fan-out after each step. A
//! [`CaptureProbe`] is attached to the bench, so each step also prints the
//! probe event trace — the subscribe flow up the virtual path, and the
//! direct one-hop push that follows.

use dup_core::testkit::{paper_example_tree, TestBench};
use dup_p2p::prelude::*;

const NAMES: [&str; 8] = ["N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8"];

fn name(n: NodeId) -> &'static str {
    NAMES[n.index()]
}

/// Renders one probe event as a trace line (`None` for event types this
/// walkthrough doesn't narrate).
fn fmt_event(ev: &ProbeEvent) -> Option<String> {
    use dup_p2p::proto::MsgClass;
    Some(match ev {
        ProbeEvent::Subscribe { node, subject } => {
            format!("subscribe({}) processed at {}", name(*subject), name(*node))
        }
        ProbeEvent::Unsubscribe { node, subject } => {
            format!(
                "unsubscribe({}) processed at {}",
                name(*subject),
                name(*node)
            )
        }
        ProbeEvent::Substitute { node, old, new } => {
            format!(
                "substitute({} → {}) sent upstream by {}",
                name(*old),
                name(*new),
                name(*node)
            )
        }
        ProbeEvent::MsgDelivered {
            from, to, class, ..
        } => match class {
            MsgClass::Push => format!(
                "push delivered {} → {} (direct hop)",
                name(*from),
                name(*to)
            ),
            MsgClass::Control => format!("control hop {} → {}", name(*from), name(*to)),
            _ => return None,
        },
        ProbeEvent::CacheInsert { node, .. } => {
            format!("fresh copy installed at {}", name(*node))
        }
        _ => return None,
    })
}

/// Prints every probe event captured since the last call.
fn show_trace(capture: &CaptureProbe, cursor: &mut usize) {
    let events = capture.events();
    for (_, ev) in &events[*cursor..] {
        if let Some(line) = fmt_event(ev) {
            println!("    trace: {line}");
        }
    }
    *cursor = events.len();
}

fn show(bench: &TestBench<DupScheme>, step: &str) {
    println!("--- {step}");
    for (i, name) in NAMES.iter().enumerate() {
        let node = NodeId(i as u32);
        if !bench.node.world.tree.is_alive(node) {
            continue;
        }
        let list = bench.node.scheme.s_list(node);
        if !list.is_empty() {
            let entries: Vec<String> = list.iter().map(|e| NAMES[e.index()].to_string()).collect();
            println!("  {name}: s_list = [{}]", entries.join(", "));
        }
    }
    let reach: Vec<String> = bench
        .node
        .scheme
        .push_set(&bench.node.world.tree)
        .iter()
        .map(|e| NAMES[e.index()].to_string())
        .collect();
    println!(
        "  push fan-out from N1 reaches: [{}]   (control hops so far: {})\n",
        reach.join(", "),
        bench.control_hops()
    );
    audit_quiescent(&bench.node.scheme, &bench.node.world.tree).expect("DUP invariants hold");
}

fn main() {
    // The paper's Figure 1 search tree: N1 is the authority;
    // N1–N2–N3–{N4, N5}; N5–N6–{N7, N8}. A capture probe records every
    // protocol event the bench emits.
    let capture = CaptureProbe::new();
    let mut bench = TestBench::with_probe(
        paper_example_tree(),
        DupScheme::new(),
        2,
        ProbeSink::attach(capture.clone()),
    );
    let mut cursor = 0usize;
    let (n1, n3, n4, n6) = (NodeId(0), NodeId(2), NodeId(3), NodeId(5));

    println!("Figure 2 of the paper, replayed on the DUP implementation.\n");

    // (a) N6 becomes interested: its subscription travels the search path
    // N6→N5→N3→N2→N1, leaving a virtual path; only N1 and N6 are in the
    // DUP tree, so a push is ONE direct hop.
    bench.make_interested(n6);
    bench.drain();
    show(&bench, "(a) N6 subscribes");
    show_trace(&capture, &mut cursor);
    let before = bench.push_hops();
    bench.refresh();
    show_trace(&capture, &mut cursor);
    println!(
        "  refresh pushed the new version in {} hop(s) — PCX would spend 8 hops\n",
        bench.push_hops() - before
    );

    // (b) N4 becomes interested: N3 catches the converging subscriptions,
    // joins the DUP tree, and substitutes itself for N6 upstream.
    bench.make_interested(n4);
    bench.drain();
    show(&bench, "(b) N4 subscribes; N3 becomes the fan-out point");
    show_trace(&capture, &mut cursor);
    let before = bench.push_hops();
    bench.refresh();
    show_trace(&capture, &mut cursor);
    println!(
        "  refresh pushed N1→N3→{{N4,N6}} in {} hops — CUP would spend 5\n",
        bench.push_hops() - before
    );

    // (c) N6 loses interest: its virtual path clears and the DUP tree
    // collapses back to a single direct edge N1→N4.
    bench.drop_interest(n6);
    bench.drain();
    show(&bench, "(c) N6 unsubscribes; tree collapses to N1→N4");
    show_trace(&capture, &mut cursor);

    assert_eq!(bench.node.scheme.s_list(n1), &[n4]);
    assert_eq!(bench.node.scheme.s_list(n3), &[n4]);
    assert_eq!(capture.len() as u64, bench.node.world.probe.emitted());
    println!(
        "Every intermediate state matched §III of the paper \
         ({} probe events captured).",
        capture.len()
    );
}
