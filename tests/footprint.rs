//! The footprint gate: heap bytes per node of a 65 536-node DUP run.
//!
//! DUP's claim is that what a node holds is small and bounded by its
//! degree, and every larger network the roadmap wants is bought in bytes
//! per node. This binary counts them with its own global allocator —
//! requested sizes, so the figure is the same in debug and release builds
//! and on any machine — and fails when what the world and the scheme hold
//! after 200 000 simulated seconds of the benchmark's `sim_deep` shape
//! passes the budget. It prints what each per-node table held, which is
//! the table DESIGN.md §6 quotes. Requested is not resident: a `Vec` that
//! doubled counts its whole capacity here and only its touched pages in
//! `peak_rss_mib`. A second phase runs the benchmark's `sim_lossy` shape
//! and bounds what the reliability layer holds per sender slot, and the
//! slots themselves: a churny run reuses departed nodes' slots, so it
//! holds no more of them than the most nodes alive at once.
//!
//! One test only: the counters are process-wide, and a second test on
//! another thread would be counted into this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use dup_p2p::core::DupScheme;
use dup_p2p::proto::{
    ChurnConfig, FaultConfig, ReliabilityConfig, RunConfig, Runner, SettledRun, World,
};
use dup_p2p::sim::StreamSlot;
use dup_p2p::workload::ZipfSchedule;

/// The system allocator, counting the bytes callers asked for.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counters are plain statistics
// and never feed back into a pointer or a size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size`
        // is the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            LIVE.fetch_add(new_size, Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes released by dropping `value`.
fn held_by<T>(value: T) -> usize {
    let before = LIVE.load(Relaxed);
    drop(value);
    before - LIVE.load(Relaxed)
}

const NODES: usize = 65_536;

/// Heap bytes per node the world and the scheme may hold after the run:
/// 10 % above the 74.6 measured once a latency stream became a 4-byte
/// draw counter (60.5 → 4.0). It read 131.1 when the cache slot lost its
/// `Option` tag (32.0 → 24.0), the latency streams theirs (75.3 → 60.5)
/// and the Zipf selector its pmf copy (20.0 → 12.0), and 154.0 once the FIFO
/// clocks became a table of the channels in flight and the search tree
/// an 8-byte record per node beside a child arena, 240.3 with one 64-byte
/// FIFO record per node, and 289.7, growing with the window, before
/// cache, interest and FIFO state were fixed-size records.
const BUDGET_BYTES_PER_NODE: f64 = 82.0;

/// Reliability-layer bytes per sender slot after the `sim_lossy` phase:
/// 10 % above the 133.0 measured once a message's jitter became the keyed
/// draw of its sequence number and the layer lost its stream table (168.1
/// before, 1 039 slots). It read 177.0 once departed nodes' slots were
/// reused (1 039 slots, 184 KB), more per slot than the 140.3 per id read
/// before, when each of 2 062 ids held a slot (289 KB): the long-lived
/// nodes' wide dedup windows are no longer averaged with the departed
/// ids' narrow ones. That figure was measured once a dedup window grew
/// with its sender's sequence span, a jitter stream lost its `Option` tag
/// and a sequence counter became a `u32`; with a 512-byte bitmap from each
/// sender's first delivery it read 493.1.
const RELIABLE_BYTES_PER_SLOT: f64 = 146.0;

#[test]
fn a_deep_dup_run_stays_inside_its_bytes_per_node_budget() {
    let cfg = RunConfig::builder(42)
        .nodes(NODES)
        .warmup_secs(3_600.0)
        .duration_secs(196_400.0)
        .build();
    let theta = cfg.zipf_theta;
    let start = LIVE.load(Relaxed);
    let runner = Runner::new(cfg, DupScheme::new());
    let built = LIVE.load(Relaxed) - start;
    let SettledRun {
        report,
        scheme,
        world,
    } = runner.run_settled(0, |_, _, _| {});
    let held = LIVE.load(Relaxed) - start;
    assert!(report.queries > 150_000, "the run did not run");

    // The FIFO table is sized by the channels in flight, which the events
    // queued at the busiest instant bound, not by the node count.
    let slots = world.fifo.capacity();
    let bound = 16.max(8 * report.peak_queue_depth as usize);
    assert!(slots <= bound, "{slots} FIFO slots, over {bound}");

    let World {
        tree,
        cache,
        interest,
        fifo,
        latency_rng,
        ..
    } = world;
    let per_node = |bytes: usize| bytes as f64 / NODES as f64;
    let zipf = ZipfSchedule::new(NODES, theta, &[]);
    let (fifo, tree) = (per_node(held_by(fifo)), per_node(held_by(tree)));
    let (cache, zipf) = (per_node(held_by(cache)), per_node(held_by(zipf)));
    let streams = per_node(held_by(latency_rng));
    println!("heap bytes per node, {NODES} nodes, DUP, 200 000 simulated seconds:");
    for (table, bytes) in [
        ("cache", cache),
        ("interest", per_node(held_by(interest))),
        ("FIFO clocks", fifo),
        ("latency streams", streams),
        ("search tree", tree),
        ("scheme lists", per_node(held_by(scheme))),
        ("Zipf selector", zipf),
        ("runner as built", per_node(built)),
        ("world and scheme after the run", per_node(held)),
    ] {
        println!("  {table:<31} {bytes:>6.1}");
    }
    // No table may grow back: the clocks go with the channels in flight,
    // the tree holds an 8-byte record, a 12-byte span and one arena entry
    // per node (plus a boxed header), a cache slot is a bare 24-byte
    // record, the Zipf selector an 8-byte cut and a 4-byte alias per rank,
    // and a latency stream a 4-byte draw counter.
    assert!(fifo <= 1.0, "FIFO clocks hold {fifo:.1} bytes per node");
    assert!(
        tree < 24.05,
        "the search tree holds {tree:.1} bytes per node"
    );
    assert!(cache <= 24.05, "the cache holds {cache:.1} bytes per node");
    assert!(
        zipf <= 12.05,
        "the Zipf selector holds {zipf:.1} bytes per node"
    );
    assert_eq!(std::mem::size_of::<StreamSlot>(), 4);
    assert!(
        streams <= 4.05,
        "the latency streams hold {streams:.1} bytes per node"
    );
    assert!(
        per_node(held) <= BUDGET_BYTES_PER_NODE,
        "{:.1} heap bytes per node after the run, over the budget of {BUDGET_BYTES_PER_NODE}",
        per_node(held)
    );
    lossy_reliability_state_stays_inside_its_bytes_per_slot_budget();
}

/// The benchmark's `sim_lossy` shape for 100 000 simulated seconds:
/// 1 024 nodes, churn at 0.02/s, 10 % loss, reliability with 150 s
/// leases. Every sender slot can own a dedup window and a sequence
/// counter, and every per-node table has one entry per slot.
fn lossy_reliability_state_stays_inside_its_bytes_per_slot_budget() {
    let cfg = RunConfig::builder(42)
        .nodes(1024)
        .lambda(4.0)
        .duration_secs(100_000.0)
        .reliability(ReliabilityConfig {
            enabled: true,
            lease_every_secs: 150.0,
            ..ReliabilityConfig::default()
        })
        .faults(FaultConfig {
            drop_p: 0.10,
            duplicate_p: 0.05,
            delay_p: 0.05,
            max_extra_delay_secs: 10.0,
            ..FaultConfig::default()
        })
        .churn(Some(ChurnConfig::balanced(0.02)))
        .build();
    let SettledRun { report, world, .. } =
        Runner::new(cfg, DupScheme::new()).run_settled(0, |_, _, _| {});
    assert!(report.queries > 300_000, "the run did not run");
    let tree = &world.tree;
    let (slots, peak) = (tree.capacity(), tree.peak_len());
    // Every life a slot held: its generation counts the earlier ones.
    let lives: usize = (0..slots)
        .map(|i| {
            tree.live_id(i)
                .map_or(1, |id| usize::from(id.generation()) + 1)
        })
        .sum();
    let stats = world.reliable.stats();
    let per_sender = held_by(world.reliable) as f64 / slots as f64;
    println!(
        "reliability layer, sim_lossy shape, 100 000 simulated seconds: \
         {per_sender:.1} bytes per sender slot ({slots} slots, {} tracked)",
        stats.tracked
    );
    // Before slots were reused, the per-node tables followed every id
    // churn created: 2 062 for 1 024 live nodes at the start, 971 at the
    // end.
    println!("ids: {slots} slots for at least {lives} lives, at most {peak} alive at once");
    assert!(lives > 1024 + 500, "churn created too few ids to reuse");
    assert!(
        slots <= peak,
        "{slots} slots for at most {peak} nodes alive at once: a free slot was passed over"
    );
    assert!(
        per_sender <= RELIABLE_BYTES_PER_SLOT,
        "{per_sender:.1} reliability bytes per sender slot, over the budget of \
         {RELIABLE_BYTES_PER_SLOT}"
    );
}
