//! End-to-end simulation tests: DUP against the PCX and CUP baselines on
//! the shared runner, checking the paper's headline qualitative claims.

use dup_core::DupScheme;
use dup_overlay::TopologyParams;
use dup_proto::{run_simulation, ChurnConfig, CupScheme, PcxScheme, RunConfig, TopologySource};
use dup_workload::Arrivals;

// A sparse-interest regime (only hot Zipf ranks cross the threshold), where
// DUP's short-cuts matter; with saturated interest DUP correctly degenerates
// to CUP (the paper's "falls back to CUP" worst case).
fn cfg(seed: u64) -> RunConfig {
    RunConfig {
        topology: TopologySource::RandomTree(TopologyParams {
            nodes: 1024,
            max_degree: 4,
        }),
        lambda: 2.0,
        warmup_secs: 3600.0,
        duration_secs: 30_000.0,
        latency_batch: 200,
        ..RunConfig::paper_default(seed)
    }
}

#[test]
fn dup_run_is_deterministic() {
    let a = run_simulation(&cfg(1), DupScheme::new());
    let b = run_simulation(&cfg(1), DupScheme::new());
    assert_eq!(a.events, b.events);
    assert_eq!(a.latency_hops.mean, b.latency_hops.mean);
    assert_eq!(a.avg_query_cost, b.avg_query_cost);
}

#[test]
fn dup_has_lowest_latency() {
    // Figure 4(a): DUP < CUP < PCX in query latency.
    let pcx = run_simulation(&cfg(2), PcxScheme::new());
    let cup = run_simulation(&cfg(2), CupScheme::new());
    let dup = run_simulation(&cfg(2), DupScheme::new());
    assert!(
        dup.latency_hops.mean < cup.latency_hops.mean,
        "DUP {} !< CUP {}",
        dup.latency_hops.mean,
        cup.latency_hops.mean
    );
    assert!(
        cup.latency_hops.mean < pcx.latency_hops.mean,
        "CUP {} !< PCX {}",
        cup.latency_hops.mean,
        pcx.latency_hops.mean
    );
}

#[test]
fn dup_has_lowest_cost_at_high_rate() {
    // Figure 4(b): at high λ, DUP's relative cost drops below CUP's.
    let mut c = cfg(3);
    c.lambda = 5.0;
    let pcx = run_simulation(&c, PcxScheme::new());
    let cup = run_simulation(&c, CupScheme::new());
    let dup = run_simulation(&c, DupScheme::new());
    let rel_cup = cup.relative_cost_to(&pcx);
    let rel_dup = dup.relative_cost_to(&pcx);
    assert!(rel_dup < rel_cup, "DUP rel {rel_dup} !< CUP rel {rel_cup}");
    assert!(rel_dup < 1.0, "DUP rel {rel_dup} not below PCX");
}

#[test]
fn dup_pushes_take_shortcuts() {
    // DUP's push-hop total must be well below CUP's for the same workload:
    // CUP pays every search-tree edge on the way to interested nodes, DUP
    // one hop per DUP-tree edge.
    let cup = run_simulation(&cfg(4), CupScheme::new());
    let dup = run_simulation(&cfg(4), DupScheme::new());
    assert!(
        dup.push_hops < cup.push_hops,
        "DUP push hops {} !< CUP push hops {}",
        dup.push_hops,
        cup.push_hops
    );
}

#[test]
fn dup_eliminates_staleness_for_interested_nodes() {
    let pcx = run_simulation(&cfg(5), PcxScheme::new());
    let dup = run_simulation(&cfg(5), DupScheme::new());
    assert!(dup.stale_fraction <= pcx.stale_fraction);
}

#[test]
fn dup_survives_heavy_churn() {
    let mut c = cfg(6);
    c.churn = Some(ChurnConfig::balanced(0.1));
    let report = run_simulation(&c, DupScheme::new());
    assert!(report.queries > 10_000, "queries {}", report.queries);
    assert!(report.latency_hops.mean.is_finite());
}

#[test]
fn dup_on_chord_derived_tree() {
    let mut c = cfg(7);
    c.topology = TopologySource::Chord {
        nodes: 256,
        key: 0x5EED,
    };
    let pcx = run_simulation(&c, PcxScheme::new());
    let dup = run_simulation(&c, DupScheme::new());
    assert!(dup.latency_hops.mean < pcx.latency_hops.mean);
}

#[test]
fn dup_under_pareto_arrivals() {
    let mut c = cfg(8);
    c.arrivals = Arrivals::Pareto { alpha: 1.2 };
    let pcx = run_simulation(&c, PcxScheme::new());
    let dup = run_simulation(&c, DupScheme::new());
    assert!(dup.latency_hops.mean < pcx.latency_hops.mean);
}

#[test]
fn interested_node_count_tracks_threshold() {
    // Lower threshold c → more interested nodes at run end.
    let mut lo = cfg(9);
    lo.protocol.threshold_c = 1;
    let mut hi = cfg(9);
    hi.protocol.threshold_c = 50;
    let r_lo = run_simulation(&lo, DupScheme::new());
    let r_hi = run_simulation(&hi, DupScheme::new());
    assert!(
        r_lo.final_interested_nodes >= r_hi.final_interested_nodes,
        "c=1 → {} interested, c=50 → {}",
        r_lo.final_interested_nodes,
        r_hi.final_interested_nodes
    );
}
