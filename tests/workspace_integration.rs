//! Cross-crate integration tests through the `dup-p2p` facade.

use dup_p2p::prelude::*;

fn small(seed: u64) -> RunConfig {
    let mut cfg = RunConfig::paper_default(seed);
    cfg.topology = TopologySource::RandomTree(TopologyParams {
        nodes: 512,
        max_degree: 4,
    });
    cfg.lambda = 2.0;
    cfg.warmup_secs = 3_600.0;
    cfg.duration_secs = 20_000.0;
    cfg.latency_batch = 100;
    cfg
}

#[test]
fn paper_headline_holds_end_to_end() {
    let t = dup_p2p::compare_schemes(&small(1));
    // Latency: DUP ≤ CUP ≤ PCX (Figure 4a, Table III ordering).
    assert!(t.dup.latency_hops.mean <= t.cup.latency_hops.mean + 1e-9);
    assert!(t.cup.latency_hops.mean < t.pcx.latency_hops.mean);
    // Cost: DUP below both baselines in the sparse-interest regime.
    assert!(t.dup.avg_query_cost < t.pcx.avg_query_cost);
    assert!(t.dup.avg_query_cost < t.cup.avg_query_cost);
}

/// Records who issued each query, and when.
struct Issued(std::sync::Arc<std::sync::Mutex<Vec<(SimTime, NodeId)>>>);

impl Probe<ProbeEvent> for Issued {
    fn record(&mut self, at: SimTime, event: &ProbeEvent) {
        if let ProbeEvent::QueryIssued { origin } = event {
            self.0.lock().unwrap().push((at, *origin));
        }
    }
}

#[test]
fn same_seed_same_workload_across_schemes() {
    // All three schemes see the identical topology and query stream: every
    // query is issued by the same node at the same instant. The reports'
    // served counts need not agree, since a query issued just before the
    // horizon is counted only by a scheme that serves it in time: at this
    // seed one query, issued 0.11 s before the horizon, is served after one
    // hop under CUP and DUP and is still travelling up the tree under PCX.
    let cfg = small(2);
    let stream = |kind| {
        let issued = std::sync::Arc::default();
        run_simulation_kind(
            &cfg,
            kind,
            ProbeSink::attach(Issued(std::sync::Arc::clone(&issued))),
        );
        std::sync::Arc::try_unwrap(issued)
            .unwrap()
            .into_inner()
            .unwrap()
    };
    let pcx = stream(SchemeKind::Pcx);
    assert!(pcx.len() > 40_000, "{} queries issued", pcx.len());
    assert!(
        pcx == stream(SchemeKind::Cup),
        "CUP saw another query stream"
    );
    assert!(
        pcx == stream(SchemeKind::Dup),
        "DUP saw another query stream"
    );
}

#[test]
fn chord_substrate_composes_with_all_schemes() {
    let mut cfg = small(3);
    cfg.topology = TopologySource::Chord {
        nodes: 512,
        key: 0xFEED_BEEF,
    };
    let t = dup_p2p::compare_schemes(&cfg);
    assert!(t.dup.latency_hops.mean < t.pcx.latency_hops.mean);
    assert_eq!(t.dup.final_live_nodes, 512);
}

#[test]
fn chord_and_random_tree_agree_qualitatively() {
    let random = dup_p2p::compare_schemes(&small(4));
    let mut cfg = small(4);
    cfg.topology = TopologySource::Chord {
        nodes: 512,
        key: 99,
    };
    let chord = dup_p2p::compare_schemes(&cfg);
    // DUP relative cost advantage shows up on both substrates.
    assert!(random.rel_dup() < 1.05);
    assert!(chord.rel_dup() < 1.05);
}

#[test]
fn churn_with_every_scheme_stays_stable() {
    let mut cfg = small(5);
    cfg.churn = Some(ChurnConfig::balanced(0.2));
    let t = dup_p2p::compare_schemes(&cfg);
    for r in [&t.pcx, &t.cup, &t.dup] {
        assert!(r.queries > 10_000, "{}: {} queries", r.scheme, r.queries);
        assert!(r.latency_hops.mean.is_finite());
        assert!(r.final_live_nodes > 128, "{} collapsed", r.scheme);
    }
}

#[test]
fn sliding_window_interest_policy_composes() {
    let mut cfg = small(6);
    cfg.protocol.interest_policy = InterestPolicy::SlidingWindow;
    let t = dup_p2p::compare_schemes(&cfg);
    for r in [&t.pcx, &t.cup, &t.dup] {
        assert!(r.queries > 10_000, "{}: {} queries", r.scheme, r.queries);
    }
    assert!(t.dup.latency_hops.mean <= t.pcx.latency_hops.mean);
}

#[test]
fn pareto_and_placement_knobs_compose() {
    // Ultra-bursty arrivals plus adversarial (deep-first) hot-node placement
    // is the regime where the paper itself observes wasted pushes from
    // interest oscillation, so no ordering is asserted here — only that the
    // configuration runs to completion and the latency CI is meaningful.
    let mut cfg = small(7);
    cfg.arrivals = Arrivals::Pareto { alpha: 1.05 };
    cfg.rank_placement = RankPlacement::ByDepthDeepFirst;
    let t = dup_p2p::compare_schemes(&cfg);
    assert!(t.dup.queries > 1000);
    assert!(t.dup.latency_hops.mean.is_finite());
    assert!(t.dup.latency_hops.mean >= 0.0);
}

#[test]
fn staleness_ordering() {
    // Push schemes serve (nearly) no stale copies at their subscribers,
    // PCX accepts staleness by design.
    let t = dup_p2p::compare_schemes(&small(8));
    assert!(t.pcx.stale_fraction > 0.0);
    assert!(t.dup.stale_fraction <= t.pcx.stale_fraction);
    assert!(t.cup.stale_fraction <= t.pcx.stale_fraction);
}

#[test]
fn reports_serialize() {
    let t = dup_p2p::compare_schemes(&small(9));
    let json: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&t.dup).unwrap()).unwrap();
    assert_eq!(json["scheme"].as_str(), Some("DUP"));
    assert_eq!(json["queries"].as_u64(), Some(t.dup.queries));
}
