//! Property tests for the simulation runner: determinism and conservation
//! laws that must hold for any configuration.

use proptest::prelude::*;

use dup_overlay::TopologyParams;
use dup_proto::{
    run_simulation, ChurnConfig, CupScheme, InterestPolicy, PcxScheme, RunConfig, TopologySource,
};
use dup_workload::{Arrivals, RankPlacement};

/// A random but fast-to-run configuration.
fn config_strategy() -> impl Strategy<Value = RunConfig> {
    (
        0u64..1000,                                             // seed
        8usize..96,                                             // nodes
        1usize..6,                                              // max degree
        0.05f64..8.0,                                           // lambda
        0.0f64..3.0,                                            // theta
        prop_oneof![Just(None), (0.01f64..0.2).prop_map(Some)], // churn
        prop_oneof![
            Just(Arrivals::Exponential),
            (1.05f64..1.95).prop_map(|alpha| Arrivals::Pareto { alpha })
        ],
        prop_oneof![
            Just(InterestPolicy::Epoch),
            Just(InterestPolicy::SlidingWindow)
        ],
        prop_oneof![
            Just(RankPlacement::Random),
            Just(RankPlacement::ById),
            Just(RankPlacement::ByDepthShallowFirst),
            Just(RankPlacement::ByDepthDeepFirst)
        ],
    )
        .prop_map(
            |(seed, nodes, max_degree, lambda, theta, churn, arrivals, policy, placement)| {
                let mut cfg = RunConfig::paper_default(seed);
                cfg.topology = TopologySource::RandomTree(TopologyParams { nodes, max_degree });
                cfg.lambda = lambda;
                cfg.zipf_theta = theta;
                cfg.arrivals = arrivals;
                cfg.rank_placement = placement;
                cfg.protocol.interest_policy = policy;
                cfg.churn = churn.map(ChurnConfig::balanced);
                cfg.warmup_secs = 1000.0;
                cfg.duration_secs = 6000.0;
                cfg.latency_batch = 50;
                cfg
            },
        )
}

proptest! {
    // Each case runs two short simulations; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-for-bit determinism: the same configuration always yields the
    /// same report, for any knob combination.
    #[test]
    fn runner_is_deterministic(cfg in config_strategy()) {
        let a = run_simulation(&cfg, PcxScheme::new());
        let b = run_simulation(&cfg, PcxScheme::new());
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.queries, b.queries);
        prop_assert_eq!(a.latency_hops.mean, b.latency_hops.mean);
        prop_assert_eq!(a.avg_query_cost, b.avg_query_cost);
        prop_assert_eq!(a.control_hops, b.control_hops);
    }

    /// Conservation laws that hold for every configuration:
    /// * PCX: requests and replies traverse the same edges, no pushes, no
    ///   control traffic (without churn, exactly; reply hops never exceed
    ///   request hops even with churn, because replies can only be dropped).
    /// * fractions live in [0, 1]; latency is non-negative and bounded by
    ///   the tree size.
    #[test]
    fn conservation_laws(cfg in config_strategy()) {
        let r = run_simulation(&cfg, PcxScheme::new());
        prop_assert_eq!(r.push_hops, 0);
        prop_assert_eq!(r.control_hops, 0);
        // Requests and replies traverse the same edges. They may differ by
        // the messages in flight across the warm-up and horizon boundaries
        // (a request charged before warm-up ends can have its reply charged
        // after; requests near the horizon lose their replies), bounded by
        // a few path lengths.
        let boundary_slack = 2 * (cfg.topology.node_count() as u64 + 16);
        prop_assert!(
            r.request_hops.abs_diff(r.reply_hops) <= boundary_slack,
            "request {} vs reply {} hops",
            r.request_hops,
            r.reply_hops
        );
        prop_assert!((0.0..=1.0).contains(&r.local_hit_fraction));
        prop_assert!((0.0..=1.0).contains(&r.stale_fraction));
        prop_assert!(r.latency_hops.mean >= 0.0);
        prop_assert!(r.latency_hops.mean < cfg.topology.node_count() as f64);
        let total = (r.request_hops + r.reply_hops + r.push_hops + r.control_hops) as f64;
        let recomputed = r.avg_query_cost * r.queries.max(1) as f64;
        prop_assert!(
            (recomputed - total).abs() <= 1e-6 * (1.0 + total),
            "cost decomposition drifted: {recomputed} vs {total}"
        );
    }

    /// CUP's aggregate interest registrations never leave dangling state:
    /// the push reach set contains every registered node at quiescent end.
    #[test]
    fn cup_runs_are_wellformed(cfg in config_strategy()) {
        let r = run_simulation(&cfg, CupScheme::new());
        // A single heavy-tailed Pareto gap can span the whole measured
        // window (infinite variance at α near 1), so zero recorded queries
        // is legitimate there; Poisson arrivals always produce some.
        if matches!(cfg.arrivals, Arrivals::Exponential) {
            prop_assert!(r.queries > 0);
        }
        prop_assert!((0.0..=1.0).contains(&r.local_hit_fraction));
        // Push traffic only exists when someone is interested at some point;
        // zero interest implies zero pushes.
        if r.final_interested_nodes == 0 && r.push_hops > 0 {
            // Interest may have existed mid-run and lapsed: accept, but the
            // scheme must not have pushed more than once per refresh per
            // node slot (sanity bound).
            let refreshes = (cfg.warmup_secs + cfg.duration_secs)
                / (cfg.protocol.ttl_secs - cfg.protocol.push_lead_secs);
            let bound = (refreshes + 2.0) * cfg.topology.node_count() as f64 * 2.0;
            prop_assert!((r.push_hops as f64) < bound);
        }
    }
}
