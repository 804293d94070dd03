//! Flash crowd on a hot index: the scenario the paper's introduction
//! motivates (Gnutella-style query hot spots with heavy-tailed arrivals).
//!
//! ```text
//! cargo run --release --example flashcrowd
//! ```
//!
//! A small set of nodes generates almost all queries for one index
//! (Zipf θ = 2.5) and arrivals are bursty (Pareto α = 1.05, the value
//! measured in real Gnutella traces). This is DUP's best case: the DUP tree
//! covers the few hot nodes with almost no relay overhead, while CUP pays
//! full search-tree paths for every push and PCX re-fetches after every TTL
//! expiry.

use dup_p2p::prelude::*;

fn run_at(lambda: f64) -> dup_p2p::Triple {
    let cfg = RunConfig::builder(0xF1A5)
        .nodes(2048)
        .zipf_theta(2.5) // strong hot spot
        .arrivals(Arrivals::Pareto { alpha: 1.05 }) // bursty, trace-like
        .lambda(lambda)
        .warmup_secs(7_200.0)
        .duration_secs(40_000.0)
        .build();
    dup_p2p::compare_schemes(&cfg)
}

fn main() {
    println!("flash crowd: 2048 nodes, Zipf θ=2.5, Pareto(α=1.05) arrivals\n");
    println!(
        "{:>8}  {:>10} {:>10} {:>10}   {:>8} {:>8}   {:>10}",
        "λ (q/s)", "PCX lat", "CUP lat", "DUP lat", "CUP/PCX", "DUP/PCX", "interested"
    );
    for lambda in [0.5, 2.0, 8.0] {
        let t = run_at(lambda);
        println!(
            "{:>8}  {:>10.4} {:>10.4} {:>10.4}   {:>8.3} {:>8.3}   {:>10}",
            lambda,
            t.pcx.latency_hops.mean,
            t.cup.latency_hops.mean,
            t.dup.latency_hops.mean,
            t.rel_cup(),
            t.rel_dup(),
            t.dup.final_interested_nodes,
        );
    }
    println!(
        "\nWith a concentrated crowd, DUP pushes reach the hot nodes directly;\n\
         the burstier the arrivals, the more queries land on a freshly pushed copy."
    );
}
