//! Every experiment in the registry runs end-to-end at bench scale and
//! produces well-formed, shape-consistent output.

use dup_p2p::harness::{all_experiments, experiment_by_name, HarnessOpts, Scale};
use serde_json::Value;

fn opts() -> HarnessOpts {
    HarnessOpts {
        scale: Scale::Bench,
        seed: 7,
        ..HarnessOpts::default()
    }
}

/// The `results` document of one experiment at [`opts`].
fn results(name: &str) -> Value {
    experiment_by_name(name).expect(name).run(&opts()).json
}

#[test]
fn every_registered_experiment_runs() {
    for sweep in all_experiments() {
        let name = sweep.name;
        let out = sweep.run(&opts());
        assert_eq!(out.name, name);
        assert!(!out.text.trim().is_empty(), "{name}: empty text output");
        assert!(out.json.is_object(), "{name}: JSON is not an object");
        assert_eq!(
            out.json.get("experiment").and_then(|v| v.as_str()),
            Some(name),
            "{name}: JSON missing experiment tag"
        );
    }
}

#[test]
fn fig4_shapes() {
    let json = results("fig4");
    let points = json["points"].as_array().unwrap();
    assert!(!points.is_empty());
    for p in points {
        let lat = p["latency"].as_array().unwrap();
        let pcx = lat[0].as_f64().unwrap();
        let dup = lat[2].as_f64().unwrap();
        assert!(
            dup <= pcx + 1e-9,
            "DUP latency above PCX at λ={}",
            p["lambda"]
        );
    }
}

#[test]
fn table2_has_all_cells() {
    let json = results("table2");
    let cells = json["cells"].as_array().unwrap();
    assert_eq!(cells.len(), 15, "5 c-values × 3 λ values");
    for c in cells {
        assert!(c["avg_query_cost"].as_f64().unwrap() >= 0.0);
    }
}

#[test]
fn table3_latency_grows_with_network_size() {
    let json = results("table3");
    let cells = json["cells"].as_array().unwrap();
    // For λ=0.1 (coldest caches), PCX latency at the largest n must exceed
    // PCX latency at the smallest n.
    let pcx_lat = |nodes: u64| -> f64 {
        cells
            .iter()
            .find(|c| c["nodes"].as_u64() == Some(nodes) && c["lambda"].as_f64() == Some(0.1))
            .map(|c| c["latency"][0].as_f64().unwrap())
            .unwrap()
    };
    let sweep = Scale::Bench.node_sweep();
    let (small, large) = (sweep[0] as u64, *sweep.last().unwrap() as u64);
    assert!(
        pcx_lat(large) > pcx_lat(small),
        "latency must grow with n: {} vs {}",
        pcx_lat(large),
        pcx_lat(small)
    );
}

#[test]
fn fig6_larger_degree_means_lower_pcx_latency() {
    let json = results("fig6");
    let points = json["points"].as_array().unwrap();
    let first = points.first().unwrap()["latency"][0].as_f64().unwrap();
    let last = points.last().unwrap()["latency"][0].as_f64().unwrap();
    assert!(last < first, "D=10 PCX latency {last} !< D=2 {first}");
}

#[test]
fn ext_staleness_pcx_dominates() {
    for p in results("ext-staleness")["points"].as_array().unwrap() {
        let stale = p["stale"].as_array().unwrap();
        let pcx = stale[0].as_f64().unwrap();
        let dup = stale[2].as_f64().unwrap();
        assert!(
            dup <= pcx + 1e-9,
            "DUP staler than PCX at λ={}",
            p["lambda"]
        );
    }
}

#[test]
fn every_sweep_replicates_each_point() {
    // `--reps` reaches every sweep, the full-report and the DUP-only ones
    // included: aggregation sums the replications' queries and takes the
    // latency CI over their means.
    let run = |name: &str, reps: usize| {
        let opts = HarnessOpts { reps, ..opts() };
        experiment_by_name(name).expect(name).run(&opts).json
    };
    let (once, twice) = (run("ext-churn", 1), run("ext-churn", 2));
    let dup = |json: &Value, field: &str| json["points"][0]["dup"][field].clone();
    let queries = |json: &Value| dup(json, "queries").as_u64().unwrap() as f64;
    let ratio = queries(&twice) / queries(&once);
    assert!((1.9..2.1).contains(&ratio), "queries grew {ratio}x");
    let latency = dup(&twice, "latency_hops");
    assert_eq!(latency["count"].as_u64(), Some(2), "replication means");
    assert!(latency["ci95_half_width"].as_f64().unwrap().is_finite());

    let cell = |reps| run("table2", reps)["cells"][0]["avg_query_latency"].as_f64();
    assert_ne!(cell(1), cell(2), "table2 ignored the replications");
}
