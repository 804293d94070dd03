//! The paper's seven artifacts and the eight extensions as one table.
//!
//! A [`Sweep`] declares an experiment: the `Axis` values it runs `over`
//! (JSON key order, the last varying slowest; an axis knows its points per
//! [`Scale`], the field it sets and its part of the seed label), the `runs`
//! a point needs, the `columns` (`Measure`s) written to a JSON row and
//! printed under their keys (`text_only` ones are printed only) and the
//! `layout`. [`Sweep::run`] is the only driver: [`run_replicated`] runs
//! every point's replications on the worker pool, then one row is made per
//! point or CUP variant.

use dup_core::DupScheme;
use dup_overlay::TopologyParams;
use dup_proto::{
    run_simulation, ChurnConfig, CupScheme, InterestPolicy, RunConfig, RunReport, TopologySource,
};
use dup_workload::{Arrivals, RankPlacement};
use serde::Serialize;
use serde_json::{json, Value};

use crate::experiment::{run_replicated, ExperimentOutput, HarnessOpts, Scale, SchemeKind};
use crate::report::{fmt_f, JsonObject, TextTable};

use self::{Axis::*, Get::*, Measure::*, Scope::*};

/// One coordinate: its JSON value and its spelling in seed labels and tables.
#[derive(Clone)]
struct Coord {
    json: Value,
    raw: String,
}

fn real(v: &Coord) -> f64 {
    v.json.as_f64().expect("a numeric axis")
}

fn coords<T: Serialize + std::fmt::Display>(values: &[T]) -> Vec<Coord> {
    let coord = |v: &T| (json!(v), v.to_string());
    let coords = values.iter().map(coord);
    coords.map(|(json, raw)| Coord { json, raw }).collect()
}

/// The axes sweeps are declared over.
enum Axis {
    Lambda,
    Lambda3,
    Threshold,
    Nodes,
    Degree,
    Theta,
    Alpha,
    Churn,
    Topology,
    Placement,
    Policy,
}

impl Axis {
    /// JSON key, seed-label tag and points at `scale`. Untagged: points along
    /// `c` share a seed (only the threshold differs between them) and both
    /// Pareto shapes run each λ on the same seed. `Lambda3`: Tables II/III.
    #[rustfmt::skip] // one axis per line
    fn spec(&self, scale: Scale) -> (&'static str, Option<&'static str>, Vec<Coord>) {
        match self {
            Lambda => ("lambda", Some("lambda="), coords(&scale.lambda_sweep())),
            Lambda3 => ("lambda", Some("lambda="), coords(&[0.1, 1.0, 10.0])),
            Threshold => ("c", None, coords(&[2u32, 4, 6, 8, 10])),
            Nodes => ("nodes", Some("n="), coords(&scale.node_sweep())),
            Degree => ("degree", Some("D="), coords(&[2usize, 4, 6, 8, 10])),
            Theta => ("theta", Some("theta="), coords(&[0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 4.0])),
            Alpha => ("alpha", None, coords(&[1.05, 1.20])),
            Churn => ("churn_rate", Some("rate="), coords(&[0.0, 0.01, 0.05, 0.2, 1.0])),
            Topology => ("topology", Some(""), coords(&["random-tree", "chord"])),
            Placement => ("placement", Some(""), coords(&["random", "by-id", "shallow-first", "deep-first"])),
            Policy => ("policy", Some(""), coords(&["epoch", "sliding-window"])),
        }
    }

    /// Moves `cfg` to coordinate `v` of this axis.
    fn set(&self, cfg: &mut RunConfig, v: &Coord) {
        let nodes = cfg.topology.node_count();
        let tree = |nodes, max_degree| TopologyParams { nodes, max_degree };
        match self {
            Lambda | Lambda3 => cfg.lambda = real(v),
            Threshold => cfg.protocol.threshold_c = real(v) as u32,
            Nodes => cfg.topology = TopologySource::RandomTree(tree(real(v) as usize, 4)),
            Degree => cfg.topology = TopologySource::RandomTree(tree(nodes, real(v) as usize)),
            Theta => cfg.zipf_theta = real(v),
            Alpha => cfg.arrivals = Arrivals::Pareto { alpha: real(v) },
            Churn => cfg.churn = (real(v) > 0.0).then(|| ChurnConfig::balanced(real(v))),
            Topology if v.raw == "chord" => {
                let key = 0xD05E_5EED;
                cfg.topology = TopologySource::Chord { nodes, key };
            }
            Placement => {
                cfg.rank_placement = match v.raw.as_str() {
                    "by-id" => RankPlacement::ById,
                    "shallow-first" => RankPlacement::ByDepthShallowFirst,
                    "deep-first" => RankPlacement::ByDepthDeepFirst,
                    _ => RankPlacement::Random,
                }
            }
            Policy if v.raw == "sliding-window" => {
                cfg.protocol.interest_policy = InterestPolicy::SlidingWindow;
            }
            Topology | Policy => {}
        }
    }
}

/// Which simulations one point runs; rows list PCX first if present, DUP last.
enum Runs {
    /// These kinds on the same configuration, as one row.
    Kinds(&'static [SchemeKind]),
    /// Constructed CUP variants beside one DUP baseline: the configuration
    /// runs once per variant and once for DUP; each variant becomes a row
    /// (its coordinate under the key) pairing it with that baseline.
    CupVariants(&'static str, fn() -> Vec<(Coord, CupScheme)>),
}

/// Which of a row's runs a measure covers (`Pushing`: all but PCX). One
/// run makes a JSON scalar, several an array.
enum Scope {
    All,
    Pushing,
    First,
    Last,
}

/// What a measure reads off one run: a real (given the row's first run, PCX,
/// as baseline), a count, `[p50, p95, p99]` latency hops, or the report itself.
enum Get {
    Real(fn(&RunReport, &RunReport) -> f64),
    Count(fn(&RunReport) -> u64),
    Percentiles,
    Report,
}

/// The vocabulary of row columns.
enum Measure {
    Latency,
    LatencyCi,
    Cost,
    Stale,
    RelativeCost,
    PushHops,
    ControlHops,
    PcxCost,
    Interested,
    /// Table II's spellings of the DUP run's cost and latency.
    DupCost,
    DupLatency,
    HopPercentiles,
    Reports,
}

impl Measure {
    /// JSON key, also the table header after the scheme name (`None`: each
    /// run's value goes under its lowercase scheme name), scope, reading.
    #[rustfmt::skip] // one measure per line
    fn spec(&self) -> (Option<&'static str>, Scope, Get) {
        match self {
            Latency => (Some("latency"), All, Real(|r, _| r.latency_hops.mean)),
            LatencyCi => (Some("latency_ci"), All, Real(|r, _| r.latency_hops.ci95_half_width)),
            Cost => (Some("cost"), All, Real(|r, _| r.avg_query_cost)),
            Stale => (Some("stale"), All, Real(|r, _| r.stale_fraction)),
            RelativeCost => (Some("relative_cost"), Pushing, Real(|r, pcx| r.relative_cost_to(pcx))),
            PushHops => (Some("push_hops"), Pushing, Count(|r| r.push_hops)),
            ControlHops => (Some("control_hops"), Pushing, Count(|r| r.control_hops)),
            PcxCost => (Some("pcx_cost"), First, Real(|r, _| r.avg_query_cost)),
            Interested => (Some("interested"), Last, Count(|r| r.final_interested_nodes as u64)),
            DupCost => (Some("avg_query_cost"), Last, Real(|r, _| r.avg_query_cost)),
            DupLatency => (Some("avg_query_latency"), Last, Real(|r, _| r.latency_hops.mean)),
            HopPercentiles => (None, All, Percentiles),
            Reports => (None, All, Report),
        }
    }

    /// Appends this measure's JSON entries and table cells to `row`.
    fn emit(&self, runs: &[(&'static str, &RunReport)], row: &mut Row) {
        let (key, scope, get) = self.spec();
        let covered = match scope {
            All => runs,
            Pushing => &runs[usize::from(runs[0].0 == "PCX")..],
            First => &runs[..1],
            Last => &runs[runs.len() - 1..],
        };
        let mut values = Vec::new();
        for (scheme, r) in covered {
            let (value, cell) = match get {
                Real(get) => {
                    let x = get(r, runs[0].1);
                    (json!(x), Some(fmt_f(x)))
                }
                Count(get) => (json!(get(r)), Some(get(r).to_string())),
                Percentiles => {
                    let hops = [r.latency_p50_hops, r.latency_p95_hops, r.latency_p99_hops];
                    (json!(hops), Some(hops.map(fmt_f).join("/")))
                }
                Report => (json!(r), None),
            };
            if let Some(cell) = cell {
                let head = key.unwrap_or("p50/p95/p99");
                row.head.push(format!("{scheme} {head}"));
                row.cells.push(cell);
            }
            match key {
                Some(_) => values.push(value),
                None => row.json.0.push((scheme.to_lowercase(), value)),
            }
        }
        if let Some(key) = key {
            let (scalar, array) = (values.len() == 1, json!(values));
            let value = if scalar { array[0].clone() } else { array };
            row.json.0.push((key.to_string(), value));
        }
    }
}

/// One row: coordinates under their keys in axis order, the JSON object, and
/// the table cells under their headers (coordinates first, outer leading).
#[derive(Default)]
struct Row {
    coords: Vec<(&'static str, Coord)>,
    json: JsonObject,
    head: Vec<String>,
    cells: Vec<String>,
}

/// How a sweep's rows become its results array and its table.
#[derive(PartialEq)]
enum Layout {
    /// `points: [row]`; a table line per row.
    Points,
    /// `cells: [row]`; the table in the paper's layout ([`TextTable::pivoted`]).
    Cells,
    /// `series: [{<outer axis>, points: [row without it]}]`; a line per row.
    Series,
}

/// The builder methods the table below chains, one per optional field.
macro_rules! setters {
    ($($field:ident: $type:ty),* $(,)?) => {$(
        const fn $field(mut self, $field: $type) -> Sweep {
            self.$field = $field;
            self
        }
    )*};
}

/// One experiment, declared (see the module docs).
pub struct Sweep {
    /// Experiment id (`table2`, `ext-churn`, …) and `<name>.json` stem.
    pub name: &'static str,
    title: &'static str,
    over: &'static [Axis],
    runs: Runs,
    columns: &'static [Measure],
    text_only: &'static [Measure],
    layout: Layout,
    /// A further top-level entry of the results, after `experiment`.
    extra: Option<(&'static str, &'static str)>,
}

impl Sweep {
    /// Runs every point (`opts.reps` replications each, `opts.jobs` workers)
    /// and renders the rows as a table and as the results document.
    pub fn run(&self, opts: &HarnessOpts) -> ExperimentOutput {
        let axes: Vec<_> = self.over.iter().map(|axis| axis.spec(opts.scale)).collect();
        let mut points: Vec<Vec<Coord>> = vec![Vec::new()];
        for (_, _, values) in &axes {
            let extended = values.iter().flat_map(|v| {
                let with = move |p: &Vec<Coord>| [p.as_slice(), std::slice::from_ref(v)].concat();
                points.iter().map(with)
            });
            points = extended.collect();
        }
        let cfgs: Vec<RunConfig> = points
            .iter()
            .map(|point| {
                // A sweep none of whose axes is tagged runs on the `shared` seed.
                let tags = axes.iter().zip(point);
                let tags =
                    tags.filter_map(|((_, tag, _), v)| Some(format!("{}{}", (*tag)?, v.raw)));
                let label = match tags.collect::<Vec<_>>() {
                    tags if tags.is_empty() => "shared".to_string(),
                    tags => tags.join("/"),
                };
                let mut cfg = opts.scale.base_config(opts.point_seed(self.name, &label));
                for (axis, v) in self.over.iter().zip(point) {
                    axis.set(&mut cfg, v);
                }
                cfg
            })
            .collect();
        let reports = run_replicated(opts, &cfgs, |cfg| match self.runs {
            Runs::Kinds(kinds) => kinds.iter().map(|kind| kind.run(cfg)).collect(),
            Runs::CupVariants(_, variants) => {
                let cups = variants().into_iter();
                let cups = cups.map(|(_, cup)| run_simulation(cfg, cup));
                cups.chain([run_simulation(cfg, DupScheme::new())])
                    .collect()
            }
        });
        let mut rows: Vec<Row> = Vec::new();
        for (point, reports) in points.iter().zip(&reports) {
            let coords: Vec<_> = axes
                .iter()
                .map(|a| a.0)
                .zip(point.iter().cloned())
                .collect();
            match self.runs {
                Runs::Kinds(kinds) => {
                    let names = kinds.iter().map(|kind| kind.name());
                    rows.push(self.row(coords, &names.zip(reports).collect::<Vec<_>>()));
                }
                Runs::CupVariants(key, variants) => {
                    let dup = &reports[reports.len() - 1];
                    let paired = variants().into_iter().zip(reports);
                    rows.extend(paired.map(|((variant, _), cup)| {
                        let coords = [coords.as_slice(), &[(key, variant)]].concat();
                        self.row(coords, &[("CUP", cup), ("DUP", dup)])
                    }));
                }
            }
        }
        let objects: Vec<&JsonObject> = rows.iter().map(|row| &row.json).collect();
        let (key, results) = match self.layout {
            Layout::Points => ("points", json!(objects)),
            Layout::Cells => ("cells", json!(objects)),
            Layout::Series => {
                let inner = axes[0].2.len();
                let series = rows.chunks(inner).zip(objects.chunks(inner));
                let series = series.map(|(chunk, points)| {
                    let (key, outer) = &chunk[0].coords[1];
                    let points = ("points".to_string(), json!(points));
                    JsonObject(vec![(key.to_string(), outer.json.clone()), points])
                });
                ("series", json!(series.collect::<Vec<_>>()))
            }
        };
        let mut json = vec![("experiment".to_string(), json!(self.name))];
        json.extend(self.extra.iter().map(|(k, v)| (k.to_string(), json!(v))));
        json.push((key.to_string(), results));
        let mut table = TextTable::new(&rows[0].head);
        for row in &rows {
            table.row(&row.cells);
        }
        if self.layout == Layout::Cells {
            table = table.pivoted();
        }
        ExperimentOutput {
            name: self.name,
            title: self.title,
            text: table.render(),
            json: json!(JsonObject(json)),
        }
    }

    fn row(&self, coords: Vec<(&'static str, Coord)>, runs: &[(&'static str, &RunReport)]) -> Row {
        let mut row = Row::default();
        let nested = usize::from(self.layout == Layout::Series);
        for (key, v) in &coords[..coords.len() - nested] {
            row.json.0.push((key.to_string(), v.json.clone()));
        }
        for (key, v) in coords.iter().rev() {
            row.head.push(key.to_string());
            row.cells.push(v.raw.clone());
        }
        row.coords = coords;
        for measure in self.columns {
            measure.emit(runs, &mut row);
        }
        let written = row.json.0.len();
        for measure in self.text_only {
            measure.emit(runs, &mut row);
        }
        row.json.0.truncate(written);
        row
    }

    const fn new(name: &'static str) -> Sweep {
        Sweep {
            name,
            title: "",
            over: &[],
            runs: Runs::Kinds(&SchemeKind::ALL),
            columns: &[],
            text_only: &[],
            layout: Layout::Points,
            extra: None,
        }
    }

    setters! {
        title: &'static str,
        over: &'static [Axis],
        runs: Runs,
        columns: &'static [Measure],
        text_only: &'static [Measure],
        layout: Layout,
        extra: Option<(&'static str, &'static str)>,
    }
}

/// X6: whether uninterested relays install the updates they forward.
const HALO: Runs = Runs::CupVariants("variant", || {
    let names = coords(&["paper (no relay caching)", "relay-caching halo"]);
    let cups = [CupScheme::new(), CupScheme::with_relay_caching()];
    names.into_iter().zip(cups).collect()
});
/// X9: CUP's per-node "push further down?" cut-off at rising thresholds.
const ECONOMIC: Runs = Runs::CupVariants("min_branch_queries", || {
    let minima = [None, Some(1), Some(3), Some(10)];
    let cups = minima.map(|min| min.map_or_else(CupScheme::new, CupScheme::with_economic_push));
    let minima = coords(&minima.map(|min| json!(min)));
    minima.into_iter().zip(cups).collect()
});

static SWEEPS: [Sweep; 15] = [
    Sweep::new("table2")
        .title("Table II: effects of the threshold value c (DUP)")
        .over(&[Threshold, Lambda3])
        .runs(Runs::Kinds(&[SchemeKind::Dup]))
        .columns(&[DupCost, DupLatency])
        .layout(Layout::Cells)
        .extra(Some(("scheme", "DUP"))),
    Sweep::new("fig4")
        .title("Figure 4: performance vs mean query arrival rate λ")
        .over(&[Lambda])
        .columns(&[Latency, LatencyCi, Cost, RelativeCost, Interested])
        .extra(Some(("arrivals", "exponential"))),
    Sweep::new("table3")
        .title("Table III: query latency vs number of nodes")
        .over(&[Nodes, Lambda3])
        .columns(&[Latency, Cost])
        .layout(Layout::Cells),
    Sweep::new("fig5")
        .title("Figure 5: relative cost vs number of nodes (λ=1)")
        .over(&[Nodes])
        .columns(&[PcxCost, RelativeCost, PushHops]),
    Sweep::new("fig6")
        .title("Figure 6: effects of the maximum node degree D")
        .over(&[Degree])
        .columns(&[Latency, LatencyCi, PcxCost, RelativeCost]),
    Sweep::new("fig7")
        .title("Figure 7: effects of the Zipf parameter θ")
        .over(&[Theta])
        .columns(&[Latency, LatencyCi, PcxCost, RelativeCost, Interested]),
    Sweep::new("fig8")
        .title("Figure 8: effects of Pareto arrivals (α = 1.05, 1.20)")
        .over(&[Lambda, Alpha])
        .columns(&[Latency, LatencyCi, Cost, RelativeCost, Interested])
        .layout(Layout::Series),
    Sweep::new("ext-churn")
        .title("X1: churn rate sweep (balanced join/leave/fail)")
        .over(&[Churn])
        .columns(&[Reports])
        .text_only(&[Latency, PcxCost, RelativeCost]),
    Sweep::new("ext-staleness")
        .title("X2: fraction of queries served a superseded (stale) version")
        .over(&[Lambda])
        .columns(&[Stale]),
    Sweep::new("ext-chord")
        .title("X3: synthetic random tree vs Chord-derived search tree")
        .over(&[Topology])
        .columns(&[Reports])
        .text_only(&[Latency, PcxCost, RelativeCost]),
    Sweep::new("ext-placement")
        .title("X4: Zipf rank placement ablation")
        .over(&[Placement])
        .columns(&[Reports])
        .text_only(&[Latency, PcxCost, RelativeCost]),
    Sweep::new("ext-policy")
        .title("X5: interest policy ablation (epoch vs sliding window)")
        .over(&[Policy])
        .columns(&[Reports])
        .text_only(&[Latency, Cost, ControlHops, RelativeCost]),
    Sweep::new("ext-cup-halo")
        .title("X6: CUP relay-caching ablation")
        .runs(HALO)
        .columns(&[Reports])
        .text_only(&[Latency, Cost]),
    Sweep::new("ext-tails")
        .title("X8: tail latency (hop percentiles) per scheme")
        .over(&[Lambda])
        .columns(&[HopPercentiles]),
    Sweep::new("ext-cup-economic")
        .title("X9: CUP economic push cut-offs vs DUP")
        .runs(ECONOMIC)
        .columns(&[Reports])
        .text_only(&[Latency, HopPercentiles, PushHops, Cost]),
];

/// All experiments: the paper's seven artifacts, then the extensions.
pub fn all_experiments() -> &'static [Sweep] {
    &SWEEPS
}

/// Looks up one experiment by name.
pub fn experiment_by_name(name: &str) -> Option<&'static Sweep> {
    SWEEPS.iter().find(|sweep| sweep.name == name)
}
