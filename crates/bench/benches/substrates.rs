//! Criterion microbenchmarks of the substrates: event-queue throughput,
//! variate generation, Zipf sampling, topology generation, Chord lookups,
//! and raw simulation event rates per scheme. These are the ablation
//! benches DESIGN.md calls out for the design choices (integer clock +
//! slab-heap queue, ziggurat exponential variates, alias-table Zipf).
//! The `scheme_sim` group is a quick look at whole-run wall clock; the
//! numbers a change is judged by come from the repo's benchmark
//! (`perfbench/README.md`, history in `perfbench/history.jsonl`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use dup_core::{run_simulation_kind, SchemeKind};
use dup_overlay::{random_search_tree, ChordRing, TopologyParams};
use dup_proto::{ProbeSink, RunConfig, TopologySource};
use dup_sim::{stream_rng, Engine, EventQueue, SimTime};
use dup_workload::{exp_variate, lomax_variate, ZipfSelector};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.bench_function("event_queue_push_pop_10k", |b| {
        let mut rng = stream_rng(1, "bench-queue");
        b.iter_batched(
            || {
                use rand::Rng;
                (0..10_000u64)
                    .map(|_| SimTime::from_nanos(rng.gen()))
                    .collect::<Vec<_>>()
            },
            |times| {
                let mut q = EventQueue::with_capacity(10_000);
                for (i, t) in times.iter().enumerate() {
                    q.push(*t, i);
                }
                let mut acc = 0usize;
                while let Some((_, v)) = q.pop() {
                    acc ^= v;
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("engine_cascade_10k", |b| {
        b.iter(|| {
            let mut eng: Engine<u32> = Engine::new();
            eng.schedule(SimTime::ZERO, 0);
            eng.run(|eng, i| {
                if i < 10_000 {
                    eng.schedule_after(dup_sim::SimDuration::from_nanos(10), i + 1);
                }
            });
            black_box(eng.events_processed())
        })
    });
    group.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    let mut rng = stream_rng(2, "bench-variates");
    group.bench_function("exp_variate_10k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..10_000 {
                acc += exp_variate(&mut rng, 1.0);
            }
            black_box(acc)
        })
    });
    group.bench_function("lomax_variate_10k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..10_000 {
                acc += lomax_variate(&mut rng, 1.2, 0.2);
            }
            black_box(acc)
        })
    });
    let zipf = ZipfSelector::new(4096, 0.8);
    group.bench_function("zipf_sample_10k_n4096", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..10_000 {
                acc ^= zipf.sample(&mut rng);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_overlay(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay");
    group.bench_function("random_tree_n4096", |b| {
        let mut rng = stream_rng(3, "bench-topo");
        b.iter(|| {
            black_box(random_search_tree(
                TopologyParams {
                    nodes: 4096,
                    max_degree: 4,
                },
                &mut rng,
            ))
        })
    });
    let mut rng = stream_rng(4, "bench-chord");
    let ring = ChordRing::new(1024, &mut rng);
    group.bench_function("chord_lookup_n1024", |b| {
        use rand::Rng;
        b.iter(|| {
            let key: u64 = rng.gen();
            let from = dup_overlay::NodeId(rng.gen_range(0..1024));
            black_box(ring.lookup_path(from, key))
        })
    });
    group.bench_function("chord_search_tree_n1024", |b| {
        b.iter(|| black_box(ring.search_tree(0xFEED)))
    });
    group.finish();
}

fn bench_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheme_sim");
    group.sample_size(10);
    let cfg = || {
        let mut cfg = RunConfig::quick(9);
        cfg.topology = TopologySource::RandomTree(TopologyParams {
            nodes: 256,
            max_degree: 4,
        });
        cfg.warmup_secs = 3_600.0;
        cfg.duration_secs = 8_000.0;
        cfg.lambda = 2.0;
        cfg
    };
    // One entry per scheme through the unified dispatch with a disabled
    // probe, so this group doubles as the no-op-probe overhead check.
    for kind in SchemeKind::ALL {
        let id = format!("{}_run", kind.name().to_lowercase());
        group.bench_function(&id, |b| {
            b.iter(|| black_box(run_simulation_kind(&cfg(), kind, ProbeSink::disabled())))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_workload,
    bench_overlay,
    bench_schemes
);
criterion_main!(benches);
