//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * counterfactual **delta overlay** (patch the touched kernel rows) vs
//!   cloning + mutating the graph and rebuilding the kernel per CHECK;
//! * **dynamic CHECK** (residual repair from the user's base push state)
//!   vs from-scratch push per CHECK;
//! * **mmap-able snapshot** vs adjacency-list traversal for whole-graph
//!   PPR.

use criterion::{criterion_group, criterion_main, Criterion};
use emigre_bench::world;
use emigre_core::{Explainer, Method};
use emigre_hin::{snapshot_to_bytes, EdgeKey, GraphDelta, GraphView, Snapshot};
use emigre_ppr::{ppr_power, CsrRows, ForwardPush, TransitionCsr};
use std::hint::black_box;
use std::time::Duration;

fn bench_overlay_vs_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("counterfactual_application");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let w = world(1_000, 1e-6);
    let g = &w.hin.graph;
    let user = w.scenarios[0].user;
    let mut delta = GraphDelta::new();
    let mut first = None;
    g.for_each_out(user, |v, et, _| {
        if first.is_none() && et == w.hin.rated {
            first = Some((v, et));
        }
    });
    let (v, et) = first.expect("rated edge");
    delta.remove_edge(EdgeKey::new(user, v, et));
    delta.remove_edge(EdgeKey::new(v, user, et));

    let model = w.cfg.rec.ppr.transition;
    let kernel = TransitionCsr::build(g, model);
    let touched = delta.touched_sources();
    group.bench_function("delta_overlay", |b| {
        b.iter(|| {
            let view = delta.overlay(g);
            let patched = kernel.patched(&view, &touched);
            black_box(ForwardPush::compute_kernel(&patched, &w.cfg.rec.ppr, user))
        })
    });
    group.bench_function("clone_and_mutate", |b| {
        b.iter(|| {
            let edited = delta.apply_to(g).expect("valid delta");
            let rebuilt = TransitionCsr::build(&edited, model);
            black_box(ForwardPush::compute_kernel(&rebuilt, &w.cfg.rec.ppr, user))
        })
    });
    group.finish();
}

fn bench_dynamic_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_engine");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let w = world(800, 1e-6);
    let g = &w.hin.graph;
    let s = w.scenarios[0];

    let mut dynamic_cfg = w.cfg.clone();
    dynamic_cfg.dynamic_test = true;
    let mut scratch_cfg = w.cfg.clone();
    scratch_cfg.dynamic_test = false;

    group.bench_function("dynamic_repair_check", |b| {
        let explainer = Explainer::new(dynamic_cfg.clone());
        b.iter(|| black_box(explainer.explain(g, s.user, s.wni, Method::AddPowerset)))
    });
    group.bench_function("from_scratch_check", |b| {
        let explainer = Explainer::new(scratch_cfg.clone());
        b.iter(|| black_box(explainer.explain(g, s.user, s.wni, Method::AddPowerset)))
    });
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_representation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let w = world(2_000, 1e-6);
    let g = &w.hin.graph;
    let user = w.scenarios[0].user;
    group.bench_function("power_iteration_adjacency_lists", |b| {
        b.iter(|| black_box(ppr_power(g, &w.cfg.rec.ppr, user)))
    });
    let image = snapshot_to_bytes(g);
    let snap = Snapshot::from_bytes(image.clone()).expect("fresh image opens");
    group.bench_function("power_iteration_snapshot", |b| {
        b.iter(|| black_box(ppr_power(&snap, &w.cfg.rec.ppr, user)))
    });
    group.bench_function("snapshot_open_cost", |b| {
        b.iter(|| black_box(Snapshot::from_bytes(image.clone()).expect("image opens")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_overlay_vs_clone,
    bench_dynamic_check,
    bench_snapshot
);
criterion_main!(benches);
