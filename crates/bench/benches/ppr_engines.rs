//! PPR engine benchmarks: power iteration vs Forward Local Push vs
//! Reverse Local Push across graph sizes, plus dynamic residual repair vs
//! recomputation (the optimisation the paper cites from Zhang et al.).
//! Every push runs over the flat transition kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emigre_bench::world;
use emigre_hin::{EdgeKey, GraphDelta, GraphView};
use emigre_ppr::{ppr_power, CsrRows, ForwardPush, PushWorkspace, ReversePush, TransitionCsr};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppr_engines");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for &items in &[300usize, 1_000, 3_000] {
        let w = world(items, 1e-7);
        let g = &w.hin.graph;
        let user = w.scenarios[0].user;
        let target = w.scenarios[0].wni;
        let kernel = TransitionCsr::build(g, w.cfg.rec.ppr.transition);
        group.bench_with_input(
            BenchmarkId::new("power_iteration", items),
            &items,
            |b, _| b.iter(|| black_box(ppr_power(g, &w.cfg.rec.ppr, user))),
        );
        group.bench_with_input(
            BenchmarkId::new("forward_push_flat", items),
            &items,
            |b, _| b.iter(|| black_box(ForwardPush::compute_kernel(&kernel, &w.cfg.rec.ppr, user))),
        );
        group.bench_with_input(
            BenchmarkId::new("reverse_push_flat", items),
            &items,
            |b, _| {
                b.iter(|| black_box(ReversePush::compute_kernel(&kernel, &w.cfg.rec.ppr, target)))
            },
        );
        group.bench_with_input(BenchmarkId::new("csr_build", items), &items, |b, _| {
            b.iter(|| black_box(TransitionCsr::build(g, w.cfg.rec.ppr.transition)))
        });
    }
    group.finish();
}

fn bench_dynamic_vs_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_update");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let w = world(1_000, 1e-7);
    let g = &w.hin.graph;
    let cfg = &w.cfg.rec.ppr;
    let user = w.scenarios[0].user;
    let kernel = TransitionCsr::build(g, cfg.transition);
    let base = Arc::new(ForwardPush::compute_kernel(&kernel, cfg, user));

    // A single-action counterfactual: remove the user's first rated edge.
    let mut delta = GraphDelta::new();
    let mut first = None;
    g.for_each_out(user, |v, et, _| {
        if first.is_none() && et == w.hin.rated {
            first = Some((v, et));
        }
    });
    let (v, et) = first.expect("user has a rated edge");
    delta.remove_edge(EdgeKey::new(user, v, et));
    delta.remove_edge(EdgeKey::new(v, user, et));

    // Both rows patch the touched kernel rows, then either repair the base
    // state's residuals in a workspace transaction (rolled back after each
    // sample, as a CHECK does) or push from the seed over the patch.
    let view = delta.overlay(g);
    let touched = delta.touched_sources();
    let mut ws = PushWorkspace::new(g.num_nodes());
    ws.load_base(&base);
    group.bench_function("residual_repair", |b| {
        b.iter(|| {
            let patched = kernel.patched(&view, &touched);
            for &u in &touched {
                ws.repair_row_change(cfg, u, kernel.forward_row(u), patched.forward_row(u));
            }
            ws.push_stage(&patched, cfg, cfg.epsilon);
            black_box(ws.estimate(user));
            ws.rollback();
        })
    });
    group.bench_function("recompute_from_scratch", |b| {
        b.iter(|| {
            let patched = kernel.patched(&view, &touched);
            black_box(ForwardPush::compute_kernel(&patched, cfg, user))
        })
    });
    group.finish();
}

fn bench_epsilon_sweep(c: &mut Criterion) {
    // Cost of forward push as ε tightens towards the paper's 2.7e-8.
    let mut group = c.benchmark_group("forward_push_epsilon");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let w = world(1_000, 1e-7);
    let g = &w.hin.graph;
    let user = w.scenarios[0].user;
    let kernel = TransitionCsr::build(g, w.cfg.rec.ppr.transition);
    for &eps in &[1e-5f64, 1e-6, 1e-7, 2.7e-8] {
        let cfg = w.cfg.rec.ppr.with_epsilon(eps);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{eps:.1e}")),
            &eps,
            |b, _| b.iter(|| black_box(ForwardPush::compute_kernel(&kernel, &cfg, user))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engines,
    bench_dynamic_vs_recompute,
    bench_epsilon_sweep
);
criterion_main!(benches);
