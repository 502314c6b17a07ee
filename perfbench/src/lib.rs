//! # perfbench — the EMiGRe server benchmark
//!
//! One run = one workload and one seed. The untraced run spawns the real
//! `emigre serve` binary, drives it over HTTP, checks every answer against
//! the single-threaded reference, and reports the end-to-end metrics. The
//! traced run (`--trace 1`) repeats the HTTP run for the `serve`-layer
//! metrics, then replays the same inputs in-process through each layer's
//! public functions for the per-layer metrics. See `README.md`.

pub mod drive;
pub mod http;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod world;

use stats::{median, ratio};
use std::path::{Path, PathBuf};
use trace::LayerMetric;
use world::{GraphFormat, Inputs, Workload};

/// Where a run keeps its files, relative to the checkout root.
pub const OUT_DIR: &str = ".perfbench";

/// A finished run: what the last stdout line reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<LayerMetric>,
    /// Human-readable report (stderr).
    pub report: String,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric(name: &str, unit: &str, value: f64, samples: u64, stat: &str) -> LayerMetric {
    LayerMetric {
        name: name.into(),
        unit: unit.into(),
        value,
        samples,
        stat: stat.into(),
    }
}

/// Every raw timing of a run, written beside the result for inspection.
#[derive(serde::Serialize)]
struct RawSamples {
    workload: String,
    seed: u64,
    setup_s: Vec<f64>,
    explain_ms: Vec<f64>,
    recommend_ms: Vec<f64>,
    feedback_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    metrics: Vec<LayerMetric>,
}

/// The end-to-end metrics of an untraced HTTP run.
fn end_to_end(run: &drive::HttpRun) -> Vec<LayerMetric> {
    let s = run.summary();
    vec![
        metric(
            "setup_s",
            "s",
            median(&run.setup_s),
            run.setup_s.len() as u64,
            "p50",
        ),
        metric(
            "explain_qps",
            "1/s",
            ratio(run.explains_checked as f64, run.window_s),
            run.explains_checked,
            "rate",
        ),
        metric(
            "explain_p50_ms",
            "ms",
            s.explain.p50,
            s.explain.samples,
            "p50",
        ),
        metric(
            "explain_p90_ms",
            "ms",
            s.explain.p90,
            s.explain.samples,
            "p90",
        ),
        metric(
            "recommend_p50_ms",
            "ms",
            s.recommend.p50,
            s.recommend.samples,
            "p50",
        ),
        metric(
            "slo_share",
            "ratio",
            ratio(run.explains_in_slo as f64, run.explains_attempted as f64),
            run.explains_attempted,
            "ratio",
        ),
        metric(
            "feedback_p50_ms",
            "ms",
            s.feedback.p50,
            s.feedback.samples,
            "p50",
        ),
        metric(
            "found_share",
            "ratio",
            ratio(run.found as f64, run.valid_explains as f64),
            run.valid_explains,
            "ratio",
        ),
        metric("peak_rss_mb", "MiB", run.peak_rss_mb, 1, "max"),
    ]
}

/// The `serve`-layer metrics of a traced run, read off the HTTP run: the
/// responses' `stages` blocks and the server's `/metrics`.
fn serve_layer(run: &drive::HttpRun) -> Vec<LayerMetric> {
    let s = run.summary();
    let mut out = vec![
        metric("serve.http_ms", "ms", s.http.p50, s.http.samples, "p50"),
        metric(
            "serve.queue_wait_p50_ms",
            "ms",
            s.queue.p50,
            s.queue.samples,
            "p50",
        ),
        metric(
            "serve.queue_wait_p90_ms",
            "ms",
            s.queue.p90,
            s.queue.samples,
            "p90",
        ),
        metric(
            "serve.rejected_share",
            "ratio",
            ratio(run.refused as f64, run.attempted() as f64),
            run.attempted(),
            "ratio",
        ),
    ];
    if let Some(mx) = &run.metrics {
        let hit = |c: &emigre_serve::CacheStats| ratio(c.hits as f64, (c.hits + c.misses) as f64);
        let lookups = |c: &emigre_serve::CacheStats| c.hits + c.misses;
        out.extend([
            metric(
                "serve.session_hit_ratio",
                "ratio",
                hit(&mx.session_cache),
                lookups(&mx.session_cache),
                "ratio",
            ),
            metric(
                "serve.column_hit_ratio",
                "ratio",
                hit(&mx.column_cache),
                lookups(&mx.column_cache),
                "ratio",
            ),
            metric(
                "serve.stale_invalidations",
                "count",
                (mx.session_stale_invalidations + mx.column_stale_invalidations) as f64,
                1,
                "count",
            ),
            metric(
                "serve.cache_bytes",
                "bytes",
                (mx.session_cache_bytes + mx.column_cache_bytes) as f64,
                1,
                "bytes",
            ),
        ]);
    }
    out
}

fn graph_file(dir: &Path, inputs: &Inputs) -> PathBuf {
    dir.join(match inputs.format {
        GraphFormat::EdgeList => "graph.hin",
        GraphFormat::Snapshot => "graph.snap",
    })
}

fn metric_table(metrics: &[LayerMetric]) -> String {
    let mut out = format!(
        "  {:<30} {:>16} {:<6} {:>6} {:>8}\n",
        "metric", "value", "unit", "stat", "samples"
    );
    for m in metrics {
        out += &format!(
            "  {:<30} {:>16.4} {:<6} {:>6} {:>8}\n",
            m.name, m.value, m.unit, m.stat, m.samples
        );
    }
    out
}

/// Runs one workload end to end (and, with `traced`, the per-layer run).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    server_bin: &Path,
) -> Result<Outcome, String> {
    let dir = PathBuf::from(OUT_DIR).join(format!("{}-{seed}", workload.name()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let t0 = std::time::Instant::now();
    let inputs = world::build(workload, seed, seconds, world::Shape::standard(workload))?;
    let inputs_s = t0.elapsed().as_secs_f64();
    let http = drive::run(&inputs, server_bin, &dir)?;
    let s = http.summary();
    let late = http.generator_late(&inputs);
    let mut correct = http.divergences.is_empty() && !late;
    let mut report = format!(
        "perfbench {} seed {seed}: {} plan request(s) over {} user(s), {} pass(es), {} feedback batch(es); inputs built in {inputs_s:.1}s\n\
         server: --workers {} --parallelism 1, {} start-up(s); window {:.2}s\n\
         requests: {} sent, {} succeeded, {} failed ({} refused, {} divergent); failed_share {:.4}\n",
        workload.name(),
        inputs.plan.len(),
        inputs.plan_users(),
        inputs.passes.len(),
        inputs.feedback.len(),
        http.workers,
        http.setup_s.len(),
        http.window_s,
        http.attempted(),
        http.attempted().saturating_sub(http.failed()),
        http.failed(),
        http.refused,
        http.divergences.len(),
        ratio(http.failed() as f64, http.attempted() as f64),
    );
    if inputs.offered_rps > 0.0 || inputs.feedback_rps > 0.0 {
        report += &format!(
            "generator: {:.1} req/s offered, {:.1} feedback/s; lateness p50 {:.3} ms, max {:.3} ms over {} send(s){}\n",
            inputs.offered_rps,
            inputs.feedback_rps,
            s.lateness.p50,
            s.lateness.max,
            s.lateness.samples,
            if late { " — LATE, run invalid" } else { "" }
        );
    }
    // Not a gated metric: between runs on a 2-vCPU VM its spread reached
    // 0.3-0.4 of the median, above any admissible bound.
    report += &format!(
        "feedback: p50 {:.3} ms, p90 {:.3} ms over {} batch(es)\n",
        s.feedback.p50, s.feedback.p90, s.feedback.samples
    );
    report += &format!(
        "server stages: unattributed share p50 {:.4} over {} answer(s)\n",
        stats::summarize(&http.unattributed).p50,
        http.unattributed.len()
    );
    for d in http.divergences.iter().take(5) {
        report += &format!("divergence: {d}\n");
    }
    let metrics = if traced {
        let t = trace::run(&inputs, &graph_file(&dir, &inputs))?;
        let trace_path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-{seed}.json", workload.name()));
        let text = serde_json::to_string(&t.file).map_err(|e| e.0)?;
        std::fs::write(&trace_path, text)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        let f = &t.file;
        report += &format!(
            "traced replay: {} op(s), {:.1} ms traced; layer self times sum to the request totals \
             (worst residual {:.6} ms); unexplained share {:.4}; spans written to {}\n",
            f.counters.explains + f.counters.recommends + f.counters.writes,
            f.total_ms,
            t.worst_residual_ms,
            ratio(f.unexplained_ms, f.total_ms),
            trace_path.display()
        );
        report += &format!("  {:<24} {:>12} {:>8}\n", "span", "self ms", "calls");
        for r in &f.layers {
            report += &format!("  {:<24} {:>12.3} {:>8}\n", r.name, r.self_ms, r.calls);
        }
        report += &format!("counters: {:?}\n", f.counters);
        report += &t.shape;
        correct &= t.worst_residual_ms < 1e-3;
        let mut m = serve_layer(&http);
        m.extend(t.metrics);
        m
    } else {
        end_to_end(&http)
    };
    report += &metric_table(&metrics);
    let raw = RawSamples {
        workload: workload.name().into(),
        seed,
        setup_s: http.setup_s.clone(),
        explain_ms: http.explain_ms.clone(),
        recommend_ms: http.recommend_ms.clone(),
        feedback_ms: http.feedback_ms.clone(),
        queue_ms: http.queue_ms.clone(),
        lateness_ms: http.lateness_ms.clone(),
        metrics: metrics.clone(),
    };
    let raw_path = PathBuf::from(OUT_DIR).join(format!(
        "report-{}-{seed}-trace{}.json",
        workload.name(),
        u8::from(traced)
    ));
    std::fs::write(&raw_path, serde_json::to_string(&raw).map_err(|e| e.0)?)
        .map_err(|e| format!("writing {}: {e}", raw_path.display()))?;
    report += &format!("raw samples written to {}\n", raw_path.display());
    let _ = std::fs::remove_file(graph_file(&dir, &inputs));
    let _ = std::fs::remove_file(dir.join("events.jsonl"));
    Ok(Outcome {
        correct,
        attempted: http.attempted(),
        failed: http.failed() + u64::from(late),
        metrics,
        report,
    })
}
