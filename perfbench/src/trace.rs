//! The traced run: replays a workload's seeded inputs in-process through
//! each layer's public functions, in the order the server's `run_explain`
//! / `run_recommend` / `apply_feedback` call them, with a span around each
//! call. Spans stay in memory and are written out when the run ends.
//!
//! Span names are `layer.part`. A span's self time is its duration minus
//! the time its children cover; a request's root span (`serve.explain`,
//! `serve.recommend`, `serve.feedback`, `serve.setup`) keeps as self time
//! only the benchmark's own glue, reported as the unexplained share.

use crate::stats::{ratio, summarize, Summary};
use crate::world::{GraphFormat, Inputs, Request, Workload, RECOMMEND_K};
use emigre_core::{
    CandidateIndex, ExplainContext, Explainer, FailureReason, Mode, UserArtifacts, WhyNotQuestion,
};
use emigre_hin::Hin;
use emigre_obs::{CounterSnapshot, HeapSize, ObsHandle, SpanExport};
use emigre_ppr::{ForwardPush, PushWorkspace, ReversePush, TransitionCsr};
use emigre_rec::{PprRecommender, RecList, Recommender};
use emigre_serve::{events_to_delta, recommend_from_push, EpochCache, LiveGraph};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Work, in ms, timed both traced and untraced for `obs.trace_overhead_pct`.
const OVERHEAD_MS: f64 = 3000.0;
/// Graph loads and kernel builds per replay (`serve.setup` requests).
const SETUPS: usize = 3;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub name: String,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span recorder. Disabled, every call is a no-op, which is the
/// untraced side of the overhead comparison.
struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn begin(&mut self, name: &str) -> usize {
        if !self.enabled {
            return 0;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            request: self.request,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: 0.0,
        });
        self.open.push(idx);
        idx
    }

    fn end(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        self.spans[idx].end_us = self.now_us();
        self.open.retain(|&i| i != idx);
    }

    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Adds the program's own spans (an `ObsHandle` span tree recorded
    /// inside `explain_with_context`) under the open span; `origin` is
    /// when that handle was created. `search_space` and `test_loop` map
    /// to `core.search` and `core.tester`; other names are transparent.
    fn import(&mut self, tree: &[SpanExport], origin: Instant) {
        if !self.enabled {
            return;
        }
        let base = origin.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        for node in tree {
            let name = match node.name.as_str() {
                "search_space" => "core.search",
                "test_loop" => "core.tester",
                _ => {
                    self.import(&node.children, origin);
                    continue;
                }
            };
            self.spans.push(Span {
                name: name.to_owned(),
                request: self.request,
                parent: self.open.last().copied(),
                start_us: base + node.start_us as f64,
                end_us: base + (node.start_us + node.duration_us) as f64,
            });
        }
    }
}

/// Work counters of one replayed explain.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExplainWork {
    pub mode: String,
    pub checks: u64,
    pub check_pushes: u64,
    pub index_reads: u64,
    pub candidates: u64,
    pub found: bool,
    pub budget_exhausted: bool,
    pub tester_us: f64,
}

/// Exact counters of a replay; identical for two replays of one seed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    pub explains: u64,
    pub recommends: u64,
    pub writes: u64,
    pub session_hits: u64,
    pub session_misses: u64,
    pub column_hits: u64,
    pub column_misses: u64,
    pub forward_push_calls: u64,
    pub forward_pushes: u64,
    pub reverse_push_calls: u64,
    pub reverse_pushes: u64,
    pub checks: u64,
    pub check_pushes: u64,
    pub index_reads: u64,
    pub candidates: u64,
    pub found: u64,
    pub budget_exhausted: u64,
    pub kernel_bytes: u64,
}

/// One replayed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Setup,
    Read(Request),
    /// Index into `Inputs::feedback`.
    Write(usize),
}

/// The replay sequence of a workload: set-ups, the warm-up, the reads in
/// the order the HTTP run sends them, and the feedback batches.
pub fn ops(inputs: &Inputs) -> Vec<Op> {
    let mut ops = vec![Op::Setup; SETUPS];
    ops.extend(inputs.warmup.iter().map(|&r| Op::Read(r)));
    match inputs.workload {
        Workload::FeedbackLive => {
            // The nominal interleaving of the HTTP run: the hot plan read
            // in a cycle, a batch published every few reads.
            let mut reads = inputs.plan.iter().cycle();
            for b in 0..inputs.feedback.len() {
                for _ in 0..inputs.replay_reads_per_write {
                    ops.push(Op::Read(*reads.next().expect("plan is not empty")));
                }
                ops.push(Op::Write(b));
            }
        }
        Workload::PaperOpen | Workload::ScaleCold => {
            ops.extend(
                inputs
                    .passes
                    .iter()
                    .flatten()
                    .map(|&p| Op::Read(inputs.plan[p])),
            );
            ops.extend((0..inputs.feedback.len()).map(Op::Write));
        }
    }
    ops
}

/// Mutable serving state of a replay, as the server holds it.
struct State<'a> {
    inputs: &'a Inputs,
    live: Option<LiveGraph>,
    sessions: EpochCache<u32, Arc<UserArtifacts>>,
    columns: EpochCache<u32, Arc<ReversePush>>,
    ws: PushWorkspace,
    counters: Counters,
    work: Vec<ExplainWork>,
    apply_ms: Vec<f64>,
    rec: Recorder,
    traced: bool,
}

/// What a replay produced.
pub struct Replay {
    pub spans: Vec<Span>,
    pub counters: Counters,
    pub work: Vec<ExplainWork>,
    /// `LiveGraph::apply` per published batch.
    pub apply_ms: Vec<f64>,
    /// Wall time of each op.
    pub op_ms: Vec<f64>,
}

/// Replays the first `limit` ops of `inputs`, traced or not.
pub fn replay(
    inputs: &Inputs,
    graph_file: &std::path::Path,
    limit: usize,
    traced: bool,
) -> Result<Replay, String> {
    let mut st = State {
        inputs,
        live: None,
        sessions: EpochCache::new(crate::world::SESSION_CAPACITY),
        columns: EpochCache::new(256),
        ws: PushWorkspace::new(0),
        counters: Counters::default(),
        work: Vec::new(),
        apply_ms: Vec::new(),
        rec: Recorder::new(traced),
        traced,
    };
    let mut op_ms = Vec::new();
    for (i, op) in ops(inputs).into_iter().take(limit).enumerate() {
        st.rec.request = i as u64 + 1;
        let t = Instant::now();
        match op {
            Op::Setup => setup(&mut st, graph_file)?,
            Op::Read(Request::Explain(q)) => explain(&mut st, q)?,
            Op::Read(Request::Recommend { user }) => recommend(&mut st, user)?,
            Op::Write(b) => write(&mut st, b)?,
        }
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Replay {
        spans: st.rec.spans,
        counters: st.counters,
        work: st.work,
        apply_ms: st.apply_ms,
        op_ms,
    })
}

fn setup(st: &mut State, graph_file: &std::path::Path) -> Result<(), String> {
    let root = st.rec.begin("serve.setup");
    let format = st.inputs.format;
    let graph: Hin = st.rec.span("hin.graph_load", || -> Result<Hin, String> {
        match format {
            GraphFormat::EdgeList => {
                let text = std::fs::read_to_string(graph_file).map_err(|e| e.to_string())?;
                emigre_hin::io::from_edge_list(&text).map_err(|e| e.to_string())
            }
            GraphFormat::Snapshot => emigre_hin::Snapshot::open(graph_file)
                .map(|s| s.to_hin())
                .map_err(|e| e.to_string()),
        }
    })?;
    let model = st.inputs.cfg.rec.ppr.transition;
    let kernel = st
        .rec
        .span("ppr.kernel_build", || TransitionCsr::build(&graph, model));
    st.counters.kernel_bytes = kernel.heap_bytes() as u64;
    st.live = Some(LiveGraph::new(Arc::new(graph), Arc::new(kernel)));
    st.sessions = EpochCache::new(crate::world::SESSION_CAPACITY);
    st.columns = EpochCache::new(256);
    st.rec.end(root);
    Ok(())
}

/// The user's artefacts from the session cache, built part by part on a
/// miss exactly as `UserArtifacts::build` does.
fn artifacts(
    st: &mut State,
    snap: &emigre_serve::GraphEpoch,
    user: emigre_hin::NodeId,
) -> Result<Arc<UserArtifacts>, String> {
    let cached = st
        .rec
        .span("serve.cache", || st.sessions.get_at(&user.0, snap.epoch));
    if let Some(hit) = cached {
        st.counters.session_hits += 1;
        return Ok(hit);
    }
    st.counters.session_misses += 1;
    let inputs = st.inputs;
    let cfg = &inputs.cfg;
    let ctx_span = st.rec.begin("core.context");
    let kernel = Arc::clone(&snap.kernel);
    let push = st.rec.span("ppr.forward_push", || {
        ForwardPush::compute_kernel(&*kernel, &cfg.rec.ppr, user)
    });
    st.counters.forward_push_calls += 1;
    st.counters.forward_pushes += push.pushes as u64;
    let graph = &*snap.graph;
    let rec_list = st.rec.span("rec.rec_list", || {
        let floor = emigre_core::tester::score_floor(cfg);
        let candidates = PprRecommender::new(cfg.rec)
            .candidates(graph, user)
            .into_iter()
            .filter(|n| push.estimates[n.index()] > floor);
        RecList::from_scores(&push.estimates, candidates, cfg.target_list_size)
    });
    let rec = rec_list
        .top()
        .ok_or_else(|| format!("user {} has no recommendation", user.0))?;
    let to_rec = st.rec.span("ppr.reverse_push", || {
        ReversePush::compute_kernel(&*kernel, &cfg.rec.ppr, rec)
    });
    st.counters.reverse_push_calls += 1;
    st.counters.reverse_pushes += to_rec.pushes as u64;
    let cand_base = CandidateIndex::build(graph, cfg.rec.item_type, user);
    let art = Arc::new(UserArtifacts {
        user,
        kernel,
        user_push: Arc::new(push),
        rec,
        rec_list,
        ppr_to_rec: Arc::new(to_rec),
        cand_base,
    });
    st.rec.end(ctx_span);
    let insert = Arc::clone(&art);
    st.rec.span("serve.cache", || {
        st.sessions.insert_at(user.0, snap.epoch, insert)
    });
    Ok(art)
}

fn pin(st: &State) -> Result<Arc<emigre_serve::GraphEpoch>, String> {
    Ok(st.live.as_ref().ok_or("replay read before set-up")?.pin())
}

fn explain(st: &mut State, q: crate::world::Question) -> Result<(), String> {
    let root = st.rec.begin("serve.explain");
    let snap = pin(st)?;
    let art = artifacts(st, &snap, q.user)?;
    let inputs = st.inputs;
    let cfg = &inputs.cfg;
    let graph = &*snap.graph;
    st.rec
        .span("core.context", || {
            WhyNotQuestion::validate(graph, cfg, q.user, q.wni, Some(art.rec))
        })
        .map_err(|e| format!("replayed question is invalid: {e}"))?;
    let cached = st
        .rec
        .span("serve.cache", || st.columns.get_at(&q.wni.0, snap.epoch));
    let col = match cached {
        Some(c) => {
            st.counters.column_hits += 1;
            c
        }
        None => {
            st.counters.column_misses += 1;
            let col = st.rec.span("ppr.reverse_push", || {
                ReversePush::compute_kernel(&*snap.kernel, &cfg.rec.ppr, q.wni)
            });
            st.counters.reverse_push_calls += 1;
            st.counters.reverse_pushes += col.pushes as u64;
            let col = Arc::new(col);
            let insert = Arc::clone(&col);
            st.rec.span("serve.cache", || {
                st.columns.insert_at(q.wni.0, snap.epoch, insert)
            });
            col
        }
    };
    let obs = if st.traced {
        ObsHandle::enabled()
    } else {
        ObsHandle::disabled()
    };
    let obs_origin = Instant::now();
    let ws = std::mem::replace(&mut st.ws, PushWorkspace::new(0));
    let ctx = st
        .rec
        .span("core.context", || {
            ExplainContext::from_artifacts(graph, cfg.clone(), &art, q.wni, col, ws, obs.clone())
        })
        .map_err(|e| format!("replayed question is invalid: {e}"))?;
    let ex = st.rec.begin("core.explain");
    let outcome = Explainer::explain_with_context(&ctx, q.method);
    st.rec.import(&obs.span_tree(), obs_origin);
    st.rec.end(ex);
    st.ws = ctx.into_workspace();
    st.rec.end(root);

    let c: CounterSnapshot = obs.counters();
    let candidates = obs.trace().map_or(0, |t| t.candidates.len() as u64);
    let tester_us = obs
        .span_tree()
        .iter()
        .flat_map(|s| s.children.iter())
        .filter(|s| s.name == "test_loop")
        .map(|s| s.duration_us as f64)
        .sum();
    let work = ExplainWork {
        mode: match q.method.mode() {
            Some(Mode::Add) => "add".into(),
            Some(Mode::Remove) => "remove".into(),
            None => "combined".into(),
        },
        checks: c.checks,
        check_pushes: c.forward_pushes,
        index_reads: c.candidate_index_hits,
        candidates,
        found: outcome.is_ok(),
        budget_exhausted: matches!(
            &outcome,
            Err(f) if matches!(f.reason, FailureReason::BudgetExhausted { .. })
        ),
        tester_us,
    };
    let k = &mut st.counters;
    k.explains += 1;
    k.checks += work.checks;
    k.check_pushes += work.check_pushes;
    k.index_reads += work.index_reads;
    k.candidates += work.candidates;
    k.found += work.found as u64;
    k.budget_exhausted += work.budget_exhausted as u64;
    st.work.push(work);
    Ok(())
}

fn recommend(st: &mut State, user: emigre_hin::NodeId) -> Result<(), String> {
    let root = st.rec.begin("serve.recommend");
    let snap = pin(st)?;
    let art = artifacts(st, &snap, user)?;
    let inputs = st.inputs;
    let cfg = &inputs.cfg;
    st.rec.span("rec.rec_list", || {
        recommend_from_push(&*snap.graph, cfg, user, &art.user_push, RECOMMEND_K)
    });
    st.counters.recommends += 1;
    st.rec.end(root);
    Ok(())
}

fn write(st: &mut State, batch: usize) -> Result<(), String> {
    let root = st.rec.begin("serve.feedback");
    let live = st.live.as_ref().ok_or("replay write before set-up")?;
    let inputs = st.inputs;
    let events = &inputs.feedback[batch];
    let bidirectional = st.inputs.cfg.bidirectional_actions;
    let t = Instant::now();
    let out = st.rec.span("serve.live", || {
        events_to_delta(events, &live.pin().graph, bidirectional)
            .and_then(|delta| live.apply(&delta, None))
    });
    st.apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
    out.map_err(|e| format!("replayed feedback batch {batch} rejected: {e}"))?;
    st.counters.writes += 1;
    st.rec.end(root);
    Ok(())
}

/// The two halves of `LiveGraph::apply`, timed on their own over the
/// replayed batches: `GraphDelta::apply_to` and the delta-bounded kernel
/// rebuild.
fn apply_parts(inputs: &Inputs) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut graph = inputs.graph.clone();
    let mut kernel = TransitionCsr::build(&graph, inputs.cfg.rec.ppr.transition);
    let (mut delta_ms, mut rebuild_ms) = (Vec::new(), Vec::new());
    for batch in &inputs.feedback {
        let delta = events_to_delta(batch, &graph, inputs.cfg.bidirectional_actions)
            .map_err(|e| format!("{e:?}"))?;
        let t = Instant::now();
        let next = delta.apply_to(&graph).map_err(|e| e.to_string())?;
        delta_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        kernel = kernel.rebuild_rows(&next, &delta.touched_sources());
        rebuild_ms.push(t.elapsed().as_secs_f64() * 1e3);
        graph = next;
    }
    Ok((delta_ms, rebuild_ms))
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerRow {
    pub name: String,
    pub calls: u64,
    pub self_ms: f64,
}

/// Self time per span name, and the reconciliation of every request.
pub struct Layers {
    pub rows: BTreeMap<String, LayerRow>,
    /// Per-call self times of each span name, for percentiles.
    pub per_call_ms: BTreeMap<String, Vec<f64>>,
    /// Sum of root-span durations.
    pub total_ms: f64,
    /// Sum of root-span self times (time no layer span covers).
    pub unexplained_ms: f64,
    /// Largest |Σ self − root duration| over requests (must be ~0).
    pub worst_residual_ms: f64,
    /// Per explain request, `core.context` self time.
    pub context_ms_per_explain: Vec<f64>,
}

pub fn layers(spans: &[Span]) -> Layers {
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.end_us - s.start_us;
        }
    }
    let mut rows: BTreeMap<String, LayerRow> = BTreeMap::new();
    let mut per_call_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut per_request: BTreeMap<u64, (f64, f64, f64, bool)> = BTreeMap::new();
    let (mut total, mut unexplained) = (0.0, 0.0);
    for (i, s) in spans.iter().enumerate() {
        let dur = (s.end_us - s.start_us) / 1e3;
        let self_ms = dur - child_ms[i] / 1e3;
        let e = per_request.entry(s.request).or_default();
        e.1 += self_ms;
        if s.parent.is_none() {
            total += dur;
            unexplained += self_ms;
            e.0 += dur;
            e.3 = s.name == "serve.explain";
        } else {
            let row = rows.entry(s.name.clone()).or_insert_with(|| LayerRow {
                name: s.name.clone(),
                ..LayerRow::default()
            });
            row.calls += 1;
            row.self_ms += self_ms;
            per_call_ms.entry(s.name.clone()).or_default().push(self_ms);
            if s.name == "core.context" {
                e.2 += self_ms;
            }
        }
    }
    let worst = per_request
        .values()
        .map(|&(dur, sum, _, _)| (dur - sum).abs())
        .fold(0.0, f64::max);
    Layers {
        rows,
        per_call_ms,
        total_ms: total,
        unexplained_ms: unexplained,
        worst_residual_ms: worst,
        context_ms_per_explain: per_request.values().filter(|v| v.3).map(|v| v.2).collect(),
    }
}

/// One per-layer metric with the sample count and statistic behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerMetric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: u64,
    /// What `value` is: `p50`, `p90`, `mean`, `ratio`, `count`, `bytes`.
    pub stat: String,
}

fn m(name: &str, unit: &str, value: f64, samples: u64, stat: &str) -> LayerMetric {
    LayerMetric {
        name: name.into(),
        unit: unit.into(),
        value,
        samples,
        stat: stat.into(),
    }
}

/// A per-call time as its mean: layer costs are sums of self time, and
/// a median would jump between modes (e.g. remove vs add search spaces).
fn per_call(name: &str, s: &Summary) -> LayerMetric {
    m(name, "ms", s.mean, s.samples, "mean")
}

fn row_summary(l: &Layers, name: &str) -> Summary {
    l.per_call_ms
        .get(name)
        .map(|v| summarize(v))
        .unwrap_or_default()
}

/// What the traced run writes out: spans, layer rows, counters, metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceFile {
    pub workload: String,
    pub seed: u64,
    pub counters: Counters,
    pub layers: Vec<LayerRow>,
    pub total_ms: f64,
    pub unexplained_ms: f64,
    pub metrics: Vec<LayerMetric>,
    pub spans: Vec<Span>,
}

/// The replay-side per-layer metrics of a workload (the `serve` front
/// end, scheduler and cache metrics come from the HTTP run).
pub struct TracedRun {
    pub file: TraceFile,
    /// Per-mode CHECK work next to a fresh forward push, for the report.
    pub shape: String,
    pub metrics: Vec<LayerMetric>,
    pub worst_residual_ms: f64,
}

/// Runs the traced replay plus its untraced twin (for the overhead) and
/// derives every replay-side metric.
pub fn run(inputs: &Inputs, graph_file: &std::path::Path) -> Result<TracedRun, String> {
    let all = ops(inputs);
    // The overhead window: the read/write ops after set-up and warm-up,
    // up to about OVERHEAD_MS of work, replayed traced and untraced
    // alternately (T P T P) so drift on the machine falls on both sides.
    let start = SETUPS + inputs.warmup.len();
    let traced = replay(inputs, graph_file, all.len(), true)?;
    let mut end = start;
    let mut spent = 0.0;
    while end < all.len() && spent < OVERHEAD_MS {
        spent += traced.op_ms[end];
        end += 1;
    }
    let window = |r: &Replay| r.op_ms[start..end].iter().sum::<f64>();
    let plain_a = window(&replay(inputs, graph_file, end, false)?);
    let traced_b = window(&replay(inputs, graph_file, end, true)?);
    let plain_b = window(&replay(inputs, graph_file, end, false)?);
    let plain_ms = (plain_a + plain_b) / 2.0;
    let traced_ms = (window(&traced) + traced_b) / 2.0;
    let overhead_pct = 100.0 * ratio(traced_ms - plain_ms, plain_ms);
    let k = end - start;

    let l = layers(&traced.spans);
    let (delta_ms, rebuild_ms) = apply_parts(inputs)?;
    let c = &traced.counters;
    let mode_ms = |mode: &str| {
        let (us, checks) = traced
            .work
            .iter()
            .filter(|w| w.mode == mode)
            .fold((0.0, 0u64), |(us, n), w| (us + w.tester_us, n + w.checks));
        (ratio(us / 1e3, checks as f64), checks)
    };
    let (add_ms, add_checks) = mode_ms("add");
    let (remove_ms, remove_checks) = mode_ms("remove");
    let mut shape = format!(
        "fresh forward push: {:.0} pushes (mean of {} calls)\n",
        ratio(c.forward_pushes as f64, c.forward_push_calls as f64),
        c.forward_push_calls
    );
    for mode in ["add", "remove"] {
        let (n, checks, pushes, reads) = traced
            .work
            .iter()
            .filter(|w| w.mode == mode)
            .fold((0u64, 0u64, 0u64, 0u64), |(n, c, p, r), w| {
                (n + 1, c + w.checks, p + w.check_pushes, r + w.index_reads)
            });
        let (ms, _) = mode_ms(mode);
        shape += &format!(
            "{mode} CHECKs: {checks} over {n} explain(s), {ms:.2} ms, {:.0} pushes and {:.0} index reads per CHECK\n",
            ratio(pushes as f64, checks as f64),
            ratio(reads as f64, checks as f64)
        );
    }
    let explains = c.explains;
    let metrics = vec![
        per_call("serve.epoch_apply_ms", &summarize(&traced.apply_ms)),
        per_call("hin.graph_load_ms", &row_summary(&l, "hin.graph_load")),
        per_call("hin.delta_apply_ms", &summarize(&delta_ms)),
        per_call("ppr.kernel_build_ms", &row_summary(&l, "ppr.kernel_build")),
        per_call("ppr.rebuild_rows_ms", &summarize(&rebuild_ms)),
        per_call("ppr.forward_push_ms", &row_summary(&l, "ppr.forward_push")),
        m(
            "ppr.forward_pushes",
            "count",
            ratio(c.forward_pushes as f64, c.forward_push_calls as f64),
            c.forward_push_calls,
            "mean",
        ),
        per_call("ppr.reverse_push_ms", &row_summary(&l, "ppr.reverse_push")),
        m(
            "ppr.reverse_pushes",
            "count",
            ratio(c.reverse_pushes as f64, c.reverse_push_calls as f64),
            c.reverse_push_calls,
            "mean",
        ),
        m(
            "ppr.kernel_bytes",
            "bytes",
            c.kernel_bytes as f64,
            1,
            "bytes",
        ),
        per_call("rec.rec_list_ms", &row_summary(&l, "rec.rec_list")),
        per_call("core.context_ms", &summarize(&l.context_ms_per_explain)),
        per_call("core.search_ms", &row_summary(&l, "core.search")),
        m(
            "core.candidates",
            "count",
            ratio(c.candidates as f64, explains as f64),
            explains,
            "mean",
        ),
        m(
            "core.checks_per_explain",
            "count",
            ratio(c.checks as f64, explains as f64),
            explains,
            "mean",
        ),
        m("core.check_add_ms", "ms", add_ms, add_checks, "mean"),
        m(
            "core.check_remove_ms",
            "ms",
            remove_ms,
            remove_checks,
            "mean",
        ),
        m(
            "core.pushes_per_check",
            "count",
            ratio(c.check_pushes as f64, c.checks as f64),
            c.checks,
            "mean",
        ),
        m(
            "core.index_reads_per_check",
            "count",
            ratio(c.index_reads as f64, c.checks as f64),
            c.checks,
            "mean",
        ),
        m(
            "core.budget_exhausted_share",
            "ratio",
            ratio(c.budget_exhausted as f64, explains as f64),
            explains,
            "ratio",
        ),
        m(
            "serve.session_hits",
            "count",
            c.session_hits as f64,
            c.session_hits + c.session_misses,
            "count",
        ),
        m(
            "serve.column_hits",
            "count",
            c.column_hits as f64,
            c.column_hits + c.column_misses,
            "count",
        ),
        m(
            "obs.trace_overhead_pct",
            "%",
            overhead_pct,
            k as u64,
            "ratio",
        ),
        m(
            "obs.unexplained_share",
            "ratio",
            ratio(l.unexplained_ms, l.total_ms),
            traced.op_ms.len() as u64,
            "ratio",
        ),
    ];
    let file = TraceFile {
        workload: inputs.workload.name().into(),
        seed: inputs.seed,
        counters: traced.counters.clone(),
        layers: l.rows.values().cloned().collect(),
        total_ms: l.total_ms,
        unexplained_ms: l.unexplained_ms,
        metrics: metrics.clone(),
        spans: traced.spans,
    };
    Ok(TracedRun {
        file,
        shape,
        metrics,
        worst_residual_ms: l.worst_residual_ms,
    })
}

/// Per-layer diff of two trace files: self time and counters, so a change
/// can show where its saving appears.
pub fn diff(old: &TraceFile, new: &TraceFile) -> String {
    let mut out = format!(
        "workload {} (seed {} -> {})\n{:<24} {:>12} {:>12} {:>9} {:>8} {:>8}\n",
        new.workload,
        old.seed,
        new.seed,
        "layer",
        "old self ms",
        "new self ms",
        "change",
        "calls",
        "calls"
    );
    let mut names: Vec<&str> = old
        .layers
        .iter()
        .chain(&new.layers)
        .map(|r| r.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let find = |f: &TraceFile, n: &str| {
        f.layers
            .iter()
            .find(|r| r.name == n)
            .cloned()
            .unwrap_or_default()
    };
    let pct = |a: f64, b: f64| {
        if a > 0.0 {
            format!("{:+.1}%", 100.0 * (b - a) / a)
        } else {
            "n/a".into()
        }
    };
    for n in names {
        let (a, b) = (find(old, n), find(new, n));
        out += &format!(
            "{n:<24} {:>12.3} {:>12.3} {:>9} {:>8} {:>8}\n",
            a.self_ms,
            b.self_ms,
            pct(a.self_ms, b.self_ms),
            a.calls,
            b.calls
        );
    }
    out += &format!(
        "{:<24} {:>12.3} {:>12.3} {:>9}\n",
        "(unexplained)",
        old.unexplained_ms,
        new.unexplained_ms,
        pct(old.unexplained_ms, new.unexplained_ms)
    );
    out += &format!(
        "{:<24} {:>12.3} {:>12.3} {:>9}\n\n{:<28} {:>14} {:>14}\n",
        "(total)",
        old.total_ms,
        new.total_ms,
        pct(old.total_ms, new.total_ms),
        "metric",
        "old",
        "new"
    );
    for mb in &new.metrics {
        let a = old.metrics.iter().find(|ma| ma.name == mb.name);
        out += &format!(
            "{:<28} {:>14.4} {:>14.4} {}\n",
            mb.name,
            a.map_or(f64::NAN, |a| a.value),
            mb.value,
            mb.unit
        );
    }
    let (a, b) = (&old.counters, &new.counters);
    out += &format!(
        "\ncounters identical: {}\n",
        if a == b { "yes" } else { "no" }
    );
    out
}
