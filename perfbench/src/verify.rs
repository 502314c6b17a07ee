//! The correctness gate: every served answer is compared field by field
//! with the single-threaded reference (`reference_explain` /
//! `reference_recommend`) on the graph of the epoch it was served from.

use crate::world::{Request, RECOMMEND_K};
use emigre_core::{EmigreConfig, ExplainFailure, Explanation};
use emigre_hin::Hin;
use emigre_obs::StageLatencies;
use emigre_serve::{events_to_delta, reference_explain, reference_recommend, FeedbackEvent};
use serde::Deserialize;

/// What the reference says a request must answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Found(Explanation),
    NotFound(ExplainFailure),
    Invalid,
    Recommend(Vec<(u32, f64)>),
}

/// The reference answer of `req` on `graph`.
pub fn expected(graph: &Hin, cfg: &EmigreConfig, req: &Request) -> Expected {
    match *req {
        Request::Explain(q) => match reference_explain(graph, cfg, q.user, q.wni, q.method) {
            Ok(Ok(e)) => Expected::Found(e),
            Ok(Err(f)) => Expected::NotFound(f),
            Err(_) => Expected::Invalid,
        },
        Request::Recommend { user } => match reference_recommend(graph, cfg, user, RECOMMEND_K) {
            Ok(items) => Expected::Recommend(items.iter().map(|&(n, s)| (n.0, s)).collect()),
            Err(_) => Expected::Invalid,
        },
    }
}

/// Reference answers of `reqs` on `graph`, computed on `threads` threads.
pub fn expected_all(
    graph: &Hin,
    cfg: &EmigreConfig,
    reqs: &[Request],
    threads: usize,
) -> Vec<Expected> {
    let threads = threads.clamp(1, reqs.len().max(1));
    let mut out: Vec<Option<Expected>> = vec![None; reqs.len()];
    std::thread::scope(|s| {
        let chunks: Vec<_> = out
            .chunks_mut(reqs.len().div_ceil(threads).max(1))
            .zip(reqs.chunks(reqs.len().div_ceil(threads).max(1)))
            .map(|(slots, reqs)| {
                s.spawn(move || {
                    for (slot, req) in slots.iter_mut().zip(reqs) {
                        *slot = Some(expected(graph, cfg, req));
                    }
                })
            })
            .collect();
        for h in chunks {
            h.join().expect("reference thread panicked");
        }
    });
    out.into_iter()
        .map(|e| e.expect("every reference computed"))
        .collect()
}

#[derive(Clone, Deserialize)]
struct WireItem {
    item: u32,
    score: f64,
}

/// Every `/explain` and `/recommend` body shape overlaid; absent fields
/// parse to `None`.
#[derive(Clone, Deserialize)]
struct WireRead {
    status: Option<String>,
    request_id: Option<u64>,
    explanation: Option<Explanation>,
    failure: Option<ExplainFailure>,
    items: Option<Vec<WireItem>>,
    stages: Option<StageLatencies>,
    epoch: Option<u64>,
    error: Option<String>,
}

/// The telemetry of an answer that passed the gate.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    pub epoch: Option<u64>,
    pub stages: StageLatencies,
    /// `Some(found)` for a valid explain question.
    pub found: Option<bool>,
}

/// What a served read reported, before it is checked.
#[derive(Clone)]
pub struct Served {
    pub status: u16,
    pub epoch: Option<u64>,
    wire: Option<WireRead>,
    body_head: String,
}

/// Parses a read answer far enough to learn its epoch.
pub fn parse_read(status: u16, body: &str) -> Served {
    let wire: Option<WireRead> = serde_json::from_str(body).ok();
    Served {
        status,
        epoch: wire.as_ref().and_then(|w| w.epoch),
        wire,
        body_head: body.chars().take(200).collect(),
    }
}

/// Field-by-field comparison of one served read with its reference.
pub fn check(served: &Served, expected: &Expected) -> Result<Checked, String> {
    let want_status = if *expected == Expected::Invalid {
        400
    } else {
        200
    };
    if served.status != want_status {
        return Err(format!(
            "status {} (expected {want_status}): {}",
            served.status, served.body_head
        ));
    }
    let w = served
        .wire
        .as_ref()
        .ok_or_else(|| format!("unparseable body: {}", served.body_head))?;
    if !matches!(w.request_id, Some(id) if id >= 1) {
        return Err(format!("missing request_id: {}", served.body_head));
    }
    let mut out = Checked {
        epoch: w.epoch,
        stages: w.stages.unwrap_or_default(),
        found: None,
    };
    if *expected == Expected::Invalid {
        return if w.error.as_deref() == Some("invalid_question") {
            Ok(out)
        } else {
            Err(format!("expected invalid_question: {}", served.body_head))
        };
    }
    if w.stages.is_none() || w.epoch.is_none() {
        return Err(format!("missing stages or epoch: {}", served.body_head));
    }
    let ok = match expected {
        Expected::Found(e) => {
            out.found = Some(true);
            w.status.as_deref() == Some("ok") && w.explanation.as_ref() == Some(e)
        }
        Expected::NotFound(f) => {
            out.found = Some(false);
            w.status.as_deref() == Some("failure") && w.failure.as_ref() == Some(f)
        }
        Expected::Recommend(items) => {
            let got: Option<Vec<(u32, f64)>> = w
                .items
                .as_ref()
                .map(|v| v.iter().map(|i| (i.item, i.score)).collect());
            w.status.as_deref() == Some("ok") && got.as_ref() == Some(items)
        }
        Expected::Invalid => unreachable!("handled above"),
    };
    if ok {
        Ok(out)
    } else {
        Err(format!(
            "answer diverges from the reference: {}",
            served.body_head
        ))
    }
}

/// Applies one acknowledged feedback batch to `graph`, as the server did.
pub fn apply_batch(
    graph: &Hin,
    cfg: &EmigreConfig,
    batch: &[FeedbackEvent],
) -> Result<Hin, String> {
    events_to_delta(batch, graph, cfg.bidirectional_actions)
        .map_err(|e| format!("feedback batch does not convert: {e:?}"))?
        .apply_to(graph)
        .map_err(|e| format!("feedback batch does not apply: {e}"))
}

/// A read answered while feedback epochs were being published.
pub struct EpochRead {
    /// Index into the plan.
    pub plan_idx: usize,
    pub served: Served,
}

/// Checks reads served on a moving graph: walks the epoch chain in order,
/// holding one graph at a time, and checks each read against the reference
/// on the epoch it reports. A 400 carries no epoch; it must be the
/// reference answer on at least one epoch the read could have seen.
/// Returns one divergence message per failed read, and the checked reads
/// (in input order, `None` where the read failed).
pub fn check_on_epochs(
    base: &Hin,
    cfg: &EmigreConfig,
    plan: &[Request],
    batches: &[Vec<FeedbackEvent>],
    reads: &[EpochRead],
    threads: usize,
) -> Result<(Vec<Option<Checked>>, Vec<String>), String> {
    let mut results: Vec<Option<Checked>> = (0..reads.len()).map(|_| None).collect();
    let mut errors = Vec::new();
    let mut by_epoch: Vec<Vec<usize>> = vec![Vec::new(); batches.len() + 1];
    let mut invalid: Vec<usize> = Vec::new();
    for (i, r) in reads.iter().enumerate() {
        match (r.served.status, r.served.epoch) {
            (400, _) => invalid.push(i),
            (_, Some(e)) if (e as usize) < by_epoch.len() => by_epoch[e as usize].push(i),
            (_, e) => errors.push(format!(
                "{} {}: unusable epoch {e:?}: {}",
                plan[r.plan_idx].path(),
                plan[r.plan_idx].body(),
                r.served.body_head
            )),
        }
    }
    let mut graph = base.clone();
    for epoch in 0..by_epoch.len() {
        if epoch > 0 {
            graph = apply_batch(&graph, cfg, &batches[epoch - 1])?;
        }
        // One reference per distinct request on this epoch.
        let mut distinct: Vec<usize> = by_epoch[epoch].iter().map(|&i| reads[i].plan_idx).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let reqs: Vec<Request> = distinct.iter().map(|&p| plan[p]).collect();
        let expect = expected_all(&graph, cfg, &reqs, threads);
        for &i in &by_epoch[epoch] {
            let slot = distinct
                .binary_search(&reads[i].plan_idx)
                .expect("collected above");
            match check(&reads[i].served, &expect[slot]) {
                Ok(c) => results[i] = Some(c),
                Err(d) => errors.push(format!(
                    "{} {} on epoch {epoch}: {d}",
                    plan[reads[i].plan_idx].path(),
                    plan[reads[i].plan_idx].body()
                )),
            }
        }
        for &i in &invalid {
            if results[i].is_none()
                && expected(&graph, cfg, &plan[reads[i].plan_idx]) == Expected::Invalid
            {
                results[i] = check(&reads[i].served, &Expected::Invalid).ok();
            }
        }
    }
    for &i in &invalid {
        if results[i].is_none() {
            errors.push(format!(
                "{} {} -> 400, but the question is valid on every epoch",
                plan[reads[i].plan_idx].path(),
                plan[reads[i].plan_idx].body()
            ));
        }
    }
    Ok((results, errors))
}

/// Counts the server's event-log lines; every request the benchmark sent
/// to the measured server must have exactly one.
pub fn event_log_lines(path: &std::path::Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading event log {}: {e}", path.display()))?;
    for (i, line) in text.lines().enumerate() {
        serde_json::from_str::<emigre_serve::RequestEvent>(line)
            .map_err(|e| format!("event log line {}: {e}", i + 1))?;
    }
    Ok(text.lines().count() as u64)
}
