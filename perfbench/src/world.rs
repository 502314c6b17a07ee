//! Workload inputs, made from the seed alone: the graph the server is
//! given, the requests it is sent, and the feedback batches it is posted.

use crate::stats::Rng;
use crate::verify::{expected_all, Expected};
use emigre_core::{EmigreConfig, Method};
use emigre_hin::{GraphView, Hin, NodeId};
use emigre_ppr::{PprConfig, TransitionModel};
use emigre_rec::RecConfig;
use emigre_serve::{reference_explain, reference_recommend, FeedbackEvent};
use std::collections::HashSet;

/// `k` of every `/recommend` the benchmark sends (loadgen's default).
pub const RECOMMEND_K: usize = 5;
/// The server's session-cache capacity (`ServiceConfig::default`).
pub const SESSION_CAPACITY: usize = 64;
/// CHECK budget of the admission screen for `scale-cold` and
/// `feedback-live` questions (see [`screen_questions`]).
pub const SCREEN_CHECKS: usize = 4;
/// Feedback batches posted after the read window of the read-only
/// workloads, so every workload reports feedback latency.
pub const TAIL_FEEDBACK_BATCHES: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperOpen,
    ScaleCold,
    FeedbackLive,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperOpen,
        Workload::ScaleCold,
        Workload::FeedbackLive,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperOpen => "paper-open",
            Workload::ScaleCold => "scale-cold",
            Workload::FeedbackLive => "feedback-live",
        }
    }

    /// Latency limit of an `/explain` answer, for `slo_share`.
    pub fn slo_ms(self) -> f64 {
        match self {
            Workload::PaperOpen => 2500.0,
            Workload::ScaleCold => 2000.0,
            Workload::FeedbackLive => 250.0,
        }
    }
}

/// A Why-Not question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Question {
    pub user: NodeId,
    pub wni: NodeId,
    pub method: Method,
}

/// One read the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    Explain(Question),
    Recommend { user: NodeId },
}

impl Request {
    pub fn path(&self) -> &'static str {
        match self {
            Request::Explain(_) => "/explain",
            Request::Recommend { .. } => "/recommend",
        }
    }

    pub fn body(&self) -> String {
        match self {
            Request::Explain(q) => format!(
                "{{\"user\":{},\"why_not\":{},\"method\":\"{}\"}}",
                q.user.0,
                q.wni.0,
                q.method.label()
            ),
            Request::Recommend { user } => {
                format!("{{\"user\":{},\"k\":{RECOMMEND_K}}}", user.0)
            }
        }
    }

    pub fn is_explain(&self) -> bool {
        matches!(self, Request::Explain(_))
    }
}

/// How the server loads the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// `emigre-hin v1` edge-list text, `--graph`.
    EdgeList,
    /// Binary snapshot, `--graph-snapshot`.
    Snapshot,
}

/// Every input of one workload run.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// The graph exactly as the server loads it (parsed back from the
    /// written file), so reference and server see the same graph.
    pub graph: Hin,
    pub cfg: EmigreConfig,
    pub format: GraphFormat,
    /// The serialised graph file's bytes.
    pub file_bytes: Vec<u8>,
    /// Untimed reads sent before the window (fills the caches).
    pub warmup: Vec<Request>,
    /// Reference answers of `warmup` on the initial graph.
    pub warmup_expected: Vec<Expected>,
    /// The distinct reads of one pass.
    pub plan: Vec<Request>,
    /// Reference answers of `plan` on the initial graph.
    pub expected: Vec<Expected>,
    /// Per pass, the order the plan is sent in (indices into `plan`).
    pub passes: Vec<Vec<usize>>,
    /// Feedback batches, in publish order: batch `i` publishes epoch `i+1`.
    pub feedback: Vec<Vec<FeedbackEvent>>,
    /// When each batch is due, in writer intervals from the window's start
    /// (`feedback-live` only): batch `i` at `i` plus a seeded offset in
    /// [0, 1), so the writer does not lock onto the reader's rhythm.
    pub feedback_due: Vec<f64>,
    /// Open-loop offered rate in requests per second (`paper-open` only).
    pub offered_rps: f64,
    /// Feedback batches per second posted beside the reads
    /// (`feedback-live` only).
    pub feedback_rps: f64,
    /// Reads between two writes in the in-process replay of
    /// `feedback-live` (the nominal read:write ratio of the HTTP run).
    pub replay_reads_per_write: usize,
}

impl Inputs {
    /// Distinct users the plan asks about.
    pub fn plan_users(&self) -> usize {
        let users: HashSet<u32> = self
            .plan
            .iter()
            .map(|r| match r {
                Request::Explain(q) => q.user.0,
                Request::Recommend { user } => user.0,
            })
            .collect();
        users.len()
    }
}

/// The server's configuration for a graph: mirrors the CLI's `config_for`
/// (`item` nodes recommendable, `rated` edges actionable, weighted
/// transitions, ε = 1e-8, default `max_checks`).
pub fn serve_config(g: &Hin) -> Result<EmigreConfig, String> {
    let item_t = g
        .registry()
        .find_node_type("item")
        .ok_or("graph has no `item` node type")?;
    let rated = g
        .registry()
        .find_edge_type("rated")
        .ok_or("graph has no `rated` edge type")?;
    let ppr = PprConfig::default()
        .with_transition(TransitionModel::Weighted)
        .with_epsilon(1e-8);
    Ok(EmigreConfig::new(
        RecConfig::new(item_t).with_ppr(ppr),
        rated,
    ))
}

/// Size knobs of a workload; [`Shape::standard`] is what the benchmark
/// runs, tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub nodes: usize,
    /// Distinct users asked, one question each: per pass (`feedback-live`)
    /// or per second of `--seconds` (`scale-cold`).
    pub questions: usize,
}

impl Shape {
    pub fn standard(w: Workload) -> Shape {
        match w {
            // The world is fixed; `questions` is unused.
            Workload::PaperOpen => Shape {
                nodes: 470,
                questions: 0,
            },
            // Questions per second of `--seconds`; see `scale_cold`.
            Workload::ScaleCold => Shape {
                nodes: 100_000,
                questions: 7,
            },
            Workload::FeedbackLive => Shape {
                nodes: 10_000,
                questions: 48,
            },
        }
    }
}

/// Builds every input of `workload` from `seed`. `seconds` sets how many
/// passes (closed loop) or arrivals (open loop) one run holds.
pub fn build(workload: Workload, seed: u64, seconds: u64, shape: Shape) -> Result<Inputs, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    match workload {
        Workload::PaperOpen => paper_open(seed, seconds, threads),
        Workload::ScaleCold => scale_cold(seed, seconds, shape, threads),
        Workload::FeedbackLive => feedback_live(seed, seconds, shape, threads),
    }
}

/// Amazon-Lite (loadgen's world, ~470 nodes) with loadgen's request mix:
/// per user one `/recommend` plus `remove_Incremental` on the 2nd and
/// `add_Powerset` on the 3rd item of the user's list. The seed orders the
/// users; the arrivals come at a fixed rate.
fn paper_open(seed: u64, seconds: u64, threads: usize) -> Result<Inputs, String> {
    /// Offered load, requests per second: below the knee of two workers
    /// on this mix.
    const OFFERED_RPS: f64 = 3.0;
    const PER_USER: usize = 3;
    let w = emigre_bench::world(300, 1e-8);
    let text = emigre_hin::io::to_edge_list(&w.hin.graph);
    let graph = emigre_hin::io::from_edge_list(&text).map_err(|e| format!("reparse: {e}"))?;
    let cfg = serve_config(&graph)?;
    let mut plan = Vec::new();
    let mut warmup = Vec::new();
    for &user in &w.hin.users {
        let Ok(list) = reference_recommend(&graph, &cfg, user, RECOMMEND_K) else {
            continue;
        };
        if list.len() < PER_USER {
            continue;
        }
        plan.push(Request::Recommend { user });
        warmup.push(Request::Recommend { user });
        for (i, &(wni, _)) in list.iter().skip(1).take(2).enumerate() {
            let method = if i == 0 {
                Method::RemoveIncremental
            } else {
                Method::AddPowerset
            };
            plan.push(Request::Explain(Question { user, wni, method }));
            // A cheap question on the same pair caches its WNI column.
            warmup.push(Request::Explain(Question {
                user,
                wni,
                method: Method::RemoveIncremental,
            }));
        }
    }
    if plan.is_empty() {
        return Err("paper world has no servable user".into());
    }
    // Each user's requests go out together (recommend, remove, add), so
    // every pass has the same rhythm of cheap and budget-exhausting work.
    let users = plan.len() / PER_USER;
    let arrivals = (seconds as f64 * OFFERED_RPS).round() as usize;
    let n_passes = (arrivals / plan.len()).max(1);
    let mut rng = Rng::new(seed, 1);
    let passes = (0..n_passes)
        .map(|_| {
            let mut order: Vec<usize> = (0..users).collect();
            rng.shuffle(&mut order);
            order
                .into_iter()
                .flat_map(|u| u * PER_USER..(u + 1) * PER_USER)
                .collect()
        })
        .collect();
    let expected = expected_all(&graph, &cfg, &plan, threads);
    let warmup_expected = expected_all(&graph, &cfg, &warmup, threads);
    let feedback = feedback_batches(&graph, &[], TAIL_FEEDBACK_BATCHES, seed)?;
    Ok(Inputs {
        workload: Workload::PaperOpen,
        seed,
        graph,
        cfg,
        format: GraphFormat::EdgeList,
        file_bytes: text.into_bytes(),
        warmup,
        warmup_expected,
        plan,
        expected,
        passes,
        feedback,
        feedback_due: Vec::new(),
        offered_rps: OFFERED_RPS,
        feedback_rps: 0.0,
        replay_reads_per_write: 0,
    })
}

/// The materialised `ScaleGen` world of `nodes` nodes for `seed`.
fn scale_graph(nodes: usize, seed: u64) -> Hin {
    let spec = emigre_data::synth::ScaleSpec::with_total_nodes(nodes, seed);
    emigre_data::synth::ScaleGen::new(spec).materialize_hin()
}

/// 100k-node `ScaleGen` world served from a snapshot; one question per
/// distinct user (more users than the session cache holds), half
/// `remove_Incremental` and half `add_Incremental`, each followed by that
/// user's `/recommend`. A run is one whole pass.
fn scale_cold(seed: u64, seconds: u64, shape: Shape, threads: usize) -> Result<Inputs, String> {
    let built = scale_graph(shape.nodes, seed);
    let image = emigre_hin::snapshot_to_bytes(&built);
    let graph = emigre_hin::Snapshot::from_bytes(image.clone())
        .map_err(|e| format!("snapshot round trip: {e}"))?
        .to_hin();
    let cfg = serve_config(&graph)?;
    // One pass over distinct users, sized to `--seconds` but always more
    // users than the session cache holds.
    let count = (shape.questions * seconds as usize).max(SESSION_CAPACITY + 2);
    let (mut plan, mut expected) = (Vec::new(), Vec::new());
    for q in screen_questions(&graph, &cfg, seed, count, threads)? {
        plan.push(Request::Explain(q.question));
        expected.push(q.explain);
        plan.push(Request::Recommend {
            user: q.question.user,
        });
        expected.push(q.recommend);
    }
    let passes = vec![(0..plan.len()).collect()];
    let feedback = feedback_batches(&graph, &[], TAIL_FEEDBACK_BATCHES, seed)?;
    Ok(Inputs {
        workload: Workload::ScaleCold,
        seed,
        graph,
        cfg,
        format: GraphFormat::Snapshot,
        file_bytes: image,
        warmup: Vec::new(),
        warmup_expected: Vec::new(),
        plan,
        expected,
        passes,
        feedback,
        feedback_due: Vec::new(),
        offered_rps: 0.0,
        feedback_rps: 0.0,
        replay_reads_per_write: 0,
    })
}

/// 10k-node `ScaleGen` world: a hot user set (one `/recommend` and one
/// question each, half `remove_Incremental`, half `add_Incremental`) read
/// in a closed loop, beside a writer posting 2-event batches at a fixed
/// rate to users outside the hot set.
fn feedback_live(seed: u64, seconds: u64, shape: Shape, threads: usize) -> Result<Inputs, String> {
    /// Writer schedule, batches per second.
    const FEEDBACK_RPS: f64 = 10.0;
    let built = scale_graph(shape.nodes, seed);
    let text = emigre_hin::io::to_edge_list(&built);
    let graph = emigre_hin::io::from_edge_list(&text).map_err(|e| format!("reparse: {e}"))?;
    let cfg = serve_config(&graph)?;
    let (mut plan, mut expected, mut hot) = (Vec::new(), Vec::new(), Vec::new());
    for q in screen_questions(&graph, &cfg, seed, shape.questions, threads)? {
        hot.push(q.question.user);
        plan.push(Request::Recommend {
            user: q.question.user,
        });
        expected.push(q.recommend);
        plan.push(Request::Explain(q.question));
        expected.push(q.explain);
    }
    let n_batches = (seconds as f64 * FEEDBACK_RPS).ceil() as usize;
    let feedback = feedback_batches(&graph, &hot, n_batches, seed)?;
    let mut rng = Rng::new(seed, 4);
    let feedback_due = (0..n_batches)
        .map(|i| i as f64 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    Ok(Inputs {
        workload: Workload::FeedbackLive,
        seed,
        graph,
        cfg,
        format: GraphFormat::EdgeList,
        file_bytes: text.into_bytes(),
        warmup: plan.clone(),
        warmup_expected: expected.clone(),
        passes: vec![(0..plan.len()).collect()],
        plan,
        expected,
        feedback,
        feedback_due,
        offered_rps: 0.0,
        feedback_rps: FEEDBACK_RPS,
        replay_reads_per_write: 4,
    })
}

/// A screened question with its reference answers on the served graph.
pub struct Screened {
    pub question: Question,
    pub explain: Expected,
    pub recommend: Expected,
}

/// Picks `count` questions from distinct users in a seeded order, half
/// `remove_Incremental` and half `add_Incremental`: the Why-Not item is
/// the 4th entry of the user's list, and a question is kept only if its
/// explanation settles within [`SCREEN_CHECKS`] CHECKs.
///
/// The screen keeps a run's length bounded: an `add_Incremental` question
/// on these worlds occasionally walks hundreds of candidates (one 100k
/// question took 511 CHECKs, 35 s), a tail `paper-open`'s
/// budget-exhausting `add_Powerset` questions already cover. The screen
/// *is* the reference: `reference_explain` under the smaller budget gives
/// the server's answer for every question it keeps, because `max_checks`
/// only stops a search that reaches it (see the `screen_budget` test).
/// Candidates are screened `threads` at a time and admitted in order, so
/// the result depends on the seed alone.
pub fn screen_questions(
    graph: &Hin,
    cfg: &EmigreConfig,
    seed: u64,
    count: usize,
    threads: usize,
) -> Result<Vec<Screened>, String> {
    const WNI_RANK: usize = 3;
    let user_t = graph
        .registry()
        .find_node_type("user")
        .ok_or("graph has no `user` node type")?;
    let mut users: Vec<NodeId> = (0..graph.num_nodes() as u32)
        .map(NodeId)
        .filter(|&n| graph.node_type(n) == user_t)
        .collect();
    Rng::new(seed, 2).shuffle(&mut users);
    let mut screen_cfg = cfg.clone();
    screen_cfg.max_checks = SCREEN_CHECKS;
    let screen = |user: NodeId, method: Method| -> Option<Screened> {
        let list = reference_recommend(graph, cfg, user, RECOMMEND_K).ok()?;
        let wni = list.get(WNI_RANK)?.0;
        // A failure that used the whole budget may have been cut short (the
        // failure diagnosis can name another reason first): reject it.
        let explain = match reference_explain(graph, &screen_cfg, user, wni, method).ok()? {
            Err(f) if f.checks_performed >= SCREEN_CHECKS => return None,
            Ok(e) => Expected::Found(e),
            Err(f) => Expected::NotFound(f),
        };
        Some(Screened {
            question: Question { user, wni, method },
            explain,
            recommend: Expected::Recommend(list.iter().map(|&(n, s)| (n.0, s)).collect()),
        })
    };
    let quota = [count / 2, count - count / 2];
    let methods = [Method::RemoveIncremental, Method::AddIncremental];
    let mut admitted: [Vec<Screened>; 2] = [Vec::new(), Vec::new()];
    let mut pos = 0;
    let open = |a: &[Vec<Screened>; 2], m: usize| a[m].len() < quota[m];
    while (open(&admitted, 0) || open(&admitted, 1)) && pos < users.len() {
        let batch: Vec<(NodeId, usize)> = (0..threads.max(1))
            .filter_map(|i| users.get(pos + i).map(|&u| (u, i)))
            .map(|(u, i)| {
                let m = match (open(&admitted, 0), open(&admitted, 1)) {
                    (true, true) => i % 2,
                    (true, false) => 0,
                    _ => 1,
                };
                (u, m)
            })
            .collect();
        pos += batch.len();
        let found: Vec<Option<Screened>> = std::thread::scope(|s| {
            let handles: Vec<_> = batch
                .iter()
                .map(|&(u, m)| s.spawn(move || screen(u, methods[m])))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("screen thread panicked"))
                .collect()
        });
        for (q, &(_, m)) in found.into_iter().zip(&batch) {
            if let Some(q) = q.filter(|_| open(&admitted, m)) {
                admitted[m].push(q);
            }
        }
    }
    if open(&admitted, 0) || open(&admitted, 1) {
        return Err(format!(
            "screen found only {} + {} of {count} questions",
            admitted[0].len(),
            admitted[1].len()
        ));
    }
    // Interleave the two methods: remove, add, remove, add, ...
    let [removes, adds] = admitted;
    let mut out = Vec::with_capacity(count);
    let (mut r, mut a) = (removes.into_iter(), adds.into_iter());
    loop {
        match (r.next(), a.next()) {
            (None, None) => break,
            (x, y) => out.extend(x.into_iter().chain(y)),
        }
    }
    Ok(out)
}

/// `n` seeded 2-event `rated` batches, each valid on the graph the
/// previous batches produce: an absent edge is added, a present one
/// removed, never on a user in `avoid`.
pub fn feedback_batches(
    graph: &Hin,
    avoid: &[NodeId],
    n: usize,
    seed: u64,
) -> Result<Vec<Vec<FeedbackEvent>>, String> {
    let registry = graph.registry();
    let (user_t, item_t) = (
        registry.find_node_type("user").ok_or("no `user` type")?,
        registry.find_node_type("item").ok_or("no `item` type")?,
    );
    let rated = registry.find_edge_type("rated").ok_or("no `rated` type")?;
    let nodes = (0..graph.num_nodes() as u32).map(NodeId);
    let users: Vec<NodeId> = nodes
        .clone()
        .filter(|&n| graph.node_type(n) == user_t && !avoid.contains(&n))
        .collect();
    let items: Vec<NodeId> = nodes.filter(|&n| graph.node_type(n) == item_t).collect();
    if users.is_empty() || items.is_empty() {
        return Err("no writable user/item pair".into());
    }
    // Pairs whose presence differs from the base graph.
    let mut toggled: HashSet<(u32, u32)> = HashSet::new();
    let mut rng = Rng::new(seed, 3);
    let mut batches = Vec::with_capacity(n);
    for _ in 0..n {
        let mut batch: Vec<FeedbackEvent> = Vec::with_capacity(2);
        while batch.len() < 2 {
            let (u, i) = (users[rng.below(users.len())], items[rng.below(items.len())]);
            if batch.iter().any(|e| (e.src, e.dst) == (u.0, i.0)) {
                continue;
            }
            let present = graph.has_edge(u, i, rated) != toggled.contains(&(u.0, i.0));
            batch.push(if present {
                FeedbackEvent::remove(u.0, i.0, "rated")
            } else {
                FeedbackEvent::add(u.0, i.0, "rated", 1.5)
            });
        }
        for e in &batch {
            if !toggled.remove(&(e.src, e.dst)) {
                toggled.insert((e.src, e.dst));
            }
        }
        batches.push(batch);
    }
    Ok(batches)
}
