//! The untraced HTTP run: spawns `emigre serve` on a workload's inputs,
//! drives it from this process, and checks every answer.

use crate::http::{open_loop, Client, Scheduled, ServeArgs, Server};
use crate::stats::{summarize, Summary};
use crate::verify::{self, Checked, EpochRead, Expected, Served};
use crate::world::{GraphFormat, Inputs, Request, Workload};
use emigre_serve::{FeedbackEvent, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Everything measured over HTTP in one run.
#[derive(Debug, Default)]
pub struct HttpRun {
    pub setup_s: Vec<f64>,
    /// Latency of each checked `/explain` answer (open loop: from its due
    /// time).
    pub explain_ms: Vec<f64>,
    pub recommend_ms: Vec<f64>,
    pub feedback_ms: Vec<f64>,
    /// Client latency minus the server's `stages.total_us`, per read.
    pub http_ms: Vec<f64>,
    /// `stages.queue_us` per read.
    pub queue_ms: Vec<f64>,
    /// Share of each read's server time no stage accounts for.
    pub unattributed: Vec<f64>,
    /// Open-loop generator lateness per send (0 samples in closed loops).
    pub lateness_ms: Vec<f64>,
    pub window_s: f64,
    pub explains_attempted: u64,
    pub explains_in_slo: u64,
    pub explains_checked: u64,
    pub valid_explains: u64,
    pub found: u64,
    pub reads_sent: u64,
    pub feedback_sent: u64,
    /// 429/503/504 answers.
    pub refused: u64,
    pub divergences: Vec<String>,
    pub peak_rss_mb: f64,
    pub workers: usize,
    pub metrics: Option<MetricsSnapshot>,
}

impl HttpRun {
    pub fn attempted(&self) -> u64 {
        self.reads_sent + self.feedback_sent
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.divergences.len() as u64
    }

    /// A run is invalid when the open-loop generator fell more than one
    /// inter-arrival interval behind its schedule.
    pub fn generator_late(&self, inputs: &Inputs) -> bool {
        inputs.offered_rps > 0.0 && summarize(&self.lateness_ms).max > 1e3 / inputs.offered_rps
    }
}

/// One read as recorded inside the window; its body is parsed afterwards,
/// so the client spends no CPU on it while the server is measured.
struct RawRead {
    plan_idx: usize,
    status: u16,
    body: String,
    latency_ms: f64,
    client_ms: f64,
}

impl RawRead {
    fn parse(self) -> ReadSample {
        ReadSample {
            plan_idx: self.plan_idx,
            served: verify::parse_read(self.status, &self.body),
            latency_ms: self.latency_ms,
            client_ms: self.client_ms,
        }
    }
}

/// One read and how it went.
struct ReadSample {
    plan_idx: usize,
    served: Served,
    /// From the due time (open loop) or the send (closed loop).
    latency_ms: f64,
    /// From the send.
    client_ms: f64,
}

/// Writes the graph file, then starts the server [`SETUPS`] times; the last
/// start is the one measured, with the event log on.
fn start_servers(
    inputs: &Inputs,
    bin: &Path,
    dir: &Path,
    run: &mut HttpRun,
) -> Result<(Server, std::path::PathBuf), String> {
    let (flag, name) = match inputs.format {
        GraphFormat::EdgeList => ("--graph", "graph.hin"),
        GraphFormat::Snapshot => ("--graph-snapshot", "graph.snap"),
    };
    let graph_file = dir.join(name);
    std::fs::write(&graph_file, &inputs.file_bytes)
        .map_err(|e| format!("writing {}: {e}", graph_file.display()))?;
    let event_log = dir.join("events.jsonl");
    let _ = std::fs::remove_file(&event_log);
    run.workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    for i in 0..SETUPS {
        let last = i + 1 == SETUPS;
        let server = Server::start(&ServeArgs {
            bin,
            graph_flag: flag,
            graph_file: &graph_file,
            workers: run.workers,
            event_log: last.then_some(event_log.as_path()),
        })?;
        run.setup_s.push(server.setup_s);
        if last {
            return Ok((server, event_log));
        }
        server.stop()?;
    }
    unreachable!("SETUPS >= 1")
}

fn is_refusal(status: u16) -> bool {
    matches!(status, 429 | 503 | 504)
}

/// Runs `inputs` against a freshly started server and checks every answer.
pub fn run(inputs: &Inputs, bin: &Path, dir: &Path) -> Result<HttpRun, String> {
    let mut run = HttpRun::default();
    let (server, event_log) = start_servers(inputs, bin, dir, &mut run)?;
    let mut probe = Client::connect(&server.addr)?;

    // Untimed warm-up, checked like everything else.
    let mut warm: Vec<(usize, Served)> = Vec::new();
    for (i, req) in inputs.warmup.iter().enumerate() {
        let (status, body) = probe.request("POST", req.path(), &req.body())?;
        warm.push((i, verify::parse_read(status, &body)));
    }
    run.reads_sent += warm.len() as u64;

    let (reads, feedback_acks) = match inputs.workload {
        Workload::PaperOpen => (drive_open(inputs, &server.addr, &mut run)?, Vec::new()),
        Workload::ScaleCold => (drive_closed(inputs, &server.addr, &mut run)?, Vec::new()),
        Workload::FeedbackLive => drive_live(inputs, &server.addr, &mut run)?,
    };
    let (_, metrics) = probe.request("GET", "/metrics", "")?;
    run.metrics =
        Some(serde_json::from_str(&metrics).map_err(|e| format!("parsing /metrics: {e}"))?);
    run.peak_rss_mb = server.peak_rss_mb()?;

    // Read-only workloads post their feedback after the read window.
    let acks = if inputs.workload == Workload::FeedbackLive {
        feedback_acks
    } else {
        let mut acks = Vec::new();
        for batch in &inputs.feedback {
            acks.push(post_feedback(&mut probe, batch)?);
        }
        acks
    };
    drop(probe);
    server.stop()?;

    run.feedback_sent = acks.len() as u64;
    for (i, ack) in acks.iter().enumerate() {
        match ack.epoch {
            Some(e) if e == i as u64 + 1 && ack.status == 200 => run.feedback_ms.push(ack.ms),
            _ if is_refusal(ack.status) => run.refused += 1,
            _ => run.divergences.push(format!(
                "feedback batch {} answered status {} epoch {:?}",
                i + 1,
                ack.status,
                ack.epoch
            )),
        }
    }
    let sent = (inputs.warmup.len() + reads.len() + acks.len()) as u64;
    let lines = verify::event_log_lines(&event_log)?;
    if lines != sent {
        run.divergences.push(format!(
            "event log has {lines} line(s) for {sent} request(s)"
        ));
    }

    // The correctness gate, outside the timed window.
    let n_batches = if inputs.workload == Workload::FeedbackLive {
        run.feedback_sent as usize
    } else {
        0
    };
    for (i, served) in warm {
        let req = &inputs.warmup[i];
        match verify::check(&served, &inputs.warmup_expected[i]) {
            Ok(c) if c.epoch.unwrap_or(0) == 0 => {}
            Ok(c) => run.divergences.push(format!(
                "warm-up {} {} served on epoch {:?}",
                req.path(),
                req.body(),
                c.epoch
            )),
            Err(d) => run
                .divergences
                .push(format!("warm-up {} {} -> {d}", req.path(), req.body())),
        }
    }
    let checked = check_reads(inputs, &reads, n_batches, run.workers, &mut run.divergences)?;
    account(inputs, &reads, &checked, &mut run);
    Ok(run)
}

/// Checks the window's reads: refusals are counted, not checked; every
/// other read is compared with its reference on its epoch.
fn check_reads(
    inputs: &Inputs,
    reads: &[ReadSample],
    n_batches: usize,
    threads: usize,
    divergences: &mut Vec<String>,
) -> Result<Vec<Option<Checked>>, String> {
    if n_batches == 0 {
        // Static graph: the reference answers were computed with the inputs.
        let expected: &[Expected] = &inputs.expected;
        return Ok(reads
            .iter()
            .map(|r| {
                if is_refusal(r.served.status) {
                    return None;
                }
                let req = &inputs.plan[r.plan_idx];
                match verify::check(&r.served, &expected[r.plan_idx]) {
                    Ok(c) if c.epoch.unwrap_or(0) == 0 => Some(c),
                    Ok(c) => {
                        divergences.push(format!(
                            "{} {} served on epoch {:?} inside a read-only window",
                            req.path(),
                            req.body(),
                            c.epoch
                        ));
                        None
                    }
                    Err(d) => {
                        divergences.push(format!("{} {} -> {d}", req.path(), req.body()));
                        None
                    }
                }
            })
            .collect());
    }
    let (keep, epoch_reads): (Vec<usize>, Vec<EpochRead>) = reads
        .iter()
        .enumerate()
        .filter(|(_, r)| !is_refusal(r.served.status))
        .map(|(i, r)| {
            (
                i,
                EpochRead {
                    plan_idx: r.plan_idx,
                    served: r.served.clone(),
                },
            )
        })
        .unzip();
    let (results, errors) = verify::check_on_epochs(
        &inputs.graph,
        &inputs.cfg,
        &inputs.plan,
        &inputs.feedback[..n_batches],
        &epoch_reads,
        threads,
    )?;
    divergences.extend(errors);
    let mut out: Vec<Option<Checked>> = (0..reads.len()).map(|_| None).collect();
    for (i, c) in keep.into_iter().zip(results) {
        out[i] = c;
    }
    Ok(out)
}

/// Folds checked reads into the run's samples and counters.
fn account(inputs: &Inputs, reads: &[ReadSample], checked: &[Option<Checked>], run: &mut HttpRun) {
    let slo = inputs.workload.slo_ms();
    run.reads_sent += reads.len() as u64;
    for (r, c) in reads.iter().zip(checked) {
        let explain = inputs.plan[r.plan_idx].is_explain();
        if explain {
            run.explains_attempted += 1;
        }
        if is_refusal(r.served.status) {
            run.refused += 1;
            continue;
        }
        let Some(c) = c else { continue };
        let total_ms = c.stages.total_us as f64 / 1e3;
        if r.served.status == 200 {
            run.http_ms.push((r.client_ms - total_ms).max(0.0));
            run.queue_ms.push(c.stages.queue_us as f64 / 1e3);
            if c.stages.total_us > 0 {
                run.unattributed
                    .push(c.stages.unattributed_us() as f64 / c.stages.total_us as f64);
            }
        }
        if explain {
            run.explains_checked += 1;
            run.explain_ms.push(r.latency_ms);
            if r.latency_ms <= slo {
                run.explains_in_slo += 1;
            }
            if let Some(found) = c.found {
                run.valid_explains += 1;
                run.found += found as u64;
            }
        } else {
            run.recommend_ms.push(r.latency_ms);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `paper-open`: the seeded request order at a fixed offered rate,
/// pipelined over two connections; latency counts from each due time.
fn drive_open(inputs: &Inputs, addr: &str, run: &mut HttpRun) -> Result<Vec<ReadSample>, String> {
    const CONNS: usize = 2;
    let order: Vec<usize> = inputs.passes.iter().flatten().copied().collect();
    let bodies: Vec<String> = inputs.plan.iter().map(Request::body).collect();
    let interval = Duration::from_secs_f64(1.0 / inputs.offered_rps);
    let t0 = Instant::now() + Duration::from_millis(20);
    let answers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let (order, bodies) = (&order, &bodies);
                s.spawn(move || {
                    let (mine, sched): (Vec<usize>, Vec<Scheduled>) = order
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(CONNS)
                        .map(|(i, &p)| {
                            let due = t0 + interval * i as u32;
                            let (path, body) = (inputs.plan[p].path(), bodies[p].as_str());
                            (p, Scheduled { due, path, body })
                        })
                        .unzip();
                    open_loop(addr, &sched).map(|answers| {
                        mine.into_iter()
                            .zip(sched.iter().map(|s| s.due))
                            .zip(answers)
                            .collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "open-loop connection panicked".to_owned())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut reads = Vec::new();
    let mut last_done = t0;
    for ((p, due), a) in answers.into_iter().flatten() {
        run.lateness_ms
            .push(ms(a.sent.saturating_duration_since(due)));
        last_done = last_done.max(a.done);
        reads.push(ReadSample {
            plan_idx: p,
            served: verify::parse_read(a.status, &a.body),
            latency_ms: ms(a.done.saturating_duration_since(due)),
            client_ms: ms(a.done.saturating_duration_since(a.sent)),
        });
    }
    run.window_s = last_done.saturating_duration_since(t0).as_secs_f64();
    Ok(reads)
}

/// `scale-cold`: whole passes over the plan, closed loop on two
/// connections; each connection takes the next user's pair of requests.
fn drive_closed(inputs: &Inputs, addr: &str, run: &mut HttpRun) -> Result<Vec<ReadSample>, String> {
    const CONNS: usize = 2;
    const UNIT: usize = 2;
    let order: Vec<usize> = inputs.passes.iter().flatten().copied().collect();
    let units = order.len() / UNIT;
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_conn = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|_| {
                let (order, cursor) = (&order, &cursor);
                s.spawn(move || -> Result<Vec<RawRead>, String> {
                    let mut client = Client::connect(addr)?;
                    let mut out = Vec::new();
                    loop {
                        let u = cursor.fetch_add(1, Ordering::Relaxed);
                        if u >= units {
                            return Ok(out);
                        }
                        for &p in &order[u * UNIT..(u + 1) * UNIT] {
                            let req = &inputs.plan[p];
                            let sent = Instant::now();
                            let (status, body) = client.request("POST", req.path(), &req.body())?;
                            let lat = ms(sent.elapsed());
                            out.push(RawRead {
                                plan_idx: p,
                                status,
                                body,
                                latency_ms: lat,
                                client_ms: lat,
                            });
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "closed-loop connection panicked".to_owned())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    run.window_s = t0.elapsed().as_secs_f64();
    Ok(per_conn.into_iter().flatten().map(RawRead::parse).collect())
}

/// A `/feedback` acknowledgement.
pub struct Ack {
    pub status: u16,
    pub epoch: Option<u64>,
    pub ms: f64,
}

#[derive(Serialize)]
struct FeedbackBody {
    events: Vec<FeedbackEvent>,
}

#[derive(Deserialize)]
struct FeedbackReply {
    epoch: Option<u64>,
}

fn post_feedback(client: &mut Client, batch: &[FeedbackEvent]) -> Result<Ack, String> {
    let body = serde_json::to_string(&FeedbackBody {
        events: batch.to_vec(),
    })
    .map_err(|e| e.0)?;
    let sent = Instant::now();
    let (status, reply) = client.request("POST", "/feedback", &body)?;
    let t = ms(sent.elapsed());
    let epoch = serde_json::from_str::<FeedbackReply>(&reply)
        .ok()
        .and_then(|r| r.epoch);
    Ok(Ack {
        status,
        epoch,
        ms: t,
    })
}

/// `feedback-live`: one closed-loop reader cycling the hot plan while one
/// writer posts the seeded batches on a fixed schedule; the window ends
/// with the writer's last acknowledgement.
fn drive_live(
    inputs: &Inputs,
    addr: &str,
    run: &mut HttpRun,
) -> Result<(Vec<ReadSample>, Vec<Ack>), String> {
    let interval = Duration::from_secs_f64(1.0 / inputs.feedback_rps);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (reads, acks) = std::thread::scope(|s| {
        let writer = s.spawn(|| -> Result<(Vec<Ack>, Vec<f64>), String> {
            let mut client = Client::connect(addr)?;
            let mut acks = Vec::new();
            let mut late = Vec::new();
            let result = (|| {
                for (batch, &offset) in inputs.feedback.iter().zip(&inputs.feedback_due) {
                    let due = t0 + interval.mul_f64(offset);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    late.push(ms(Instant::now().saturating_duration_since(due)));
                    acks.push(post_feedback(&mut client, batch)?);
                }
                Ok(())
            })();
            stop.store(true, Ordering::SeqCst);
            result.map(|()| (acks, late))
        });
        let reader = s.spawn(|| -> Result<Vec<RawRead>, String> {
            let mut client = Client::connect(addr)?;
            let mut out = Vec::new();
            let mut i = 0;
            while !stop.load(Ordering::SeqCst) {
                let p = i % inputs.plan.len();
                let req = &inputs.plan[p];
                let sent = Instant::now();
                let (status, body) = client.request("POST", req.path(), &req.body())?;
                let lat = ms(sent.elapsed());
                out.push(RawRead {
                    plan_idx: p,
                    status,
                    body,
                    latency_ms: lat,
                    client_ms: lat,
                });
                i += 1;
            }
            Ok(out)
        });
        let w = writer.join().map_err(|_| "writer panicked".to_owned())?;
        let r = reader.join().map_err(|_| "reader panicked".to_owned())?;
        Ok::<_, String>((r?, w?))
    })?;
    run.window_s = t0.elapsed().as_secs_f64();
    let (acks, late) = acks;
    run.lateness_ms.extend(late);
    Ok((reads.into_iter().map(RawRead::parse).collect(), acks))
}

/// Summaries the report prints for an HTTP run.
pub struct HttpSummary {
    pub explain: Summary,
    pub recommend: Summary,
    pub feedback: Summary,
    pub http: Summary,
    pub queue: Summary,
    pub lateness: Summary,
}

impl HttpRun {
    pub fn summary(&self) -> HttpSummary {
        HttpSummary {
            explain: summarize(&self.explain_ms),
            recommend: summarize(&self.recommend_ms),
            feedback: summarize(&self.feedback_ms),
            http: summarize(&self.http_ms),
            queue: summarize(&self.queue_ms),
            lateness: summarize(&self.lateness_ms),
        }
    }
}
