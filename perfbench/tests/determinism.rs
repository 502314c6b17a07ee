//! Inputs and work counters depend on the seed alone. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::trace::{layers, ops, replay, Counters};
use perfbench::verify::{expected, Expected};
use perfbench::world::{build, Inputs, Request, Shape, Workload, SESSION_CAPACITY};
use std::path::PathBuf;

/// Shapes small enough for a test. Scale-cold asks 1 question per second
/// of the run, so its pool falls back to the floor: more users than the
/// session cache holds.
fn small(w: Workload) -> Shape {
    match w {
        Workload::ScaleCold => Shape {
            nodes: 10_000,
            questions: 1,
        },
        Workload::FeedbackLive => Shape {
            nodes: 5_000,
            questions: 6,
        },
        Workload::PaperOpen => Shape::standard(w),
    }
}

fn inputs(w: Workload, seed: u64) -> Inputs {
    build(w, seed, 2, small(w)).expect("inputs build")
}

fn graph_file(inputs: &Inputs) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}",
        inputs.workload.name(),
        inputs.seed
    ));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("graph");
    std::fs::write(&path, &inputs.file_bytes).expect("write graph");
    path
}

fn traced_counters(inputs: &Inputs) -> Counters {
    let n = ops(inputs).len();
    let r = replay(inputs, &graph_file(inputs), n, true).expect("replay");
    let l = layers(&r.spans);
    assert!(l.worst_residual_ms < 1e-6, "self times must sum to totals");
    r.counters
}

/// Distinct users, method counts, and request count: the shape of a plan.
fn shape(inputs: &Inputs) -> (usize, usize, usize, usize) {
    let count = |pred: &dyn Fn(&Request) -> bool| inputs.plan.iter().filter(|r| pred(r)).count();
    (
        inputs.plan.len(),
        inputs.plan_users(),
        count(&|r| matches!(r, Request::Explain(q) if q.method.label() == "remove_Incremental")),
        count(&|r| matches!(r, Request::Recommend { .. })),
    )
}

#[test]
fn same_seed_same_questions_and_counters() {
    for w in [
        Workload::ScaleCold,
        Workload::FeedbackLive,
        Workload::PaperOpen,
    ] {
        let (a, b) = (inputs(w, 7), inputs(w, 7));
        assert_eq!(a.plan, b.plan, "{}: question set", w.name());
        assert_eq!(a.passes, b.passes, "{}: order", w.name());
        assert_eq!(a.feedback, b.feedback, "{}: feedback batches", w.name());
        if w != Workload::PaperOpen {
            // The paper world's budget-exhausting questions make its
            // replay slow; its counters are covered by the same code.
            assert_eq!(
                traced_counters(&a),
                traced_counters(&b),
                "{}: counters",
                w.name()
            );
        }
    }
}

#[test]
fn second_seed_changes_questions_not_shape() {
    for w in [Workload::ScaleCold, Workload::FeedbackLive] {
        let (a, b) = (inputs(w, 7), inputs(w, 8));
        assert_ne!(a.plan, b.plan, "{}: question set", w.name());
        assert_eq!(shape(&a), shape(&b), "{}: shape", w.name());
    }
    let cold = inputs(Workload::ScaleCold, 8);
    assert!(
        cold.plan_users() > SESSION_CAPACITY,
        "pool must exceed the session cache"
    );
    // The paper world is fixed; the seed orders the users.
    let (a, b) = (
        inputs(Workload::PaperOpen, 7),
        inputs(Workload::PaperOpen, 8),
    );
    assert_eq!(a.plan, b.plan);
    assert_ne!(a.passes, b.passes);
    let sorted = |p: &Vec<Vec<usize>>| {
        let mut v: Vec<usize> = p.iter().flatten().copied().collect();
        v.sort_unstable();
        v
    };
    assert_eq!(sorted(&a.passes), sorted(&b.passes));
}

/// A question the screen keeps settles within its CHECK budget, so the
/// reference under the server's full budget gives the same answer.
#[test]
fn screen_budget() {
    let i = inputs(Workload::FeedbackLive, 11);
    for (req, want) in i.plan.iter().zip(&i.expected) {
        if let Request::Explain(_) = req {
            let full = expected(&i.graph, &i.cfg, req);
            assert_eq!(&full, want, "{req:?}");
            assert!(matches!(full, Expected::Found(_) | Expected::NotFound(_)));
        }
    }
}
