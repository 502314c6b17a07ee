//! Integration tests for the supporting substrates through the public
//! facade: graph serialisation, the RecWalk blend, Monte-Carlo PPR, and
//! the batch explanation loop — each exercised on the paper's running
//! example rather than synthetic micro-fixtures.

use emigre::core::{batch, Explainer, Method};
use emigre::data::examples::running_example;
use emigre::prelude::*;
use emigre::rec::{recwalk_graph, ItemKnn, Recommender};

#[test]
fn running_example_survives_serialisation() {
    let ex = running_example();
    let text = emigre::hin::io::to_edge_list(&ex.graph);
    let reloaded = emigre::hin::io::from_edge_list(&text).expect("round-trip");
    // The reloaded graph answers the Fig. 1a question identically.
    let explainer = Explainer::new(ex.config.clone());
    let a = explainer
        .explain(&ex.graph, ex.paul, ex.harry_potter, Method::RemovePowerset)
        .unwrap();
    let b = explainer
        .explain(&reloaded, ex.paul, ex.harry_potter, Method::RemovePowerset)
        .unwrap();
    assert_eq!(a.actions, b.actions);
}

#[test]
fn dot_export_mentions_the_cast() {
    let ex = running_example();
    let dot = emigre::hin::io::to_dot(&ex.graph);
    for name in ["Paul", "Harry Potter", "Candide", "Python"] {
        assert!(dot.contains(name), "missing {name} in DOT output");
    }
}

#[test]
fn monte_carlo_agrees_with_push_on_the_running_example() {
    let ex = running_example();
    let cfg = ex.config.rec.ppr;
    let kernel = emigre::ppr::TransitionCsr::build(&ex.graph, cfg.transition);
    let push = emigre::ppr::ForwardPush::compute_kernel(&kernel, &cfg, ex.paul);
    let mc = emigre::ppr::ppr_monte_carlo(&ex.graph, &cfg, ex.paul, 150_000, 11);
    // The two engines agree on Paul's distribution within sampling error,
    // and on the identity of the top recommendation in particular.
    let score = |v: &[f64], n: NodeId| v[n.index()];
    assert!((score(&push.estimates, ex.python) - score(&mc.estimates, ex.python)).abs() < 0.01);
    assert!(
        score(&mc.estimates, ex.python) > score(&mc.estimates, ex.harry_potter),
        "MC must reproduce Python > Harry Potter for Paul"
    );
}

#[test]
fn recwalk_blend_is_stochastic_and_recommends() {
    let ex = running_example();
    let g = &ex.graph;
    let user_t = g.registry().find_node_type("user").unwrap();
    let item_t = g.registry().find_node_type("item").unwrap();
    let knn = ItemKnn::fit(g, user_t, item_t, vec![ex.rated], 5);
    let (rw, _) = recwalk_graph(g, &knn, item_t, 0.5);
    assert!(emigre::rec::recwalk::rows_are_stochastic(&rw));
    let rec = emigre::rec::PprRecommender::new(ex.config.rec);
    let list = rec.recommend(&rw, ex.paul, 5);
    assert!(!list.is_empty(), "RecWalk graph must still yield a list");
}

#[test]
fn batch_loop_explains_pauls_whole_list() {
    let ex = running_example();
    let explainer = Explainer::new(ex.config.clone());
    let out =
        batch::explain_whole_list(&explainer, &ex.graph, ex.paul, Method::AddPowerset).unwrap();
    assert!(out.len() >= 5, "Paul's list has many why-not targets");
    // The Harry Potter entry reproduces Fig. 1b through the batch path.
    let hp = out
        .iter()
        .find(|l| l.wni == ex.harry_potter)
        .expect("Harry Potter is in the list");
    let exp = hp.result.as_ref().expect("Fig. 1b explanation");
    assert_eq!(exp.actions[0].edge.dst, ex.lord_of_the_rings);
}
