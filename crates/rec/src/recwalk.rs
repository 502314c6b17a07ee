//! RecWalk-style nearly-uncoupled walks (Nikolakopoulos & Karypis, 2019).
//!
//! The paper's recommender substrate is RecWalk: a random walk whose
//! transition at an *item* node blends the heterogeneous graph structure
//! `H` with a stochastic item-model `M` (classically an item-kNN
//! similarity matrix):
//!
//! ```text
//! P(i → ·) = β·H(i, ·) + (1−β)·M(i, ·)        for item nodes i
//! P(v → ·) = H(v, ·)                           for every other node
//! ```
//!
//! Rather than threading a second matrix through every PPR engine, this
//! module *materialises* the blend: [`recwalk_graph`] rewrites each item
//! row into explicit normalised edge weights (`β`-scaled structural edges
//! plus `(1−β)`-scaled `item-model` edges), so the ordinary
//! [`TransitionModel::Weighted`](emigre_ppr::TransitionModel) walk on the
//! rewritten graph *is* the RecWalk walk. Everything downstream — push
//! engines, the explainer, the CHECK — runs unchanged.

use crate::itemknn::ItemKnn;
use emigre_hin::{EdgeTypeId, GraphView, Hin, NodeTypeId};

/// Name of the edge type carrying the `(1−β)·M` item-model transitions in
/// the rewritten graph.
pub const ITEM_MODEL_EDGE: &str = "item-model";

/// Builds the RecWalk-blended graph: a clone of `g` whose item rows encode
/// `β·H + (1−β)·M`, with `M` the row-normalised kNN similarity model.
///
/// Items with no kNN neighbours (or no structural edges) keep their
/// original row un-blended — the walk must stay well-defined everywhere.
/// Returns the new graph and the interned id of the item-model edge type.
pub fn recwalk_graph(
    g: &Hin,
    knn: &ItemKnn,
    item_type: NodeTypeId,
    beta: f64,
) -> (Hin, EdgeTypeId) {
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    let mut out = Hin::with_registry(g.registry().clone());
    let model_edge = out.registry_mut().edge_type(ITEM_MODEL_EDGE);
    for n in g.node_ids() {
        out.add_node(g.node_type(n), g.label(n));
    }
    for n in g.node_ids() {
        let is_blended_item =
            g.node_type(n) == item_type && !knn.neighbours_of(n).is_empty() && g.out_degree(n) > 0;
        if !is_blended_item {
            g.for_each_out(n, |v, t, w| {
                out.add_edge(n, v, t, w).expect("copy of a valid edge");
            });
            continue;
        }
        // Structural part: β × normalised original row.
        let wsum = g.out_weight_sum(n);
        g.for_each_out(n, |v, t, w| {
            out.add_edge(n, v, t, beta * w / wsum)
                .expect("scaled copy of a valid edge");
        });
        // Item-model part: (1−β) × normalised similarity row.
        let sim_sum: f64 = knn.neighbours_of(n).iter().map(|(_, s)| s).sum();
        for &(j, sim) in knn.neighbours_of(n) {
            let w = (1.0 - beta) * sim / sim_sum;
            if w > 0.0 {
                // The model edge may parallel a structural edge (different
                // type), which the HIN permits.
                out.add_edge(n, j, model_edge, w)
                    .expect("model edges are unique per pair");
            }
        }
    }
    (out, model_edge)
}

/// Convenience check used by tests and callers migrating configurations:
/// verifies every node's out-row still sums to a probability under the
/// weighted transition (i.e. the blend preserved stochasticity).
pub fn rows_are_stochastic(g: &Hin) -> bool {
    g.node_ids().all(|n| {
        let d = g.out_degree(n);
        d == 0 || {
            let s = g.out_weight_sum(n);
            s.is_finite() && s > 0.0
        }
    })
}

/// Helper for explanation configs on RecWalk graphs: the edge types users
/// may act on exclude the synthetic item-model edges.
pub fn is_user_actionable(etype: EdgeTypeId, model_edge: EdgeTypeId) -> bool {
    etype != model_edge
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PprRecommender, RecConfig, Recommender};
    use emigre_hin::NodeId;
    use emigre_ppr::{PprConfig, TransitionModel};

    fn world() -> (Hin, NodeTypeId, NodeTypeId, Vec<NodeId>, Vec<NodeId>) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let users: Vec<_> = (0..3).map(|_| g.add_node(user_t, None)).collect();
        let items: Vec<_> = (0..4).map(|_| g.add_node(item_t, None)).collect();
        g.add_edge_bidirectional(users[0], items[0], rated, 1.0)
            .unwrap();
        g.add_edge_bidirectional(users[0], items[1], rated, 1.0)
            .unwrap();
        g.add_edge_bidirectional(users[1], items[0], rated, 1.0)
            .unwrap();
        g.add_edge_bidirectional(users[1], items[1], rated, 1.0)
            .unwrap();
        g.add_edge_bidirectional(users[2], items[1], rated, 1.0)
            .unwrap();
        g.add_edge_bidirectional(users[2], items[2], rated, 1.0)
            .unwrap();
        (g, user_t, item_t, users, items)
    }

    #[test]
    fn blended_rows_mix_structure_and_model() {
        let (g, user_t, item_t, _, items) = world();
        let knn = ItemKnn::fit(&g, user_t, item_t, vec![], 5);
        let beta = 0.6;
        let (rw, model_edge) = recwalk_graph(&g, &knn, item_t, beta);
        assert!(rows_are_stochastic(&rw));

        // Item 0's row: structural mass β, model mass 1−β.
        let mut structural = 0.0;
        let mut model = 0.0;
        rw.for_each_out(items[0], |_, t, w| {
            if t == model_edge {
                model += w;
            } else {
                structural += w;
            }
        });
        assert!((structural - beta).abs() < 1e-12, "structural {structural}");
        assert!((model - (1.0 - beta)).abs() < 1e-12, "model {model}");
    }

    #[test]
    fn beta_one_recovers_normalised_structure() {
        let (g, user_t, item_t, _, items) = world();
        let knn = ItemKnn::fit(&g, user_t, item_t, vec![], 5);
        let (rw, model_edge) = recwalk_graph(&g, &knn, item_t, 1.0);
        let mut model_edges = 0;
        rw.for_each_out(items[0], |_, t, _| {
            if t == model_edge {
                model_edges += 1;
            }
        });
        assert_eq!(model_edges, 0, "β = 1 must add no model edges");
        assert!((rw.out_weight_sum(items[0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn user_rows_are_untouched() {
        let (g, user_t, item_t, users, _) = world();
        let knn = ItemKnn::fit(&g, user_t, item_t, vec![], 5);
        let (rw, _) = recwalk_graph(&g, &knn, item_t, 0.5);
        assert_eq!(rw.out_degree(users[0]), g.out_degree(users[0]));
        assert!((rw.out_weight_sum(users[0]) - g.out_weight_sum(users[0])).abs() < 1e-12);
    }

    #[test]
    fn recwalk_ppr_differs_from_plain_ppr_and_still_recommends() {
        let (g, user_t, item_t, users, items) = world();
        let knn = ItemKnn::fit(&g, user_t, item_t, vec![], 5);
        let (rw, _) = recwalk_graph(&g, &knn, item_t, 0.5);
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        let rec = PprRecommender::new(RecConfig::new(item_t).with_ppr(ppr));
        let plain = rec.recommend(&g, users[2], 4);
        let blended = rec.recommend(&rw, users[2], 4);
        assert!(!blended.is_empty());
        // The item-model channel must actually shift the scores.
        let plain_top_score = plain.entries()[0].1;
        let blended_top_score = blended.entries()[0].1;
        assert!((plain_top_score - blended_top_score).abs() > 1e-9);
        let _ = items;
    }

    #[test]
    fn model_edges_are_not_user_actionable() {
        let (g, user_t, item_t, _, _) = world();
        let knn = ItemKnn::fit(&g, user_t, item_t, vec![], 5);
        let (rw, model_edge) = recwalk_graph(&g, &knn, item_t, 0.5);
        let rated = rw.registry().find_edge_type("rated").unwrap();
        assert!(is_user_actionable(rated, model_edge));
        assert!(!is_user_actionable(model_edge, model_edge));
    }
}
