//! # emigre-rec — the graph recommender layer
//!
//! The paper explains recommendations produced by a RecWalk-style
//! Personalized-PageRank recommender (its Eq. 2):
//!
//! ```text
//! rec = argmax_{i ∈ I \ N_out(u)} PPR(u, i)
//! ```
//!
//! i.e. the best-scoring *item* the user has not interacted with. This crate
//! provides that recommender ([`PprRecommender`]), the ranked-list type
//! ([`RecList`]) the experiment harness consumes, and two baselines: a
//! degree-based popularity recommender ([`PopularityRecommender`]) used to
//! study the *popular item* failure mode of Section 6.4, and the classic
//! item-kNN collaborative-filtering model ([`ItemKnn`]) from the paper's
//! related-work positioning.

pub mod itemknn;
pub mod list;
pub mod popularity;
pub mod ppr_rec;
pub mod recwalk;

pub use itemknn::ItemKnn;
pub use list::RecList;
pub use popularity::PopularityRecommender;
pub use ppr_rec::{PprRecommender, RecConfig};
pub use recwalk::recwalk_graph;

use emigre_hin::{GraphView, NodeId};

/// A recommender that ranks candidate items for a user over any graph view.
pub trait Recommender {
    /// Dense per-node scores personalised for `user` (non-candidates may
    /// hold arbitrary values; ranking only reads candidate entries).
    fn scores<G: GraphView>(&self, g: &G, user: NodeId) -> Vec<f64>;

    /// The candidate set: recommendable nodes the user has not interacted
    /// with (paper: `I \ N_out(u)`).
    fn candidates<G: GraphView>(&self, g: &G, user: NodeId) -> Vec<NodeId>;

    /// Top-`k` ranked recommendations.
    fn recommend<G: GraphView>(&self, g: &G, user: NodeId, k: usize) -> RecList {
        let scores = self.scores(g, user);
        let candidates = self.candidates(g, user);
        RecList::from_scores(&scores, candidates, k)
    }

    /// The single top recommendation, if any candidate exists.
    fn top1<G: GraphView>(&self, g: &G, user: NodeId) -> Option<(NodeId, f64)> {
        self.recommend(g, user, 1).entries().first().copied()
    }
}
