//! One push engine backs every list.
//!
//! The explainer's contexts, the batch loop, scenario generation, the
//! library recommender and the served `/recommend` all rank from the same
//! forward push over the same transition kernel, so their lists agree
//! exactly — not merely within ε. These tests pin that on seeded
//! pathological worlds (dangling items, near-zero weights, twin-item ties)
//! and on a preprocessed synthetic Amazon world.

use std::sync::Arc;

use emigre_core::batch::explain_whole_list;
use emigre_core::{EmigreConfig, ExplainContext, Explainer, Method, UserArtifacts};
use emigre_data::pipeline::{AmazonHin, PreprocessConfig};
use emigre_data::synth::{SynthConfig, SynthDataset};
use emigre_eval::scenario::generate_scenarios;
use emigre_hin::{Hin, NodeId};
use emigre_obs::ObsHandle;
use emigre_ppr::TransitionCsr;
use emigre_rec::{PprRecommender, Recommender};
use emigre_serve::reference_recommend;
use emigre_testkit::{WorldParams, WorldSpec};

/// `(graph, config, users)` per world: 48 seeded pathological worlds and
/// one pipeline world. Half the seeded worlds and the pipeline world push
/// at a loose ε = 1e-4, which leaves estimates far enough from exact PPR
/// that ranking with any other engine (power iteration, say) reorders
/// some of these lists.
fn worlds() -> Vec<(Hin, EmigreConfig, Vec<NodeId>)> {
    let params = WorldParams {
        max_users: 6,
        max_items: 24,
        max_categories: 3,
        density: 0.45,
        pathologies: true,
    };
    let mut out: Vec<_> = (0..48u64)
        .map(|seed| {
            let mut w = WorldSpec::sample_seeded(seed, &params).build();
            if seed % 2 == 1 {
                w.cfg.rec.ppr.epsilon = 1e-4;
            }
            (w.graph, w.cfg, w.users)
        })
        .collect();
    let data = SynthDataset::generate(
        SynthConfig {
            num_users: 12,
            num_items: 90,
            num_categories: 4,
            actions_per_user: (6, 14),
            ..SynthConfig::small()
        }
        .with_seed(5),
    );
    let hin = AmazonHin::build(
        &data.raw,
        &PreprocessConfig {
            sample_users: 4,
            user_activity_range: (3, 100),
            ..PreprocessConfig::default()
        },
    );
    let mut cfg = hin.emigre_config();
    cfg.rec.ppr.epsilon = 1e-4;
    out.push((hin.graph, cfg, hin.users));
    out
}

fn artifacts(g: &Hin, cfg: &EmigreConfig, user: NodeId) -> Option<UserArtifacts> {
    let kernel = Arc::new(TransitionCsr::build(g, cfg.rec.ppr.transition));
    UserArtifacts::build(g, cfg, kernel, user, &ObsHandle::disabled()).ok()
}

#[test]
fn whole_list_questions_are_ranks_two_on_of_the_artifact_list() {
    let mut lists = 0usize;
    for (g, mut cfg, users) in worlds() {
        // Decisions are not under test here, only which items are asked.
        cfg.max_checks = 2;
        let explainer = Explainer::new(cfg.clone());
        for &user in &users {
            let out = explain_whole_list(&explainer, &g, user, Method::RemoveIncremental);
            let Some(art) = artifacts(&g, &cfg, user) else {
                assert!(out.is_err(), "user {user:?}: list without artefacts");
                continue;
            };
            let out = out.expect("artefacts build, so the list does");
            let expected: Vec<(NodeId, usize)> = art
                .rec_list
                .items()
                .into_iter()
                .enumerate()
                .skip(1)
                .map(|(i, n)| (n, i + 1))
                .collect();
            let asked: Vec<(NodeId, usize)> = out.iter().map(|l| (l.wni, l.rank)).collect();
            assert_eq!(asked, expected, "user {user:?}");
            lists += 1;
        }
    }
    assert!(lists >= 20, "only {lists} lists compared");
}

#[test]
fn generated_scenarios_match_their_contexts() {
    let mut scenarios = 0usize;
    for (g, cfg, users) in worlds() {
        let generated = generate_scenarios(&g, &cfg, &users, 9);
        for &user in &users {
            let mine: Vec<_> = generated.iter().filter(|s| s.user == user).collect();
            let Some(art) = artifacts(&g, &cfg, user) else {
                assert!(mine.is_empty(), "user {user:?}: scenarios without a list");
                continue;
            };
            // Every list item past the top, in order, up to the cap.
            let expected: Vec<NodeId> = art.rec_list.items().into_iter().skip(1).take(9).collect();
            let wnis: Vec<NodeId> = mine.iter().map(|s| s.wni).collect();
            assert_eq!(wnis, expected, "user {user:?}");
        }
        for s in &generated {
            let ctx = ExplainContext::build(&g, cfg.clone(), s.user, s.wni)
                .expect("a generated scenario is a valid question");
            assert_eq!(ctx.rec, s.rec, "{s:?}");
            assert_eq!(ctx.rec_list.rank_of(s.wni), Some(s.wni_rank), "{s:?}");
            scenarios += 1;
        }
    }
    assert!(scenarios >= 40, "only {scenarios} scenarios compared");
}

#[test]
fn recommender_matches_served_reference_bitwise() {
    let mut compared = 0usize;
    for (g, cfg, users) in worlds() {
        let rec = PprRecommender::new(cfg.rec);
        for &user in &users {
            for k in [1, 10, 50] {
                let Ok(served) = reference_recommend(&g, &cfg, user, k) else {
                    continue;
                };
                let library = rec.recommend(&g, user, k);
                let bits = |e: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
                    e.iter().map(|&(n, s)| (n, s.to_bits())).collect()
                };
                assert_eq!(
                    bits(library.entries()),
                    bits(&served),
                    "user {user:?} k={k}"
                );
                compared += 1;
            }
        }
    }
    assert!(compared >= 60, "only {compared} lists compared");
}
