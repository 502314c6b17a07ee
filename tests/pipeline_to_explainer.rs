//! Integration test: synthetic data → preprocessing pipeline → scenario
//! generation → explanation methods, across all six crates.

use emigre::core::{Explainer, Method};
use emigre::data::pipeline::{AmazonHin, PreprocessConfig};
use emigre::data::synth::{SynthConfig, SynthDataset};
use emigre::eval::scenario::generate_scenarios;
use emigre::prelude::*;

fn small_world() -> (AmazonHin, EmigreConfig) {
    let data = SynthDataset::generate(SynthConfig {
        num_users: 24,
        num_items: 220,
        num_categories: 6,
        actions_per_user: (8, 20),
        ..SynthConfig::default()
    });
    let hin = AmazonHin::build(
        &data.raw,
        &PreprocessConfig {
            sample_users: 8,
            user_activity_range: (4, 100),
            ..PreprocessConfig::default()
        },
    );
    let mut cfg = hin.emigre_config();
    cfg.rec.ppr.epsilon = 1e-5; // debug-build friendly
    (hin, cfg)
}

#[test]
fn every_found_explanation_verifies_end_to_end() {
    let (hin, cfg) = small_world();
    let g = &hin.graph;
    let scenarios = generate_scenarios(g, &cfg, &hin.users, 3);
    assert!(!scenarios.is_empty(), "pipeline produced no scenarios");
    let explainer = Explainer::new(cfg.clone());

    let mut found = 0usize;
    for s in scenarios.iter().take(6) {
        let ctx = explainer.context(g, s.user, s.wni).expect("valid scenario");
        for method in [
            Method::AddIncremental,
            Method::AddPowerset,
            Method::RemoveIncremental,
            Method::RemovePowerset,
            Method::Combined,
        ] {
            if let Ok(exp) = Explainer::explain_with_context(&ctx, method) {
                assert!(exp.verified, "{method} must verify");
                let tester = emigre::core::tester::Tester::new(&ctx);
                assert!(tester.test(&exp.actions), "{method} explanation broken");
                assert_eq!(exp.new_top, s.wni);
                // Explanations only touch allowed edge types, rooted at the
                // user.
                for a in &exp.actions {
                    assert_eq!(a.edge.src, s.user);
                    assert!(cfg.edge_type_allowed(a.edge.etype));
                }
                found += 1;
            }
        }
    }
    assert!(found > 0, "no method found any explanation on 6 scenarios");
}

#[test]
fn explanations_respect_privacy_constraint() {
    // Only the target user's own (existing or prospective) edges may
    // appear — never another user's actions (the paper's privacy design
    // choice).
    let (hin, cfg) = small_world();
    let g = &hin.graph;
    let scenarios = generate_scenarios(g, &cfg, &hin.users, 2);
    let explainer = Explainer::new(cfg.clone());
    for s in scenarios.iter().take(4) {
        for method in [Method::RemoveIncremental, Method::AddIncremental] {
            if let Ok(exp) = explainer.explain(g, s.user, s.wni, method) {
                for a in &exp.actions {
                    assert_eq!(
                        a.edge.src, s.user,
                        "explanation leaked an edge of another node"
                    );
                }
            }
        }
    }
}

#[test]
fn combined_mode_dominates_single_modes() {
    // The combined extension must solve every scenario either single mode
    // solves (its search space is a superset).
    let (hin, cfg) = small_world();
    let g = &hin.graph;
    let scenarios = generate_scenarios(g, &cfg, &hin.users, 2);
    let explainer = Explainer::new(cfg.clone());
    for s in scenarios.iter().take(5) {
        let ctx = explainer.context(g, s.user, s.wni).expect("valid");
        let add = Explainer::explain_with_context(&ctx, Method::AddIncremental).is_ok();
        let rem = Explainer::explain_with_context(&ctx, Method::RemoveIncremental).is_ok();
        let comb = Explainer::explain_with_context(&ctx, Method::Combined).is_ok();
        if add || rem {
            assert!(
                comb,
                "combined failed on a single-mode-solvable scenario (user {}, wni {})",
                s.user, s.wni
            );
        }
    }
}

#[test]
fn csr_snapshot_gives_identical_explanations() {
    let (hin, cfg) = small_world();
    let g = &hin.graph;
    let image = emigre::hin::snapshot_to_bytes(g);
    let snap = emigre::hin::Snapshot::from_bytes(image).expect("fresh image opens");
    let scenarios = generate_scenarios(g, &cfg, &hin.users, 1);
    let explainer = Explainer::new(cfg.clone());
    for s in scenarios.iter().take(3) {
        let a = explainer.explain(g, s.user, s.wni, Method::AddIncremental);
        let b = explainer.explain(&snap, s.user, s.wni, Method::AddIncremental);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x.actions, y.actions),
            (Err(_), Err(_)) => {}
            other => panic!("hin/snapshot disagree: {other:?}"),
        }
    }
}
