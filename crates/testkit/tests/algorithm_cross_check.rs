//! Differential suite, leg 2: all explanation algorithms vs the oracle.
//!
//! For ≥ 200 sampled (graph, user, WNI) cases this suite asserts, per
//! case, BOTH halves of the ISSUE acceptance criterion:
//!
//! 1. flat-kernel forward/reverse PPR agrees with the dense oracle to
//!    ≤ 1e-9, and
//! 2. every explanation returned by the five Remove-mode algorithms
//!    (incremental, powerset, exhaustive, brute, exhaustive-direct) —
//!    plus the Add-mode trio — passes TEST under the oracle whenever the
//!    oracle margin is decisive, with engine and oracle verdicts equal.
//!
//! Brute-force explanations are additionally certified subset-minimal.
//! Exhaustive-direct is the paper's unverified baseline: its verdicts
//! must still agree with the oracle, but the oracle is allowed to refute
//! its explanations — that refutation count is exactly the paper's case
//! for the CHECK step, so the suite prints it.
//!
//! Every CHECK the suite runs itself — on each returned explanation and on
//! each single-edge remove/add candidate of each question — is also split
//! by the engine's `check_ties` counter: a CHECK the Eq. (3) residual
//! bound decided must return the oracle's verdict whatever the oracle
//! margin, since the bound is a proof. So a change to the push schedule
//! can move ε-tie verdicts only, never certified ones.

use emigre_ppr::{PprConfig, TransitionCsr};
use emigre_testkit::{
    check_ppr_agreement, cross_check_question, cross_check_single_edge_checks, viable_questions,
    DenseOracle, DiffStats, World, WorldParams, WorldSpec, ADD_METHODS, FIVE_ALGORITHMS,
};

const AGREEMENT_TOL: f64 = 1e-9;
const DIFF_EPSILON: f64 = 1e-12;
const MIN_CASES: usize = 200;
/// Cap per world so the case pool spans many graphs, not one big one.
const QUESTIONS_PER_WORLD: usize = 6;

fn build_world(seed: u64) -> World {
    WorldSpec::sample_seeded(seed, &WorldParams::default())
        .build_with(PprConfig::default().with_epsilon(DIFF_EPSILON))
}

#[test]
fn five_algorithms_agree_with_oracle_on_200_sampled_cases() {
    let mut stats = DiffStats::default();
    let mut cases = 0usize;
    let mut seed = 0u64;
    let mut methods = FIVE_ALGORITHMS.to_vec();
    methods.extend(ADD_METHODS);
    // Many sampled questions legitimately end in `ExplainFailure` (cold
    // users, popular items, exhausted budgets) — keep sampling until the
    // *explanation* pool also clears the floor, not just the questions.
    while cases < MIN_CASES || stats.explanations_checked < MIN_CASES {
        let world = build_world(seed);
        seed += 1;
        let questions = viable_questions(&world, QUESTIONS_PER_WORLD);
        if questions.is_empty() {
            continue;
        }
        let kernel = TransitionCsr::build(&world.graph, world.cfg.rec.ppr.transition);
        let oracle = DenseOracle::build(&world.graph, &world.cfg.rec.ppr);
        for (user, wni) in questions {
            // Half 1: the PPR estimates this question is answered from.
            check_ppr_agreement(
                &world,
                &kernel,
                &oracle,
                user,
                wni,
                AGREEMENT_TOL,
                &mut stats,
            );
            // Half 2: every algorithm's explanation, oracle-TESTed.
            cross_check_question(&world, user, wni, &methods, &mut stats);
            cross_check_single_edge_checks(&world, user, wni, &mut stats);
            cases += 1;
        }
    }
    assert!(cases >= MIN_CASES);
    assert!(
        stats.explanations_checked >= MIN_CASES,
        "explanation pool too thin: {} oracle-TESTed explanations over {cases} cases",
        stats.explanations_checked
    );
    assert!(
        stats.decisive_verdicts > 0,
        "no decisive verdicts at all — margin bookkeeping is broken"
    );
    assert!(
        stats.certified_checks > stats.tie_checks,
        "the residual bound should decide most CHECKs: {} certified vs {} ties",
        stats.certified_checks,
        stats.tie_checks
    );
    println!(
        "cross-check: {cases} cases over {seed} worlds; {} explanations oracle-TESTed \
         ({} decisive, {} near-ties), {} bound-certified CHECKs match the oracle \
         ({} ε-ties), {} direct-baseline refutations, \
         {} brute explanations certified minimal; max push err row {:e} / col {:e}",
        stats.explanations_checked,
        stats.decisive_verdicts,
        stats.near_ties,
        stats.certified_checks,
        stats.tie_checks,
        stats.direct_refuted,
        stats.minimality_certified,
        stats.max_row_err,
        stats.max_col_err
    );
}

/// The pathological generator features — dangling items on directed
/// worlds, near-zero weights, twin-item rank ties — must flow through the
/// same differential checks without tripping any assertion.
#[test]
fn pathological_worlds_survive_the_cross_check() {
    let params = WorldParams {
        pathologies: true,
        ..WorldParams::default()
    };
    let mut stats = DiffStats::default();
    let mut cases = 0usize;
    let mut seed = 50_000u64;
    // Only worlds that actually carry a pathology: directed (dangling
    // possible) or twinned (exact ties).
    while cases < 40 {
        let spec = WorldSpec::sample_seeded(seed, &params);
        seed += 1;
        if spec.bidirectional && spec.twins.is_empty() {
            continue;
        }
        let world = spec.build_with(PprConfig::default().with_epsilon(DIFF_EPSILON));
        let questions = viable_questions(&world, 4);
        for (user, wni) in questions {
            cross_check_question(&world, user, wni, &FIVE_ALGORITHMS, &mut stats);
            cross_check_single_edge_checks(&world, user, wni, &mut stats);
            cases += 1;
        }
    }
    assert!(stats.explanations_checked > 0);
    assert!(stats.certified_checks > 0);
    println!(
        "pathological cross-check: {cases} cases, {} explanations checked, {} near-ties, \
         {} bound-certified CHECKs match the oracle ({} ε-ties)",
        stats.explanations_checked, stats.near_ties, stats.certified_checks, stats.tie_checks
    );
}
