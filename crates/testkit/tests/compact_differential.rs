//! Differential suite, scale leg: `CompactCsr` ≡ `transition_row`.
//!
//! The kernel promises to be a pure materialisation of the per-node
//! transition rows: at `P = f64` every forward row — destinations and
//! probabilities — is *bit-identical* to `transition_row` on the same
//! node, the reverse rows are its exact transpose, and a kernel shared
//! across questions reaches the same CHECK verdicts as each context's own.
//! At `P = f32` rows agree with the `f64` kernel up to one quantisation
//! step. This suite pins these promises on seeded pathological worlds
//! (dangling items, near-zero weights, twin-item PPR ties) and on the
//! streaming power-law generator, whose chunked edge-stream build must
//! match the rows of the fully materialised `Hin` bit for bit.

use std::sync::Arc;

use emigre_core::search::remove_search_space;
use emigre_core::tester::{PreCheck, Tester};
use emigre_core::{Action, ExplainContext};
use emigre_data::{ScaleGen, ScaleSpec};
use emigre_hin::{GraphView, NodeId};
use emigre_obs::ObsHandle;
use emigre_ppr::{transition_row, CompactCsr, CsrRows, TransitionCsr, TransitionModel};
use emigre_testkit::{viable_questions, WorldParams, WorldSpec};

/// Pathology-heavy sampling envelope: small enough that 40 worlds build
/// fast, rich enough that dangling items, near-zero weights, twins and
/// follows all occur across the seed range.
fn params() -> WorldParams {
    WorldParams {
        max_users: 8,
        max_items: 10,
        max_categories: 3,
        density: 0.45,
        pathologies: true,
    }
}

/// Asserts `kernel`'s forward rows are `transition_row` on `g`, bit for
/// bit, and its reverse rows their exact transpose (sources ascending).
fn assert_rows_bitwise<G: GraphView, K: CsrRows<P = f64>>(
    g: &G,
    model: TransitionModel,
    kernel: &K,
    tag: &str,
) {
    let n = g.num_nodes();
    assert_eq!(kernel.num_nodes(), n, "{tag}: node count");
    assert_eq!(kernel.model(), model, "{tag}: model");
    let bits = |(ids, probs): (&[u32], &[f64])| -> Vec<(u32, u64)> {
        ids.iter()
            .zip(probs)
            .map(|(&i, p)| (i, p.to_bits()))
            .collect()
    };
    let mut transpose: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    for u in 0..n as u32 {
        let want: Vec<(u32, u64)> = transition_row(g, model, NodeId(u))
            .iter()
            .map(|&(v, p)| (v.0, p.to_bits()))
            .collect();
        assert_eq!(
            bits(kernel.forward_row(NodeId(u))),
            want,
            "{tag}: fwd row of node {u}"
        );
        for &(v, p) in &want {
            transpose[v as usize].push((u, p));
        }
    }
    for (v, want) in transpose.iter().enumerate() {
        let got = bits(kernel.reverse_row(NodeId(v as u32)));
        assert_eq!(&got, want, "{tag}: rev row of node {v}");
    }
}

/// Seeded worlds whose spec exercises the named pathologies; panics if the
/// seed range fails to cover them (the differential would silently weaken).
fn pathological_worlds() -> Vec<(u64, WorldSpec)> {
    let p = params();
    let specs: Vec<(u64, WorldSpec)> = (0..40u64)
        .map(|seed| (seed, WorldSpec::sample_seeded(seed, &p)))
        .collect();
    assert!(
        specs.iter().any(|(_, s)| !s.bidirectional),
        "seed range must include a directed (all-items-dangling) world"
    );
    assert!(
        specs.iter().any(|(_, s)| !s.twins.is_empty()),
        "seed range must include a twin-item (exact PPR tie) world"
    );
    specs
}

#[test]
fn compact_f64_rows_match_reference_bitwise() {
    for (seed, spec) in pathological_worlds() {
        let world = spec.build();
        let model = world.cfg.rec.ppr.transition;
        let compact = CompactCsr::<f64>::build(&world.graph, model);
        assert_rows_bitwise(&world.graph, model, &compact, &format!("seed {seed}"));
    }
}

#[test]
fn compact_f32_rows_within_one_quantisation_step() {
    // f32 round-to-nearest guarantees |q − p| ≤ 2⁻²⁴·|p|; allow 2 ulp of
    // headroom for the widening back to f64 in the comparison.
    const REL: f64 = 2.0 / (1u64 << 24) as f64;
    for (seed, spec) in pathological_worlds() {
        let world = spec.build();
        let model = world.cfg.rec.ppr.transition;
        let reference = TransitionCsr::build(&world.graph, model);
        let compact = CompactCsr::<f32>::build(&world.graph, model);
        for u in 0..reference.num_nodes() {
            let node = emigre_hin::NodeId(u as u32);
            for ((rd, rp), (cd, cp)) in [
                (reference.forward_row(node), compact.forward_row(node)),
                (reference.reverse_row(node), compact.reverse_row(node)),
            ] {
                assert_eq!(rd, cd, "seed {seed}: dsts of node {u}");
                for (a, b) in rp.iter().zip(cp) {
                    let q = *b as f64;
                    assert!(
                        (q - a).abs() <= REL * a.abs(),
                        "seed {seed}: node {u}: f32 prob {q} vs f64 {a}"
                    );
                }
            }
        }
    }
}

#[test]
fn streaming_build_matches_materialized_kernels_bitwise() {
    for seed in [1u64, 7, 99] {
        let spec = ScaleSpec::with_total_nodes(1_500, seed);
        let gen = ScaleGen::new(spec);
        let model = TransitionModel::RecWalk { beta: 0.5 };
        // Chunked stream build vs. the rows of the fully materialised
        // Hin: same edges in the same order, so identical weight-sum
        // accumulation and bit-identical probabilities.
        let streamed = gen.build_compact::<f64>(model, 64);
        let hin = gen.materialize_hin();
        let tag = format!("scale seed {seed}");
        assert_rows_bitwise(&hin, model, &streamed, &format!("{tag} (stream)"));
        let view_built = CompactCsr::<f64>::build(&hin, model);
        assert_rows_bitwise(&hin, model, &view_built, &format!("{tag} (view)"));
    }
}

/// Candidate action sets for one question: every single-action removal in
/// ranked order, then the ranked prefixes (the explainer's actual probe
/// sequence). Generated once from the reference context so both kernels
/// judge the exact same sets.
fn candidate_sets<G: GraphView>(ctx: &ExplainContext<'_, G>) -> Vec<Vec<Action>> {
    let space = remove_search_space(ctx);
    let actions: Vec<Action> = space
        .candidates
        .iter()
        .map(|c| Action {
            edge: emigre_hin::EdgeKey {
                src: ctx.user,
                dst: c.node,
                etype: c.etype,
            },
            weight: c.weight,
            added: false,
        })
        .collect();
    let mut sets: Vec<Vec<Action>> = actions.iter().map(|a| vec![*a]).collect();
    for len in 2..=actions.len() {
        sets.push(actions[..len].to_vec());
    }
    sets.truncate(16);
    sets
}

#[test]
fn tester_verdicts_match_on_compact_kernel_at_threads_1_and_8() {
    let mut questions = 0usize;
    for (seed, spec) in pathological_worlds() {
        let world = spec.build();
        let model = world.cfg.rec.ppr.transition;
        let compact = Arc::new(CompactCsr::<f64>::build(&world.graph, model));
        for (user, wni) in viable_questions(&world, 2) {
            questions += 1;
            for threads in [1usize, 8] {
                let cfg = world.cfg.clone().with_parallelism(threads);
                let ctx_ref = ExplainContext::build(&world.graph, cfg.clone(), user, wni)
                    .expect("viable question stopped validating");
                let ctx_cmp = ExplainContext::build_with_kernel(
                    &world.graph,
                    cfg,
                    Arc::clone(&compact),
                    user,
                    wni,
                    ObsHandle::disabled(),
                )
                .expect("viable question stopped validating on compact kernel");
                let sets = candidate_sets(&ctx_ref);
                if sets.is_empty() {
                    continue;
                }
                let t_ref = Tester::new(&ctx_ref);
                let t_cmp = Tester::new(&ctx_cmp);
                for (i, set) in sets.iter().enumerate() {
                    assert_eq!(
                        t_ref.test(set),
                        t_cmp.test(set),
                        "seed {seed} user={user:?} wni={wni:?} set {i} \
                         diverged at parallelism {threads}"
                    );
                }
                let fp_ref = t_ref.first_passing(&sets, |_| PreCheck::Proceed);
                let fp_cmp = t_cmp.first_passing(&sets, |_| PreCheck::Proceed);
                assert_eq!(
                    fp_ref.found, fp_cmp.found,
                    "seed {seed} user={user:?} wni={wni:?}: first_passing \
                     diverged at parallelism {threads}"
                );
                assert_eq!(fp_ref.stopped, fp_cmp.stopped);
                assert_eq!(
                    t_ref.checks_performed(),
                    t_cmp.checks_performed(),
                    "seed {seed}: CHECK budget accounting diverged"
                );
            }
        }
    }
    assert!(
        questions >= 10,
        "only {questions} viable questions exercised"
    );
}

/// The explain path itself, driven through the default context (its own
/// `TransitionCsr`): repeated CHECKs of one set on one context agree.
#[test]
fn default_context_still_uses_reference_kernel() {
    let world = WorldSpec::sample_seeded(3, &params()).build();
    if let Some(&(user, wni)) = viable_questions(&world, 1).first() {
        let ctx = ExplainContext::build(&world.graph, world.cfg.clone(), user, wni).unwrap();
        let tester = Tester::new(&ctx);
        let sets = candidate_sets(&ctx);
        for set in &sets {
            // Verdicts must be deterministic across repeated CHECKs of the
            // same set on the same context (scratch-state reuse is clean).
            assert_eq!(tester.test(set), tester.test(set));
        }
    }
}
