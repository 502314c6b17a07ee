//! Scale-invariant correctness of the local-push engines.
//!
//! Local push maintains the Eq. (3) invariant by construction, and two
//! global counters follow from it *at any graph size*:
//!
//! * **Mass conservation** — forward push from a seed starts with one
//!   unit of residual mass; every push moves `α·r` into estimates and
//!   `(1−α)·r` back into residuals (or drops it at a dangling row), so
//!   `Σ estimates + Σ residuals ≤ 1`, with equality on dangling-free
//!   graphs, up to floating-point accumulation. The estimate total is
//!   exactly `α ·` drained mass by the same argument.
//! * **Push-work bound** — a node is pushed only while its residual
//!   exceeds ε, so each push drains > ε and the push count is at most
//!   `drained / ε`.
//!
//! The point of this suite is that the bounds are *scale-invariant*: the
//! same assertions run on 10 k-node (always) and 100 k-node (release
//! builds, the CI `scale` job) streaming power-law graphs, and as a
//! proptest over small pathological worlds — dangling items included,
//! where conservation degrades to an inequality.
//!
//! The CHECK's transactional push ([`PushWorkspace`]) gets the same
//! treatment on its widest input: a remove-mode repair of the seed's own
//! row, which re-pushes most of the user's mass and so touches nearly
//! every node — the shape of a large-graph remove CHECK.

use emigre_core::{explanation::actions_to_delta, Action};
use emigre_data::{ScaleGen, ScaleSpec};
use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin, NodeId, NodeTypeId};
use emigre_ppr::{
    CompactCsr, CsrRows, ForwardPush, PprConfig, PushWorkspace, ReversePush, TransitionCsr,
    TransitionModel,
};
use emigre_testkit::{DenseOracle, WorldParams, WorldSpec, ORACLE_TOLERANCE};
use proptest::prelude::*;
use std::sync::Arc;

/// Graph sizes under test. The 100 k leg multiplies debug-build runtime
/// roughly tenfold for no extra coverage of *logic* (only of scale), so it
/// runs in release builds only — which is exactly where CI's `scale` job
/// executes this suite.
fn scale_sizes() -> Vec<(usize, f64)> {
    let mut sizes = vec![(10_000, 1e-7)];
    if !cfg!(debug_assertions) {
        sizes.push((100_000, 1e-6));
    }
    sizes
}

/// Accumulation-error budget for a run that performed `pushes` pushes:
/// each push touches O(mean-degree) f64 additions, each contributing at
/// most one rounding of ~1e-16 relative; 1e-12 per push is three orders
/// of magnitude of headroom without masking real accounting bugs.
fn ulp_budget(pushes: usize) -> f64 {
    1e-9_f64.max(1e-12 * pushes as f64)
}

fn scale_kernel(total_nodes: usize, seed: u64) -> CompactCsr<f64> {
    let spec = ScaleSpec::with_total_nodes(total_nodes, seed);
    ScaleGen::new(spec).build_compact::<f64>(TransitionModel::RecWalk { beta: 0.5 }, 8_192)
}

#[test]
fn forward_push_conserves_mass_at_scale() {
    for (total, epsilon) in scale_sizes() {
        let kernel = scale_kernel(total, 0x00E5_CA1E ^ total as u64);
        let cfg = PprConfig::default().with_epsilon(epsilon);
        // Users are ids 0..num_users; user 0 always has out-edges.
        let fwd = ForwardPush::compute_kernel(&kernel, &cfg, NodeId(0));
        let est: f64 = fwd.estimates.iter().sum();
        let res: f64 = fwd.residuals.iter().sum();
        let tol = ulp_budget(fwd.pushes);
        // The generator mirrors every edge, so every reachable node has
        // out-edges and no mass can fall off the graph: exact conservation.
        assert!(
            (est + res - 1.0).abs() <= tol,
            "n={total}: Σest + Σres = {} (|Δ| = {:e} > {tol:e})",
            est + res,
            (est + res - 1.0).abs()
        );
        assert!(
            (est - cfg.alpha * fwd.drained).abs() <= tol,
            "n={total}: Σest = {est} but α·drained = {}",
            cfg.alpha * fwd.drained
        );
        assert!(fwd.pushes > 0, "n={total}: seed push never happened");
    }
}

#[test]
fn forward_push_work_is_bounded_at_scale() {
    for (total, epsilon) in scale_sizes() {
        let kernel = scale_kernel(total, 0xB0B ^ total as u64);
        let cfg = PprConfig::default().with_epsilon(epsilon);
        let fwd = ForwardPush::compute_kernel(&kernel, &cfg, NodeId(0));
        let bound = fwd.drained / epsilon;
        assert!(
            (fwd.pushes as f64) <= bound * (1.0 + 1e-9) + 1.0,
            "n={total}: {} pushes exceeds drained/ε = {bound}",
            fwd.pushes
        );
    }
}

#[test]
fn reverse_push_invariants_hold_at_scale() {
    for (total, epsilon) in scale_sizes() {
        let kernel = scale_kernel(total, 0xCAFE ^ total as u64);
        let cfg = PprConfig::default().with_epsilon(epsilon);
        // Item ids start after the users; under the popularity Zipf the
        // first item is the head of the distribution, guaranteeing edges.
        let spec = ScaleSpec::with_total_nodes(total, 0xCAFE ^ total as u64);
        let target = NodeId(spec.num_users as u32);
        let rev = ReversePush::compute_kernel(&kernel, &cfg, target);
        let tol = ulp_budget(rev.pushes);
        let est: f64 = rev.estimates.iter().sum();
        assert!(
            (est - cfg.alpha * rev.drained).abs() <= tol.max(1e-12 * est.abs()),
            "n={total}: Σest = {est} but α·drained = {}",
            cfg.alpha * rev.drained
        );
        let bound = rev.drained / epsilon;
        assert!(
            (rev.pushes as f64) <= bound * (1.0 + 1e-9) + 1.0,
            "n={total}: {} reverse pushes exceeds drained/ε = {bound}",
            rev.pushes
        );
        assert!(rev.pushes > 0, "n={total}: target push never happened");
    }
}

/// Estimates must also agree between layouts at scale: the f32 kernel
/// quantises transition probabilities but the push *accounting* (which
/// runs in f64) must satisfy the same global invariants.
#[test]
fn f32_kernel_satisfies_same_invariants() {
    let (total, epsilon) = scale_sizes()[0];
    let spec = ScaleSpec::with_total_nodes(total, 0xF32 ^ total as u64);
    let kernel =
        ScaleGen::new(spec).build_compact::<f32>(TransitionModel::RecWalk { beta: 0.5 }, 8_192);
    let cfg = PprConfig::default().with_epsilon(epsilon);
    let fwd = ForwardPush::compute_kernel(&kernel, &cfg, NodeId(0));
    let est: f64 = fwd.estimates.iter().sum();
    let res: f64 = fwd.residuals.iter().sum();
    // f32 rows are quantised: a degree-d row's probabilities sum to 1 only
    // within ~d · 2⁻²⁴, so each push leaks (or gains) that fraction of its
    // spread mass. Total drift is bounded by drained · max-degree · 2⁻²⁴;
    // 4096 covers the head item's in-degree with an order of headroom.
    let tol = ulp_budget(fwd.pushes).max(fwd.drained * 4096.0 / (1u64 << 24) as f64);
    assert!(
        (est + res - 1.0).abs() <= tol,
        "f32: Σest + Σres = {} (tol {tol:e})",
        est + res
    );
    assert!((fwd.pushes as f64) <= fwd.drained / epsilon * (1.0 + 1e-9) + 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The same invariants on small seeded pathological worlds — here
    /// dangling items exist (directed worlds), so conservation becomes an
    /// inequality: mass pushed into a dangling row is drained but never
    /// redistributed.
    #[test]
    fn push_invariants_hold_on_pathological_worlds(seed in 0u64..500) {
        let p = WorldParams {
            max_users: 10,
            max_items: 12,
            max_categories: 3,
            density: 0.4,
            pathologies: true,
        };
        let world = WorldSpec::sample_seeded(seed, &p).build();
        let model = world.cfg.rec.ppr.transition;
        let kernel = CompactCsr::<f64>::build(&world.graph, model);
        let cfg = world.cfg.rec.ppr;
        for &user in world.users.iter().take(3) {
            let fwd = ForwardPush::compute_kernel(&kernel, &cfg, user);
            let est: f64 = fwd.estimates.iter().sum();
            let res: f64 = fwd.residuals.iter().sum();
            let tol = ulp_budget(fwd.pushes);
            prop_assert!(est + res <= 1.0 + tol,
                "Σest + Σres = {} > 1", est + res);
            prop_assert!((est - cfg.alpha * fwd.drained).abs() <= tol,
                "Σest = {est} vs α·drained = {}", cfg.alpha * fwd.drained);
            prop_assert!((fwd.pushes as f64) <= fwd.drained / cfg.epsilon * (1.0 + 1e-9) + 1.0,
                "{} pushes exceeds drained/ε", fwd.pushes);
        }
    }

    /// Dangling-free (bidirectional) worlds restore exact conservation —
    /// the equality leg of the invariant, kernel-independent.
    #[test]
    fn bidirectional_worlds_conserve_exactly(seed in 0u64..500) {
        let p = WorldParams {
            max_users: 8,
            max_items: 10,
            max_categories: 2,
            density: 0.5,
            pathologies: false,
        };
        let mut spec = WorldSpec::sample_seeded(seed, &p);
        spec.bidirectional = true;
        let world = spec.build();
        let model = world.cfg.rec.ppr.transition;
        let kernel = CompactCsr::<f64>::build(&world.graph, model);
        let cfg = world.cfg.rec.ppr;
        if let Some(&user) = world.users.first() {
            let fwd = ForwardPush::compute_kernel(&kernel, &cfg, user);
            // A user with no actions is a dangling row even here; skip.
            if kernel.forward_row(user).0.is_empty() {
                return Ok(());
            }
            let est: f64 = fwd.estimates.iter().sum();
            let res: f64 = fwd.residuals.iter().sum();
            let tol = ulp_budget(fwd.pushes);
            prop_assert!((est + res - 1.0).abs() <= tol,
                "Σest + Σres = {} (|Δ| > {tol:e})", est + res);
        }
    }
}

/// `Σ_t PPR(x, t)` for every `x` on the oracle's graph: the fixed point of
/// `s = α·1 + (1−α)·W·s`, iterated down from the all-ones upper bound. It
/// is 1 wherever no walk from `x` can reach a dangling row, and smaller
/// where mass falls off the graph.
fn exact_row_sums(oracle: &DenseOracle, alpha: f64) -> Vec<f64> {
    let n = oracle.num_nodes();
    let mut sums = vec![1.0f64; n];
    loop {
        let next: Vec<f64> = (0..n as u32)
            .map(|u| {
                let walk: f64 = (0..n as u32)
                    .map(|v| oracle.transition(NodeId(u), NodeId(v)) * sums[v as usize])
                    .sum();
                alpha + (1.0 - alpha) * walk
            })
            .collect();
        let diff: f64 = sums.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        sums = next;
        if diff <= ORACLE_TOLERANCE {
            return sums;
        }
    }
}

/// What one transaction left in the workspace, before its rollback.
struct Transaction<'a> {
    round: usize,
    /// Index into the edits.
    edit: usize,
    ws: &'a PushWorkspace,
    /// Pushes and drained mass of this transaction alone.
    pushes: usize,
    drained: f64,
}

/// Runs 50 consecutive CHECK-shaped transactions on `kernel`, cycling
/// through `edits` (each removes one of `user`'s item edges, as the
/// explainer's remove actions do): repair the touched rows, push through the CHECK's staged ε ladder, hand the state to
/// `check`, roll back. Asserts after each one that the incremental `Σ|r|`
/// matches the residuals and that rollback restores the loaded base
/// bit-exactly. Returns the mean share of the base push's reached nodes a
/// transaction touched.
fn own_row_transactions<K: CsrRows>(
    graph: &Hin,
    kernel: &K,
    ppr: &PprConfig,
    user: NodeId,
    edits: &[GraphDelta],
    mut check: impl FnMut(Transaction<'_>),
) -> f64 {
    let base = Arc::new(ForwardPush::compute_kernel(kernel, ppr, user));
    let mut ws = PushWorkspace::new(kernel.num_nodes());
    ws.load_base(&base);
    let (base_est, base_res) = (ws.estimates().to_vec(), ws.residuals().to_vec());
    let base_mass = ws.residual_mass();
    // Isolated nodes (items nobody rated) can never be touched.
    let reached = base_est
        .iter()
        .zip(&base_res)
        .filter(|&(&p, &r)| p != 0.0 || r != 0.0)
        .count();
    let mut touched_share = 0.0;
    for round in 0..50 {
        let edit = round % edits.len();
        let view = edits[edit].overlay(graph);
        let touched = edits[edit].touched_sources();
        let patched = kernel.patched(&view, &touched);
        let (pushes_before, drained_before) = (ws.pushes(), ws.mass_drained());
        for &u in &touched {
            ws.repair_row_change(ppr, u, kernel.forward_row(u), patched.forward_row(u));
        }
        let mut eps = 1e-3_f64.max(ppr.epsilon);
        loop {
            ws.push_stage(&patched, ppr, eps);
            if eps <= ppr.epsilon {
                break;
            }
            eps = (eps * 0.03).max(ppr.epsilon);
        }
        touched_share += ws.touched_len() as f64 / reached as f64;
        let recomputed: f64 = ws.residuals().iter().map(|r| r.abs()).sum();
        assert!(
            (ws.residual_mass() - recomputed).abs() <= 1e-12,
            "round {round}: incremental Σ|r| drifted"
        );
        check(Transaction {
            round,
            edit,
            ws: &ws,
            pushes: ws.pushes() - pushes_before,
            drained: ws.mass_drained() - drained_before,
        });

        ws.rollback();
        assert!(ws.is_clean(), "round {round}");
        assert_eq!(ws.estimates(), &base_est[..], "round {round}: estimates");
        assert_eq!(ws.residuals(), &base_res[..], "round {round}: residuals");
        assert_eq!(ws.residual_mass(), base_mass, "round {round}: mass");
    }
    touched_share / 50.0
}

/// Removal of each of `user`'s item edges (and its mirror) whose item
/// keeps another edge, so no edit strands the item: the streaming graphs'
/// dangling-free remove edits.
fn own_row_removals(graph: &Hin, item_type: NodeTypeId, user: NodeId) -> Vec<GraphDelta> {
    let mut edits = Vec::new();
    graph.for_each_out(user, |v, et, _| {
        if graph.node_type(v) == item_type && graph.out_degree(v) >= 2 {
            let mut d = GraphDelta::new();
            d.remove_edge(EdgeKey::new(user, v, et));
            d.remove_edge(EdgeKey::new(v, user, et));
            edits.push(d);
        }
    });
    edits
}

/// Whole-graph CHECK transactions on small pathological worlds, dangling
/// nodes included, over the reference and the f32 compact layouts: a
/// remove-mode repair of the user's own row, checked after every push
/// against the dense oracle on the edited graph —
///
/// * the Eq. (3) invariant summed over targets,
///   `Σ_t p(t) + Σ_x r(x)·S(x) = S(user)` with `S` the exact PPR row sums
///   (on dangling-free graphs `S ≡ 1` and this reads `Σest + Σres = 1`);
/// * every estimate within the Eq. (3) bound `Σ|r|` of the exact PPR;
///
/// plus bit-exact rollback over 50 consecutive transactions.
#[test]
fn own_row_remove_transactions_conserve_and_roll_back() {
    let params = WorldParams {
        max_users: 10,
        max_items: 12,
        max_categories: 3,
        density: 0.4,
        pathologies: true,
    };
    let ppr = PprConfig::default().with_epsilon(1e-10);
    let (mut worlds, mut dangling, mut seed) = (0, 0, 0u64);
    let mut shares = Vec::new();
    while worlds < 24 {
        let world = WorldSpec::sample_seeded(seed, &params).build_with(ppr);
        seed += 1;
        let g = &world.graph;
        // The explainer's remove actions on the first user with item edges.
        let Some((user, edits)) = world
            .users
            .iter()
            .map(|&u| {
                let mut edits = Vec::new();
                g.for_each_out(u, |v, et, w| {
                    if g.node_type(v) == world.item_type {
                        let action = Action::remove(EdgeKey::new(u, v, et), w);
                        edits.push(actions_to_delta(&[action], &world.cfg));
                    }
                });
                (u, edits)
            })
            .find(|(_, edits)| !edits.is_empty())
        else {
            continue;
        };
        worlds += 1;
        dangling += usize::from((0..g.num_nodes() as u32).any(|i| g.out_degree(NodeId(i)) == 0));
        // One oracle per distinct edit, reused as the transactions cycle.
        let exact: Vec<(Vec<f64>, Vec<f64>)> = edits
            .iter()
            .map(|d| {
                let edited = d.apply_to(g).expect("the removed edges exist");
                let oracle = DenseOracle::build(&edited, &ppr);
                (oracle.ppr_row(user), exact_row_sums(&oracle, ppr.alpha))
            })
            .collect();
        // f32 rows round each probability by ≤ 2⁻²⁴ relative, so each row
        // moves by ≤ 2⁻²⁴ in L1 and the PPR row by ≤ (1−α)/α · 2⁻²⁴.
        let f32_quant = (1.0 - ppr.alpha) / ppr.alpha * f64::from(f32::EPSILON);
        let check = |quant: f64| {
            let exact = &exact;
            move |t: Transaction<'_>| {
                let (row, sums) = &exact[t.edit];
                let round = t.round;
                let mass = t.ws.residual_mass();
                let est: f64 = t.ws.estimates().iter().sum();
                let weighted: f64 = t.ws.residuals().iter().zip(sums).map(|(r, s)| r * s).sum();
                let want = sums[user.index()];
                assert!(
                    (est + weighted - want).abs() <= 1e-9 + quant,
                    "round {round}: Σest + Σr·S = {} but S(user) = {want}",
                    est + weighted
                );
                for (i, (&p, &x)) in t.ws.estimates().iter().zip(row).enumerate() {
                    assert!(
                        (p - x).abs() <= mass + 1e-9 + quant,
                        "round {round}, node {i}: estimate {p} vs exact {x} (Σ|r| = {mass:e})"
                    );
                }
            }
        };
        let model = ppr.transition;
        let reference = TransitionCsr::build(g, model);
        shares.push(own_row_transactions(
            g,
            &reference,
            &ppr,
            user,
            &edits,
            check(0.0),
        ));
        let compact = CompactCsr::<f32>::build(g, model);
        own_row_transactions(g, &compact, &ppr, user, &edits, check(f32_quant));
    }
    assert!(
        dangling > 0,
        "the pathological worlds must include dangling nodes"
    );
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    assert!(
        mean > 0.5,
        "an own-row repair should touch most of the graph, touched {mean:.2} on average"
    );
}

/// The same transactions on the streaming power-law graphs, where no
/// oracle fits: user 0's own-row repairs over the f64 and f32 compact
/// layouts. No edit strands a node, so the graph stays dangling-free and
/// `Σest + Σres = 1` holds up to accumulation (and, for f32, row
/// quantisation).
#[test]
fn own_row_remove_transactions_at_scale() {
    for (total, epsilon) in scale_sizes() {
        let spec = ScaleSpec::with_total_nodes(total, 0xD0D0 ^ total as u64);
        let gen = ScaleGen::new(spec);
        let graph = gen.materialize_hin();
        let item_type = graph
            .registry()
            .find_node_type("item")
            .expect("generator types");
        let user = NodeId(0);
        let edits = own_row_removals(&graph, item_type, user);
        assert!(
            graph.out_degree(user) >= 2 && !edits.is_empty(),
            "n={total}: user 0 needs a removable edge"
        );
        let model = TransitionModel::RecWalk { beta: 0.5 };
        let ppr = PprConfig::default().with_epsilon(epsilon);
        // `leak` bounds conservation drift per unit of drained mass: zero
        // for f64 rows; f32 rows sum to 1 within ~d·2⁻²⁴, and 4096 covers
        // the head item's degree, as in `f32_kernel_satisfies_same_invariants`.
        let conserves = |base: ForwardPush, leak: f64| {
            move |t: Transaction<'_>| {
                let est: f64 = t.ws.estimates().iter().sum();
                let res: f64 = t.ws.residuals().iter().sum();
                let drained = base.drained + t.drained;
                let tol = ulp_budget(base.pushes + t.pushes) + leak * drained;
                assert!(
                    (est + res - 1.0).abs() <= tol,
                    "n={total}, round {}: Σest + Σres = {} (tol {tol:e})",
                    t.round,
                    est + res
                );
            }
        };
        let f64_kernel = gen.build_compact::<f64>(model, 8_192);
        let base = ForwardPush::compute_kernel(&f64_kernel, &ppr, user);
        let share = own_row_transactions(
            &graph,
            &f64_kernel,
            &ppr,
            user,
            &edits,
            conserves(base, 0.0),
        );
        assert!(
            share > 0.5,
            "n={total}: an own-row repair touched only {share:.2} of the reached nodes"
        );
        let f32_kernel = gen.build_compact::<f32>(model, 8_192);
        let base = ForwardPush::compute_kernel(&f32_kernel, &ppr, user);
        let leak = 4096.0 / (1u64 << 24) as f64;
        own_row_transactions(
            &graph,
            &f32_kernel,
            &ppr,
            user,
            &edits,
            conserves(base, leak),
        );
    }
}
