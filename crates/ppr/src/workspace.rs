//! Reusable push workspaces: allocation-free counterfactual CHECKs.
//!
//! EMiGRe's CHECK step evaluates thousands of candidate edits per
//! explanation, and each one used to clone the user's forward-push state
//! (two `O(n)` vectors), allocate a fresh queue, and re-scan all residuals
//! for the mass bound at every precision stage. A [`PushWorkspace`]
//! amortises all of that:
//!
//! * the base push state (the user's converged [`ForwardPush`], or the zero
//!   state for from-scratch checks) is loaded **once**, and the workspace
//!   keeps a shared handle to it (`Arc`) instead of a copy;
//! * each check runs as a *transaction*: every write to a node's estimate
//!   or residual sets the node's bit in a `touched` bitset, and
//!   [`PushWorkspace::rollback`] restores exactly those nodes from the
//!   loaded base — bit-exact, in ascending node order, no cloning;
//! * each precision stage runs **Gauss–Seidel frontier sweeps**: an
//!   `active` bitset, seeded from `touched`, is scanned word by word in
//!   ascending node order and re-swept until it is empty. A push marks
//!   every neighbour whose residual it lifts above ε. Rows and residuals
//!   are therefore read in CSR order — the access pattern of a fresh
//!   [`ForwardPush::compute_kernel`] sweep — rather than in the random
//!   order a FIFO queue produces;
//! * `Σ|residual|` is maintained incrementally as residuals change, making
//!   the staged-precision mass bound an `O(1)` read instead of an `O(n)`
//!   scan per stage.
//!
//! Seeding each stage from `touched` is what keeps the check local: the
//! base state is converged at the target ε, so any node whose residual
//! exceeds a (coarser or equal) stage ε must already have been touched by
//! the transaction. Push operations are valid in any order, so the Eq. (3)
//! invariant and the ε guarantee do not depend on the sweep schedule; only
//! the estimates' sub-ε rounding does.
//!
//! Both bitsets cost `n/64` words. Scanning them is `O(n/64)` per stage
//! and per rollback — negligible next to the pushes even when a CHECK
//! touches a handful of nodes, and sequential when it touches most of the
//! graph (a remove-mode repair of the user's own row).

use crate::config::PprConfig;
use crate::forward::ForwardPush;
use crate::kernel::{CsrRows, Prob};
use emigre_hin::NodeId;
use std::sync::Arc;

/// Bits per bitset word.
const WORD: usize = u64::BITS as usize;

/// Bitset words covering `n` nodes.
#[inline]
fn words(n: usize) -> usize {
    n.div_ceil(WORD)
}

/// Calls `f` on every set bit of `bits` in ascending order, clearing the
/// words as it goes.
#[inline]
fn drain_bits(bits: &mut [u64], mut f: impl FnMut(usize)) {
    for (w, word) in bits.iter_mut().enumerate() {
        let mut b = std::mem::take(word);
        while b != 0 {
            f(w * WORD + b.trailing_zeros() as usize);
            b &= b - 1;
        }
    }
}

/// Reusable forward-push state with transactional overlay semantics.
#[derive(Debug)]
pub struct PushWorkspace {
    estimates: Vec<f64>,
    residuals: Vec<f64>,
    /// The loaded base state that rollback restores; `None` is the
    /// all-zero state of from-scratch checks.
    base: Option<Arc<ForwardPush>>,
    /// Nodes written by the current transaction, one bit per node.
    touched: Vec<u64>,
    /// Sweep frontier: nodes whose residual may exceed the running stage's
    /// ε. All-zero outside [`PushWorkspace::push_stage`].
    active: Vec<u64>,
    /// `Σ|residual|` of the loaded base state.
    base_mass: f64,
    /// Incrementally maintained `Σ|residual|` of the current state.
    mass: f64,
    /// Push operations across the workspace's lifetime.
    pushes: usize,
    /// Total |residual| mass retired by pushes across the workspace's
    /// lifetime. Cumulative like `pushes` — deliberately *not* restored by
    /// [`PushWorkspace::rollback`], so per-check deltas survive the
    /// transaction ending.
    drained: f64,
}

impl PushWorkspace {
    /// A workspace over `n` nodes with the all-zero base state (the seed
    /// state of a from-scratch push: see [`PushWorkspace::add_residual`]).
    pub fn new(n: usize) -> Self {
        PushWorkspace {
            estimates: vec![0.0; n],
            residuals: vec![0.0; n],
            base: None,
            touched: vec![0; words(n)],
            active: vec![0; words(n)],
            base_mass: 0.0,
            mass: 0.0,
            pushes: 0,
            drained: 0.0,
        }
    }

    /// Loads a converged push state as the new base. `O(n)`, once per
    /// explanation context — not per check. The workspace shares `base`
    /// for rollback rather than copying it a second time.
    pub fn load_base(&mut self, base: &Arc<ForwardPush>) {
        let n = base.estimates.len();
        self.estimates.clear();
        self.estimates.extend_from_slice(&base.estimates);
        self.residuals.clear();
        self.residuals.extend_from_slice(&base.residuals);
        self.reset_bits(n);
        self.base_mass = base.residuals.iter().map(|r| r.abs()).sum();
        self.mass = self.base_mass;
        self.base = Some(Arc::clone(base));
    }

    /// Resets to the all-zero base state over `n` nodes, keeping buffer
    /// capacity. The reuse counterpart of [`PushWorkspace::new`] for
    /// workspaces recycled across questions (e.g. a serving worker's
    /// scratch); cumulative `pushes`/`drained` tallies are preserved.
    pub fn clear(&mut self, n: usize) {
        self.estimates.clear();
        self.estimates.resize(n, 0.0);
        self.residuals.clear();
        self.residuals.resize(n, 0.0);
        self.reset_bits(n);
        self.base = None;
        self.base_mass = 0.0;
        self.mass = 0.0;
    }

    fn reset_bits(&mut self, n: usize) {
        for bits in [&mut self.touched, &mut self.active] {
            bits.clear();
            bits.resize(words(n), 0);
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.estimates.len()
    }

    /// Current estimates (base plus transaction writes).
    #[inline]
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// Current residuals (base plus transaction writes).
    #[inline]
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// Estimated `PPR(seed, t)` under the current transaction.
    #[inline]
    pub fn estimate(&self, t: NodeId) -> f64 {
        self.estimates[t.index()]
    }

    /// `Σ|residual|`, maintained incrementally — `O(1)`.
    #[inline]
    pub fn residual_mass(&self) -> f64 {
        // Incremental float updates can drift a hair below zero when the
        // true mass is ~0; the bound must stay non-negative.
        self.mass.max(0.0)
    }

    /// Total pushes across all transactions.
    #[inline]
    pub fn pushes(&self) -> usize {
        self.pushes
    }

    /// Total |residual| mass retired across all transactions (cumulative;
    /// not reset by rollback).
    #[inline]
    pub fn mass_drained(&self) -> f64 {
        self.drained
    }

    /// Nodes written by the current transaction. `O(n/64)`.
    pub fn touched_len(&self) -> usize {
        self.touched.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True between transactions: nothing to roll back. `O(n/64)`.
    pub fn is_clean(&self) -> bool {
        self.touched.iter().all(|&w| w == 0)
    }

    /// Adds `dv` to `node`'s residual (e.g. `+1.0` at the seed to start a
    /// from-scratch push), marking the node touched.
    pub fn add_residual(&mut self, node: NodeId, dv: f64) {
        let i = node.index();
        self.touched[i / WORD] |= 1 << (i % WORD);
        let old = self.residuals[i];
        let new = old + dv;
        self.residuals[i] = new;
        self.mass += new.abs() - old.abs();
    }

    /// Repairs the Eq. (3) invariant after `node`'s transition row changed
    /// from `old_row` to `new_row`, both as kernel row slices.
    ///
    /// Derivation: given estimates `p`, the unique residual satisfying the
    /// invariant is `r = e_s − (p − (1−α)·pW)/α`, so a change to row `u`
    /// shifts `r(t)` by `(1−α)/α · p(u) · ΔW(u,t)` for every affected `t`.
    /// The caller then resumes pushing ([`Self::push_stage`]) over the
    /// *patched* kernel.
    pub fn repair_row_change<P: Prob>(
        &mut self,
        cfg: &PprConfig,
        node: NodeId,
        old_row: (&[u32], &[P]),
        new_row: (&[u32], &[P]),
    ) {
        let pu = self.estimates[node.index()];
        if pu == 0.0 {
            return;
        }
        let scale = (1.0 - cfg.alpha) / cfg.alpha * pu;
        let (dsts, probs) = new_row;
        for (&t, &p) in dsts.iter().zip(probs) {
            self.add_residual(NodeId(t), scale * p.to_f64());
        }
        let (dsts, probs) = old_row;
        for (&t, &p) in dsts.iter().zip(probs) {
            self.add_residual(NodeId(t), -scale * p.to_f64());
        }
    }

    /// Pushes over `kernel` until every |residual| ≤ `eps`.
    ///
    /// Schedule: Gauss–Seidel frontier sweeps. The `active` bitset starts
    /// as a copy of `touched`; each sweep visits its set bits in ascending
    /// node order (re-reading the current word, so a node activated behind
    /// the cursor within that word is taken at once), and the sweep repeats
    /// until a pass finds no node above `eps`. Every push retires more than
    /// `α·eps` of residual mass, so the stage terminates.
    ///
    /// Requires `eps` no finer than the ε the base state was converged at:
    /// the frontier is seeded from the transaction's touched set only,
    /// which is exhaustive precisely because untouched base residuals
    /// already satisfy the base ε.
    pub fn push_stage<K: CsrRows>(&mut self, kernel: &K, cfg: &PprConfig, eps: f64) {
        // Split borrows and local tallies: the loop below is the CHECK's
        // hot path, and keeping its state in registers instead of
        // re-reading `self` fields is measurably faster.
        let PushWorkspace {
            estimates,
            residuals,
            touched,
            active,
            mass,
            pushes,
            drained,
            ..
        } = self;
        debug_assert!(active.iter().all(|&w| w == 0));
        active.copy_from_slice(touched);
        let alpha = cfg.alpha;
        let (mut m, mut d, mut p) = (*mass, *drained, *pushes);
        loop {
            let mut pushed = false;
            for w in 0..active.len() {
                while active[w] != 0 {
                    let bits = active[w];
                    active[w] = bits & (bits - 1);
                    let u = w * WORD + bits.trailing_zeros() as usize;
                    let r = residuals[u];
                    if r.abs() <= eps {
                        continue;
                    }
                    // `u` is already touched: the frontier only ever holds
                    // touched nodes.
                    pushed = true;
                    residuals[u] = 0.0;
                    m -= r.abs();
                    d += r.abs();
                    estimates[u] += alpha * r;
                    p += 1;
                    let (dsts, probs) = kernel.forward_row(NodeId(u as u32));
                    spread_row(
                        residuals,
                        touched,
                        active,
                        dsts,
                        probs,
                        (1.0 - alpha) * r,
                        eps,
                        &mut m,
                    );
                }
            }
            if !pushed {
                break;
            }
        }
        (*mass, *drained, *pushes) = (m, d, p);
    }

    /// Restores the base state in `O(nodes touched + n/64)` and ends the
    /// transaction: every touched node gets the loaded base's estimate and
    /// residual back (zeros for a from-scratch workspace), bit-exact.
    pub fn rollback(&mut self) {
        let PushWorkspace {
            estimates,
            residuals,
            base,
            touched,
            ..
        } = self;
        match base.as_deref() {
            Some(b) => drain_bits(touched, |i| {
                estimates[i] = b.estimates[i];
                residuals[i] = b.residuals[i];
            }),
            None => drain_bits(touched, |i| {
                estimates[i] = 0.0;
                residuals[i] = 0.0;
            }),
        }
        self.mass = self.base_mass;
    }
}

/// Spreads `spread · probs[j]` onto each `dsts[j]`'s residual — the
/// innermost loop of every push — marking each destination touched and,
/// when its residual now exceeds `eps`, active. Runs in fixed-size chunks:
/// the dense `spread × probs` multiply autovectorises into a stack buffer,
/// and the scatter pass then applies precomputed increments. Each entry
/// still computes `old + (spread * p)`, so results are bit-identical to
/// the fused scalar loop (rustc does not contract `a + b * c` into an
/// FMA).
#[inline]
#[allow(clippy::too_many_arguments)] // split borrows of one workspace
fn spread_row<P: Prob>(
    residuals: &mut [f64],
    touched: &mut [u64],
    active: &mut [u64],
    dsts: &[u32],
    probs: &[P],
    spread: f64,
    eps: f64,
    mass: &mut f64,
) {
    const CHUNK: usize = 32;
    let mut add = [0.0f64; CHUNK];
    let mut m = *mass;
    for (dc, pc) in dsts.chunks(CHUNK).zip(probs.chunks(CHUNK)) {
        for (a, &p) in add.iter_mut().zip(pc) {
            *a = spread * p.to_f64();
        }
        for (&v, &a) in dc.iter().zip(&add) {
            let vi = v as usize;
            let (w, bit) = (vi / WORD, 1u64 << (vi % WORD));
            touched[w] |= bit;
            let old = residuals[vi];
            let new = old + a;
            residuals[vi] = new;
            m += new.abs() - old.abs();
            active[w] |= if new.abs() > eps { bit } else { 0 };
        }
    }
    *mass = m;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TransitionCsr;
    use crate::power::ppr_power;
    use crate::transition::TransitionModel;
    use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin};

    fn cfg(eps: f64) -> PprConfig {
        PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: eps,
            tolerance: 1e-14,
            max_iterations: 10_000,
            ..PprConfig::default()
        }
    }

    fn ring_with_chords(n: usize) -> Hin {
        let mut g = Hin::new();
        let nt = g.registry_mut().node_type("n");
        let et = g.registry_mut().edge_type("e");
        let nodes: Vec<_> = (0..n).map(|_| g.add_node(nt, None)).collect();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n], et, 1.0).unwrap();
            g.add_edge(nodes[i], nodes[(i + 3) % n], et, 2.0).unwrap();
        }
        g
    }

    /// Order-free facts of a from-scratch transaction: the incremental mass
    /// is the workspace's own `Σ|r|`, and every estimate lies within the
    /// Eq. (3) bound `Σ|r| · max_x PPR(x,t) ≤ Σ|r|` of the exact PPR.
    #[test]
    fn scratch_transaction_tracks_mass_within_eq3_bound() {
        let g = ring_with_chords(10);
        let c = cfg(1e-9);
        let csr = TransitionCsr::build(&g, c.transition);
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.add_residual(NodeId(0), 1.0);
        ws.push_stage(&csr, &c, c.epsilon);
        assert!(ws.residuals().iter().all(|r| r.abs() <= c.epsilon));
        let recomputed: f64 = ws.residuals().iter().map(|r| r.abs()).sum();
        assert!(
            (ws.residual_mass() - recomputed).abs() < 1e-12,
            "incremental {} vs recomputed {recomputed}",
            ws.residual_mass()
        );
        let exact = ppr_power(&g, &c, NodeId(0));
        // Slack for the power iteration's own 1e-14 tolerance.
        let bound = ws.residual_mass() + 1e-12;
        for (t, (&p, &x)) in ws.estimates().iter().zip(&exact).enumerate() {
            assert!(
                (p - x).abs() <= bound,
                "t={t}: {p} vs exact {x} (bound {bound:e})"
            );
        }
        ws.rollback();
        assert!(ws.estimates().iter().all(|&e| e == 0.0));
        assert!(ws.residual_mass() == 0.0);
    }

    /// A repaired-and-pushed transaction reaches the edited graph's PPR:
    /// within 1e-6 of power iteration on the overlay, and within the push
    /// tolerance of a fresh push over the patched kernel. Covers an edge
    /// removal and an insertion.
    #[test]
    fn dynamic_transaction_matches_the_edited_graph() {
        let g = ring_with_chords(10);
        let c = cfg(1e-9);
        let et = g.registry().find_edge_type("e").unwrap();
        let csr = TransitionCsr::build(&g, c.transition);
        let base = Arc::new(ForwardPush::compute_kernel(&csr, &c, NodeId(0)));
        let mut removal = GraphDelta::new();
        removal.remove_edge(EdgeKey::new(NodeId(0), NodeId(1), et));
        let mut insertion = GraphDelta::new();
        insertion.add_edge(EdgeKey::new(NodeId(2), NodeId(7), et), 5.0);

        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.load_base(&base);
        for d in [removal, insertion] {
            let view = d.overlay(&g);
            let touched = d.touched_sources();
            let patched = csr.patched(&view, &touched);
            for &u in &touched {
                ws.repair_row_change(&c, u, csr.forward_row(u), patched.forward_row(u));
            }
            ws.push_stage(&patched, &c, c.epsilon);

            let exact = ppr_power(&view, &c, NodeId(0));
            let fresh = ForwardPush::compute_kernel(&patched, &c, NodeId(0));
            let rows = ws.estimates().iter().zip(&exact).zip(&fresh.estimates);
            for (t, ((&p, &x), &f)) in rows.enumerate() {
                assert!((p - x).abs() < 1e-6, "t={t}: {p} vs exact {x}");
                assert!((p - f).abs() < 1e-7, "t={t}: {p} vs fresh {f}");
            }
            ws.rollback();
        }
    }

    #[test]
    fn rollback_restores_base_exactly_across_many_transactions() {
        let g = ring_with_chords(12);
        let c = cfg(1e-8);
        let et = g.registry().find_edge_type("e").unwrap();
        let csr = TransitionCsr::build(&g, c.transition);
        let base = Arc::new(ForwardPush::compute_kernel(&csr, &c, NodeId(3)));
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.load_base(&base);
        let snapshot_est = ws.estimates().to_vec();
        let snapshot_res = ws.residuals().to_vec();
        let snapshot_mass = ws.residual_mass();

        for round in 0..20u32 {
            let mut d = GraphDelta::new();
            let dst = NodeId((round % 11) + 1);
            if g.has_edge(NodeId(3), dst, et) {
                d.remove_edge(EdgeKey::new(NodeId(3), dst, et));
            } else {
                d.add_edge(EdgeKey::new(NodeId(3), dst, et), 1.0 + round as f64);
            }
            let view = d.overlay(&g);
            let touched = d.touched_sources();
            let patched = csr.patched(&view, &touched);
            for &u in &touched {
                ws.repair_row_change(&c, u, csr.forward_row(u), patched.forward_row(u));
            }
            ws.push_stage(&patched, &c, c.epsilon);
            ws.rollback();
            assert!(ws.is_clean());
            assert_eq!(ws.estimates(), &snapshot_est[..], "round {round}");
            assert_eq!(ws.residuals(), &snapshot_res[..], "round {round}");
            assert_eq!(ws.residual_mass(), snapshot_mass);
        }
    }

    #[test]
    fn staged_epsilon_refinement_within_one_transaction() {
        let g = ring_with_chords(10);
        let c = cfg(1e-9);
        let csr = TransitionCsr::build(&g, c.transition);
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.add_residual(NodeId(2), 1.0);
        ws.push_stage(&csr, &c, 1e-3);
        let coarse_mass = ws.residual_mass();
        ws.push_stage(&csr, &c, 1e-9);
        assert!(ws.residual_mass() <= coarse_mass + 1e-12);
        let reference = ForwardPush::compute_kernel(&csr, &c, NodeId(2));
        for t in 0..10 {
            assert!((ws.estimates()[t] - reference.estimates[t]).abs() < 1e-7);
        }
        ws.rollback();
    }

    #[test]
    fn transactions_do_not_reallocate_buffers() {
        let g = ring_with_chords(16);
        let c = cfg(1e-8);
        let csr = TransitionCsr::build(&g, c.transition);
        let base = Arc::new(ForwardPush::compute_kernel(&csr, &c, NodeId(0)));
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.load_base(&base);
        let et = g.registry().find_edge_type("e").unwrap();

        // Warm up one transaction (the bitsets never grow after load).
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(NodeId(0), NodeId(1), et));
        let view = d.overlay(&g);
        let patched = csr.patched(&view, &d.touched_sources());
        for &u in &d.touched_sources() {
            ws.repair_row_change(&c, u, csr.forward_row(u), patched.forward_row(u));
        }
        ws.push_stage(&patched, &c, c.epsilon);
        ws.rollback();

        let est_ptr = ws.estimates.as_ptr();
        let res_ptr = ws.residuals.as_ptr();
        let touched_ptr = ws.touched.as_ptr();
        let active_ptr = ws.active.as_ptr();
        for _ in 0..50 {
            for &u in &d.touched_sources() {
                ws.repair_row_change(&c, u, csr.forward_row(u), patched.forward_row(u));
            }
            ws.push_stage(&patched, &c, c.epsilon);
            ws.rollback();
        }
        assert_eq!(ws.estimates.as_ptr(), est_ptr);
        assert_eq!(ws.residuals.as_ptr(), res_ptr);
        assert_eq!(ws.touched.as_ptr(), touched_ptr);
        assert_eq!(ws.active.as_ptr(), active_ptr);
        assert!(ws.is_clean());
    }
}
