//! # emigre-ppr — Personalized PageRank engines
//!
//! The EMiGRe paper scores user-item relevance with Personalized PageRank
//! (PPR, Jeh & Widom) over a Heterogeneous Information Network, and keeps it
//! tractable with the **Forward Local Push** and **Reverse Local Push**
//! approximations of Zhang, Lofgren & Goel (KDD'16), including their
//! dynamic-graph residual repair. This crate implements all of it:
//!
//! * [`power`] — dense power iteration; the exact reference every
//!   approximation is validated against;
//! * [`forward`] — Forward Local Push from a source node, maintaining the
//!   invariant of the paper's Eq. (3):
//!   `PPR(s,t) = p(t) + Σ_x r(x)·PPR(x,t)`;
//! * [`reverse`] — Reverse Local Push towards a target node, maintaining the
//!   invariant of Eq. (4): `PPR(s,t) = p(s) + Σ_x PPR(s,x)·r(x)`;
//! * [`monte_carlo`] — α-terminated random-walk estimation, the sampling
//!   engine Zhang et al. pair with reverse push;
//! * [`transition`] — the random-walk transition models (weighted, uniform,
//!   and the RecWalk-style β-mix the paper configures with β = 0.5);
//! * [`kernel`] — the flat-CSR transition matrix every push runs over
//!   ([`kernel::CompactCsr`], `f64` instance [`kernel::TransitionCsr`])
//!   with delta-aware row patching ([`kernel::PatchedCsr`]);
//! * [`workspace`] — reusable transactional push state
//!   ([`workspace::PushWorkspace`]) making the counterfactual CHECK free of
//!   per-call `O(n)` allocations: a closed-form residual repair of each
//!   changed row, then per precision stage Gauss–Seidel frontier sweeps
//!   over an `active` bitset in ascending node order; rollback restores
//!   the nodes in a `touched` bitset from the shared, loaded base state;
//! * [`topk`] — deterministic top-k extraction with exclusion sets.
//!
//! The push engines read a kernel through [`kernel::CsrRows`]; a graph
//! (any [`emigre_hin::GraphView`]: the base graph, a snapshot, or a
//! counterfactual [`emigre_hin::DeltaView`] overlay) enters only when a
//! kernel or a patched row is built from it. [`power`] and [`monte_carlo`]
//! walk the view directly: they are the references the push engines are
//! checked against.

pub mod config;
pub mod forward;
pub mod kernel;
pub mod monte_carlo;
pub mod power;
pub mod reverse;
pub mod topk;
pub mod transition;
pub mod workspace;

pub use config::PprConfig;
pub use forward::ForwardPush;
pub use kernel::{CompactCsr, CsrRows, PatchedCsr, Prob, RowCache, RowKey, TransitionCsr};
pub use monte_carlo::ppr_monte_carlo;
pub use power::ppr_power;
pub use reverse::ReversePush;
pub use topk::{rank_of, top_k};
pub use transition::{transition_row, transition_row_into, TransitionModel};
pub use workspace::PushWorkspace;
