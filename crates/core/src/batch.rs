//! Batch explanation of a whole recommendation list.
//!
//! The paper's experiment (§6.2) asks a Why-Not question for *every* item
//! of a user's top-10 list except the first — nine questions that share
//! the user's forward-push state, the recommendation list, and the
//! `PPR(·, rec)` column, and differ only in the `PPR(·, WNI)` column.
//! [`batch_contexts`] computes the shared artefacts once, cutting the
//! per-question setup from three push runs to one.

use crate::config::EmigreConfig;
use crate::context::{ExplainContext, UserArtifacts};
use crate::explainer::{Explainer, Method};
use crate::explanation::Explanation;
use crate::failure::ExplainFailure;
use crate::question::{QuestionError, WhyNotQuestion};
use emigre_hin::{GraphView, NodeId};
use emigre_obs::{ObsHandle, Op};
use emigre_ppr::{PushWorkspace, ReversePush, TransitionCsr};
use std::sync::Arc;

/// Builds contexts for several Why-Not items of the same user, sharing the
/// user push, recommendation list and `PPR(·, rec)` column across them.
///
/// Returns one entry per requested item, in order: a built context or the
/// question-validation error for that item.
pub fn batch_contexts<'g, G: GraphView>(
    graph: &'g G,
    cfg: &EmigreConfig,
    user: NodeId,
    wnis: &[NodeId],
) -> Vec<Result<ExplainContext<'g, G>, QuestionError>> {
    batch_contexts_with_obs(graph, cfg, user, wnis, ObsHandle::ambient())
}

/// [`batch_contexts`] with an explicit observability handle. The handle is
/// shared by every produced context, so counters aggregate across the whole
/// batch; the shared user push and `PPR(·, rec)` column are counted once,
/// not once per question.
pub fn batch_contexts_with_obs<'g, G: GraphView>(
    graph: &'g G,
    cfg: &EmigreConfig,
    user: NodeId,
    wnis: &[NodeId],
    obs: ObsHandle,
) -> Vec<Result<ExplainContext<'g, G>, QuestionError>> {
    match shared_artifacts(graph, cfg, user, &obs) {
        Ok(artifacts) => contexts_from_artifacts(graph, cfg, &artifacts, wnis, &obs),
        Err(e) => wnis.iter().map(|_| Err(e)).collect(),
    }
}

/// The user's shared artefacts over a fresh kernel — identical to what
/// [`ExplainContext::build`] computes for each question.
fn shared_artifacts<G: GraphView>(
    graph: &G,
    cfg: &EmigreConfig,
    user: NodeId,
    obs: &ObsHandle,
) -> Result<UserArtifacts, QuestionError> {
    cfg.validate();
    let _span = obs.span("batch_setup");
    let kernel = Arc::new(TransitionCsr::build(graph, cfg.rec.ppr.transition));
    UserArtifacts::build(graph, cfg, kernel, user, obs)
}

/// One context per Why-Not item from shared artefacts: only the
/// `PPR(·, wni)` column is computed per item.
fn contexts_from_artifacts<'g, G: GraphView>(
    graph: &'g G,
    cfg: &EmigreConfig,
    artifacts: &UserArtifacts,
    wnis: &[NodeId],
    obs: &ObsHandle,
) -> Vec<Result<ExplainContext<'g, G>, QuestionError>> {
    let user = artifacts.user;
    wnis.iter()
        .map(|&wni| {
            // Reject malformed questions before paying for their column.
            WhyNotQuestion::validate(graph, cfg, user, wni, Some(artifacts.rec))?;
            let _span = obs.span("context_build");
            let ppr_to_wni = ReversePush::compute_kernel(&*artifacts.kernel, &cfg.rec.ppr, wni);
            obs.count(Op::ReversePushes, ppr_to_wni.pushes as u64);
            obs.add_mass(ppr_to_wni.drained);
            ExplainContext::from_artifacts(
                graph,
                cfg.clone(),
                artifacts,
                wni,
                Arc::new(ppr_to_wni),
                PushWorkspace::new(graph.num_nodes()),
                obs.clone(),
            )
        })
        .collect()
}

/// One list item's batch outcome.
#[derive(Debug, Clone)]
pub struct ListExplanation {
    pub wni: NodeId,
    /// 1-based rank in the user's list.
    pub rank: usize,
    pub result: Result<Explanation, ExplainFailure>,
}

/// Runs `method` for every item of the user's recommendation list except
/// the top one — the paper's §6.2 inner loop as a library call. The list
/// is the one the shared artefacts carry, so it is exactly the list every
/// context (and the server) ranks against.
pub fn explain_whole_list<G: GraphView>(
    explainer: &Explainer,
    graph: &G,
    user: NodeId,
    method: Method,
) -> Result<Vec<ListExplanation>, QuestionError> {
    let cfg = explainer.config();
    let obs = ObsHandle::ambient();
    let artifacts = shared_artifacts(graph, cfg, user, &obs)?;
    let wnis: Vec<NodeId> = artifacts.rec_list.items().into_iter().skip(1).collect();
    let contexts = contexts_from_artifacts(graph, cfg, &artifacts, &wnis, &obs);
    Ok(contexts
        .into_iter()
        .zip(wnis)
        .enumerate()
        .map(|(idx, (ctx, wni))| ListExplanation {
            wni,
            rank: idx + 2,
            result: match ctx {
                Ok(ctx) => Explainer::explain_with_context(&ctx, method),
                Err(_) => Err(ExplainFailure {
                    reason: crate::failure::FailureReason::OutOfScope {
                        mode: method.mode().unwrap_or(crate::explanation::Mode::Add),
                    },
                    checks_performed: 0,
                }),
            },
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emigre_hin::Hin;
    use emigre_ppr::{PprConfig, TransitionModel};
    use emigre_rec::RecConfig;

    fn fixture() -> (Hin, EmigreConfig, NodeId) {
        let mut g = Hin::new();
        let user_t = g.registry_mut().node_type("user");
        let item_t = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let u = g.add_node(user_t, Some("u"));
        let r1 = g.add_node(item_t, None);
        let items: Vec<NodeId> = (0..5).map(|_| g.add_node(item_t, None)).collect();
        g.add_edge_bidirectional(u, r1, rated, 1.0).unwrap();
        for (k, &i) in items.iter().enumerate() {
            g.add_edge_bidirectional(r1, i, rated, 1.0 + k as f64 * 0.3)
                .unwrap();
        }
        let ppr = PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: 1e-9,
            ..PprConfig::default()
        };
        let cfg = EmigreConfig::new(RecConfig::new(item_t).with_ppr(ppr), rated);
        (g, cfg, u)
    }

    #[test]
    fn batch_contexts_match_individual_builds() {
        let (g, cfg, u) = fixture();
        // Take two valid WNIs from the user's list.
        let list = crate::batch::explain_whole_list(
            &Explainer::new(cfg.clone()),
            &g,
            u,
            Method::AddIncremental,
        )
        .unwrap();
        assert!(!list.is_empty());
        let wnis: Vec<NodeId> = list.iter().map(|l| l.wni).take(2).collect();
        let batched = batch_contexts(&g, &cfg, u, &wnis);
        for (res, &wni) in batched.iter().zip(&wnis) {
            let individual = ExplainContext::build(&g, cfg.clone(), u, wni).unwrap();
            let batched_ctx = res.as_ref().expect("valid question");
            assert_eq!(batched_ctx.rec, individual.rec);
            assert_eq!(batched_ctx.rec_list, individual.rec_list);
            for n in 0..g.num_nodes() {
                assert!(
                    (batched_ctx.ppr_to_wni.estimates[n] - individual.ppr_to_wni.estimates[n])
                        .abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    fn invalid_members_reported_individually() {
        let (g, cfg, u) = fixture();
        let interacted = NodeId(1); // r1 — rated by u
        let batched = batch_contexts(&g, &cfg, u, &[interacted]);
        assert!(matches!(
            batched[0],
            Err(QuestionError::AlreadyInteracted(_))
        ));
    }

    #[test]
    fn whole_list_covers_ranks_two_onwards() {
        let (g, cfg, u) = fixture();
        let out = explain_whole_list(&Explainer::new(cfg), &g, u, Method::AddIncremental).unwrap();
        for (i, l) in out.iter().enumerate() {
            assert_eq!(l.rank, i + 2);
        }
    }
}
