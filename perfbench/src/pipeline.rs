//! Traced replicas of the engine's two attack paths.
//!
//! Each function calls, one at a time and inside a span, the same
//! sequence of public layer functions the engine entry point runs, with
//! the same thread count and block size — so the per-layer times add up
//! to an attack that is bit-identical to the untraced one (the workloads
//! check this). Spans come from this file, around the calls; the engine
//! itself is not instrumented.
//!
//! Both replicas cover the configuration the workloads use: exact mode,
//! indexed scoring, the shared refined path, no candidate budget and no
//! Algorithm-2 filtering. [`corpus_build`] does the same for
//! `PreparedCorpus::build`.

use dehealth_core::uda::{extract_post_features, UdaGraph};
use dehealth_core::{
    refine_user_shared, AttributeIndex, BoundedTopK, ClassifierKind, IndexedScorer, PairTally,
    RefinedConfig, RefinedContext, RefinedScratch, ScoreBounds, Side, SimilarityEngine,
};
use dehealth_corpus::Forum;
use dehealth_engine::pool::run_blocks;
use dehealth_engine::{EngineConfig, PreparedAuxiliary};
use dehealth_stylometry::FeatureVector;

use crate::check::{Attack, Mapping};
use crate::trace::Tracer;

fn assert_supported(config: &EngineConfig) {
    assert!(
        config.attack.filtering.is_none() && config.candidate_budget.is_none(),
        "the traced pipeline replicates the unfiltered, unbudgeted engine path only"
    );
}

/// Feature extraction plus the UDA graph of one forum.
fn prepare(t: &mut Tracer, forum: &Forum) -> (Vec<FeatureVector>, UdaGraph) {
    let feats = t.span("stylometry.features", |t| {
        t.count("stylometry.posts", forum.posts.len() as f64);
        extract_post_features(forum)
    });
    let uda = t.span("uda.build", |_| UdaGraph::build_with_features(forum, &feats));
    (feats, uda)
}

/// `PreparedCorpus::build` of `forum`, one span per call, under a span
/// named `corpus.build`.
pub fn corpus_build(t: &mut Tracer, forum: &Forum, classifier: ClassifierKind) {
    t.span("corpus.build", |t| {
        let (feats, uda) = prepare(t, forum);
        t.span("index.build", |_| AttributeIndex::from_uda(&uda));
        t.span("refined.aux_context", |_| {
            RefinedContext::build(&Side { forum, uda: &uda, post_features: &feats }, classifier)
        });
    });
}

/// One line with the traced corpus build's layer times.
#[must_use]
pub fn corpus_build_line(t: &Tracer) -> String {
    let Some(build) = t.summarize("corpus.build").into_iter().next() else {
        return String::new();
    };
    ["stylometry.features", "uda.build", "index.build", "refined.aux_context"]
        .iter()
        .map(|name| format!("{name} {:.4} s", build.seconds(name)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `Engine::run_prepared`: attack `anon` against a prepared auxiliary
/// corpus, under a span named `engine`.
pub fn prepared_attack(
    t: &mut Tracer,
    config: &EngineConfig,
    aux: &PreparedAuxiliary<'_>,
    anon: &Forum,
) -> Attack {
    assert_supported(config);
    let index = aux.index.expect("a prepared corpus carries its attribute index");
    t.span("engine", |t| {
        let (anon_feats, anon_uda) = prepare(t, anon);
        let candidate_scores = score(t, config, &anon_uda, aux.uda, index);
        let anon_side = Side { forum: anon, uda: &anon_uda, post_features: &anon_feats };
        let aux_side = Side { forum: aux.forum, uda: aux.uda, post_features: aux.features };
        refine(t, config, &anon_side, &aux_side, aux.context, candidate_scores)
    })
}

/// `Engine::run`, a one-chunk session: start it on `anon`, ingest `aux`
/// as the single chunk, finish — under a span named `engine`.
pub fn session_attack(t: &mut Tracer, config: &EngineConfig, aux: &Forum, anon: &Forum) -> Attack {
    assert_supported(config);
    t.span("engine", |t| {
        // Engine::session
        let (anon_feats, anon_uda) = prepare(t, anon);
        // EngineSession::add_auxiliary_users
        let (aux_feats, chunk_uda) = prepare(t, aux);
        let mut index = AttributeIndex::new();
        t.span("index.build", |_| index.append_uda(&chunk_uda));
        let candidate_scores = score(t, config, &anon_uda, &chunk_uda, &index);
        // EngineSession::finish: the merged auxiliary side is rebuilt.
        let aux_forum = Forum::from_posts(aux.n_users, aux.n_threads, aux.posts.clone());
        let aux_uda =
            t.span("uda.build", |_| UdaGraph::build_with_features(&aux_forum, &aux_feats));
        let anon_side = Side { forum: anon, uda: &anon_uda, post_features: &anon_feats };
        let aux_side = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        refine(t, config, &anon_side, &aux_side, None, candidate_scores)
    })
}

/// The Top-K stage: similarity engine, indexed scorer, sharded scoring.
fn score(
    t: &mut Tracer,
    config: &EngineConfig,
    anon_uda: &UdaGraph,
    aux_uda: &UdaGraph,
    index: &AttributeIndex,
) -> Vec<Vec<(usize, f64)>> {
    let cfg = &config.attack;
    let sim = t.span("similarity.init", |_| {
        SimilarityEngine::new(anon_uda, aux_uda, cfg.weights, cfg.n_landmarks)
    });
    let scorer = t.span("index.scorer_init", |_| IndexedScorer::new(&sim, index, 0, true));
    let mut heaps = vec![BoundedTopK::new(cfg.top_k); anon_uda.n_users()];
    let tally = t.span("index.score", |_| {
        let states = run_blocks(
            &mut heaps,
            config.block_size,
            config.effective_threads(),
            || (ScoreBounds::new(), PairTally::default(), scorer.scratch()),
            |offset, block, (bounds, tally, scratch)| {
                for (i, heap) in block.iter_mut().enumerate() {
                    *tally += scorer.score_user(offset + i, scratch, heap, bounds);
                }
            },
        );
        let mut total = PairTally::default();
        for (_, tally, _) in states {
            total += tally;
        }
        total
    });
    t.count("index.pairs_scored", tally.scored as f64);
    t.count("index.pairs_pruned", tally.pruned as f64);
    heaps.into_iter().map(BoundedTopK::into_sorted_entries).collect()
}

/// Candidate extraction and the Refined-DA stage.
fn refine(
    t: &mut Tracer,
    config: &EngineConfig,
    anon: &Side<'_>,
    aux: &Side<'_>,
    aux_context: Option<&RefinedContext>,
    candidate_scores: Vec<Vec<(usize, f64)>>,
) -> Attack {
    let cfg = &config.attack;
    let candidates: Vec<Vec<usize>> =
        candidate_scores.iter().map(|entries| entries.iter().map(|&(v, _)| v).collect()).collect();
    t.count("refined.candidates", candidates.iter().map(Vec::len).sum::<usize>() as f64);
    let anon_ctx = t.span("refined.context", |_| RefinedContext::build(anon, cfg.classifier));
    let built;
    let aux_ctx = match aux_context {
        Some(ctx) if ctx.matches_classifier(cfg.classifier) => ctx,
        _ => {
            built = t.span("refined.aux_context", |_| RefinedContext::build(aux, cfg.classifier));
            &built
        }
    };
    let refined_cfg = RefinedConfig {
        classifier: cfg.classifier,
        verification: cfg.verification,
        seed: cfg.seed,
    };
    let n_aux = aux.forum.n_users;
    let mut mapping: Vec<Option<usize>> = vec![None; anon.forum.n_users];
    t.span("refined.classify", |_| {
        run_blocks(
            &mut mapping,
            config.block_size,
            config.effective_threads(),
            || (vec![f64::NEG_INFINITY; n_aux], RefinedScratch::new()),
            |offset, block, (row, scratch)| {
                for (i, slot) in block.iter_mut().enumerate() {
                    let u = offset + i;
                    for &(v, s) in &candidate_scores[u] {
                        row[v] = s;
                    }
                    *slot = refine_user_shared(
                        u,
                        &candidates[u],
                        anon,
                        aux,
                        &anon_ctx,
                        aux_ctx,
                        row,
                        &refined_cfg,
                        scratch,
                    );
                    for &(v, _) in &candidate_scores[u] {
                        row[v] = f64::NEG_INFINITY;
                    }
                }
            },
        );
    });
    t.count("refined.mapped", mapping.iter().filter(|m| m.is_some()).count() as f64);
    Attack { candidate_scores, result: Mapping { candidates, mapping } }
}
