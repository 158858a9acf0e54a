//! The sharded execution engine: blockwise Top-K DA, parallel Refined DA,
//! incremental auxiliary ingestion, and attacks against pre-built
//! (snapshot-loaded) auxiliary corpora.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use dehealth_core::attack::AttackConfig;
use dehealth_core::filter::{filter_user, threshold_vector, Filtered, ScoreBounds};
use dehealth_core::index::{AttributeIndex, IndexedScorer, PairTally};
use dehealth_core::refined::{
    refine_user, refine_user_shared, RefinedConfig, RefinedContext, RefinedScratch, Side,
};
use dehealth_core::similarity::SimilarityEngine;
use dehealth_core::topk::{BoundedTopK, CandidateSets, Selection};
use dehealth_core::uda::{extract_post_features, UdaGraph};
use dehealth_corpus::{Forum, Post};
use dehealth_stylometry::FeatureVector;

use crate::pool::run_blocks;
use crate::report::{timed, EngineReport};

/// How the Top-K stage scores `(anonymized, auxiliary)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringMode {
    /// Inverted-index sparse scoring ([`IndexedScorer`]): probe posting
    /// lists of the anonymized user's attributes, compute the attribute
    /// term from intersection accumulators, and prune pairs whose upper
    /// bound cannot beat the Top-K floor (pruning auto-disables when
    /// Algorithm-2 filtering needs exact global score bounds). Produces
    /// candidate sets and mappings bit-identical to [`ScoringMode::Dense`].
    #[default]
    Indexed,
    /// The all-pairs sweep of `SimilarityEngine::scores_for` — the test
    /// oracle the indexed path is differential-tested against
    /// (`tests/index_parity.rs`).
    Dense,
}

/// How the Refined-DA stage materializes classifier features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefinedMode {
    /// Materialize-once fast path ([`RefinedContext`]): every post's dense
    /// sample lives in a per-side arena built once in
    /// [`EngineSession::finish`] and shared read-only across workers;
    /// per-user training assembles row-index views and fuses scaling into
    /// one gather pass over per-worker scratch. Produces mappings
    /// bit-identical to [`RefinedMode::PerUser`].
    #[default]
    Shared,
    /// The per-user-from-scratch `refine_user` loop — the differential
    /// oracle the shared path is tested against
    /// (`tests/refined_parity.rs`), mirroring [`ScoringMode::Dense`].
    PerUser,
}

/// Execution-engine configuration: the attack parameters plus the
/// parallel-execution knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The attack configuration (weights, K, classifier, verification…).
    /// `selection` must be [`Selection::Direct`]; graph-matching selection
    /// is a global optimization over the dense similarity matrix, which
    /// the engine never materializes — use `DeHealth::run` for it.
    pub attack: AttackConfig,
    /// Worker threads for the Top-K and Refined stages; `0` means
    /// [`std::thread::available_parallelism`].
    pub n_threads: usize,
    /// Anonymized users per work block (the unit of work stealing).
    pub block_size: usize,
    /// Pair-scoring path for the Top-K stage.
    pub scoring: ScoringMode,
    /// Feature-materialization path for the Refined-DA stage.
    pub refined: RefinedMode,
    /// Global cap on the Top-K candidates carried into filtering and the
    /// Refined-DA stage; `None` (the default) keeps every candidate.
    ///
    /// At large auxiliary scale the refined fan-out costs
    /// `O(Σ_u |candidates(u)| · posts)` — this budget bounds it with an
    /// explicit **recall contract** instead of silently: every anonymized
    /// user keeps its best-scoring candidate (Top-K recall@1 is never
    /// affected), and the remaining budget keeps the globally
    /// best-scoring entries, ties broken by `(user, candidate)` id for
    /// determinism. Trimmed entries are reported as `skipped` on the
    /// `budget` stage. Unlike the other engine knobs this one *does*
    /// change outcomes when it binds — it is a resource/recall dial, not
    /// an execution strategy.
    pub candidate_budget: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            attack: AttackConfig::default(),
            n_threads: 0,
            block_size: 64,
            scoring: ScoringMode::default(),
            refined: RefinedMode::default(),
            candidate_budget: None,
        }
    }
}

impl EngineConfig {
    /// The resolved worker-thread count (`n_threads`, or the machine's
    /// available parallelism when 0).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.n_threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.n_threads
        }
    }
}

/// The parallel De-Health execution engine.
///
/// Produces mappings bit-identical to the serial `DeHealth::run` (with
/// [`Selection::Direct`]) while keeping only `O(|V1| · K)` candidate state
/// instead of the dense `|V1| × |V2|` similarity matrix.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Create the engine.
    ///
    /// # Panics
    /// Panics if `config.attack.selection` is not [`Selection::Direct`]:
    /// graph-matching selection requires the dense similarity matrix.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        assert!(
            config.attack.selection == Selection::Direct,
            "dehealth-engine supports Selection::Direct only; graph-matching \
             selection needs the dense similarity matrix — use DeHealth::run"
        );
        Self { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// One-shot attack: equivalent to a session ingesting `auxiliary` in a
    /// single chunk and finishing.
    #[must_use]
    pub fn run(&self, auxiliary: &Forum, anonymized: &Forum) -> EngineOutcome {
        let mut session = self.session(anonymized);
        session.add_auxiliary_users(auxiliary);
        session.finish()
    }

    /// Attack `anonymized` against a **pre-built** auxiliary corpus —
    /// the serving path behind `dehealth-service`'s long-lived daemon,
    /// where the auxiliary side is a standing asset (typically reloaded
    /// from a snapshot) and only the anonymized batch changes per call.
    ///
    /// Skips every piece of auxiliary preparation the one-shot
    /// [`Engine::run`] would redo: feature extraction and the UDA graph
    /// always, the [`AttributeIndex`] and the refined-DA
    /// [`RefinedContext`] when `aux` carries them (the context is used
    /// only if it matches the configured classifier's representation —
    /// sparse for KNN, dense otherwise — and is rebuilt from the
    /// prepared features otherwise, still without touching post text).
    /// Candidate sets and mappings are bit-identical to [`Engine::run`]
    /// on the same forums, and therefore to the serial `DeHealth::run`
    /// (`tests/service_parity.rs`).
    ///
    /// # Panics
    /// Panics if `aux` is internally inconsistent (feature/post count
    /// mismatch, or an index not covering exactly the corpus's users) —
    /// `PreparedAuxiliary` producers validate this at build/load time.
    #[must_use]
    pub fn run_prepared(&self, aux: &PreparedAuxiliary<'_>, anonymized: &Forum) -> EngineOutcome {
        assert_eq!(
            aux.features.len(),
            aux.forum.posts.len(),
            "prepared auxiliary features/posts mismatch"
        );
        if let Some(index) = aux.index {
            assert_eq!(
                index.n_users(),
                aux.forum.n_users,
                "prepared index does not cover the auxiliary corpus's users"
            );
        }
        let cfg = &self.config.attack;
        let mut report = EngineReport::new(self.config.effective_threads(), self.config.block_size);
        let ((anon_feats, anon_uda), secs) = timed(|| {
            let feats = extract_post_features(anonymized);
            let uda = UdaGraph::build_with_features(anonymized, &feats);
            (feats, uda)
        });
        report.record("prepare", "posts", anonymized.posts.len() as u64, secs);

        let sim = SimilarityEngine::new(&anon_uda, aux.uda, cfg.weights, cfg.n_landmarks);
        let built_index = match (self.config.scoring, aux.index) {
            (ScoringMode::Indexed, None) => Some(AttributeIndex::from_uda(aux.uda)),
            _ => None,
        };
        let index = match self.config.scoring {
            ScoringMode::Indexed => aux.index.or(built_index.as_ref()),
            ScoringMode::Dense => None,
        };
        let mut heaps = vec![BoundedTopK::new(cfg.top_k); anonymized.n_users];
        let mut bounds = ScoreBounds::new();
        topk_pass(&self.config, &sim, index, 0, &mut heaps, &mut bounds, &mut report);

        let anon_side = Side { forum: anonymized, uda: &anon_uda, post_features: &anon_feats };
        let aux_side = Side { forum: aux.forum, uda: aux.uda, post_features: aux.features };
        complete_attack(&self.config, &anon_side, &aux_side, heaps, bounds, aux.context, report)
    }

    /// Attack several independent anonymized batches against one
    /// **pre-built** auxiliary corpus in a single fused pass — the
    /// server-side batching path behind `dehealth-service`'s coalescing
    /// window.
    ///
    /// Each request carries its own [`AttackConfig`] (per-request
    /// `top_k`, `n_landmarks`, `seed`, filtering…), and each element of
    /// the returned vector is **bit-identical** to what
    /// [`Engine::run_prepared`] would produce for that request alone
    /// with the same attack config (pinned by `batch_matches_solo_runs`
    /// and, over the wire, `tests/service_parity.rs`): per-request
    /// numeric state (similarity engine, heaps, score bounds, refined
    /// classifiers) is kept fully separate, only *scheduling* and
    /// *shared auxiliary artifacts* are fused. What the batch amortizes
    /// across requests:
    ///
    /// - the [`AttributeIndex`] build when `aux` does not carry one
    ///   (built once, probed by every request);
    /// - the auxiliary [`RefinedContext`] rebuild when `aux`'s is
    ///   missing or does not match a request's classifier (built once
    ///   per distinct classifier kind, shared read-only);
    /// - worker-pool scheduling: the Top-K and Refined stages run as
    ///   *one* `run_blocks` pass each over the concatenated
    ///   per-(request, user) work items, so small requests fill the
    ///   pool together instead of each paying their own fan-out.
    ///
    /// Per-request [`EngineReport`]s carry exact per-request item
    /// counts; the wall-clock seconds of the fused `topk`/`refined`
    /// stages are batch-wide (the pass is shared, so per-request time
    /// is not separable) and therefore appear in every report.
    ///
    /// # Panics
    /// Panics if `aux` is internally inconsistent (as
    /// [`Engine::run_prepared`]) or if any request's
    /// `attack.selection` is not [`Selection::Direct`].
    #[must_use]
    pub fn run_prepared_batch(
        &self,
        aux: &PreparedAuxiliary<'_>,
        requests: &[BatchRequest<'_>],
    ) -> Vec<EngineOutcome> {
        assert_eq!(
            aux.features.len(),
            aux.forum.posts.len(),
            "prepared auxiliary features/posts mismatch"
        );
        if let Some(index) = aux.index {
            assert_eq!(
                index.n_users(),
                aux.forum.n_users,
                "prepared index does not cover the auxiliary corpus's users"
            );
        }
        for request in requests {
            assert!(
                request.attack.selection == Selection::Direct,
                "dehealth-engine supports Selection::Direct only"
            );
        }
        if requests.is_empty() {
            return Vec::new();
        }
        let n_req = requests.len();
        let threads = self.config.effective_threads();
        let mut reports: Vec<EngineReport> =
            (0..n_req).map(|_| EngineReport::new(threads, self.config.block_size)).collect();

        // Per-request anonymized-side preparation (independent numeric
        // state; nothing here is shared).
        let mut anon_prepared: Vec<(Vec<FeatureVector>, UdaGraph)> = Vec::with_capacity(n_req);
        for (request, report) in requests.iter().zip(&mut reports) {
            let ((feats, uda), secs) = timed(|| {
                let feats = extract_post_features(request.anonymized);
                let uda = UdaGraph::build_with_features(request.anonymized, &feats);
                (feats, uda)
            });
            report.record("prepare", "posts", request.anonymized.posts.len() as u64, secs);
            anon_prepared.push((feats, uda));
        }

        // Shared auxiliary artifacts: one index build serves the batch.
        let built_index = match (self.config.scoring, aux.index) {
            (ScoringMode::Indexed, None) => Some(AttributeIndex::from_uda(aux.uda)),
            _ => None,
        };
        let index = match self.config.scoring {
            ScoringMode::Indexed => aux.index.or(built_index.as_ref()),
            ScoringMode::Dense => None,
        };

        let sims: Vec<SimilarityEngine<'_>> = requests
            .iter()
            .zip(&anon_prepared)
            .map(|(request, (_, anon_uda))| {
                SimilarityEngine::new(
                    anon_uda,
                    aux.uda,
                    request.attack.weights,
                    request.attack.n_landmarks,
                )
            })
            .collect();
        let scorers: Vec<Option<IndexedScorer<'_, '_>>> = requests
            .iter()
            .zip(&sims)
            .map(|(request, sim)| {
                // Pruning per request, exactly as the solo path: off
                // whenever that request's filtering needs exact bounds.
                index.map(|index| {
                    IndexedScorer::new(sim, index, 0, request.attack.filtering.is_none())
                })
            })
            .collect();

        // Fused Top-K: one work-stealing pass over every
        // (request, anon user) item. Workers keep per-request bounds
        // and tallies so nothing numeric crosses request boundaries.
        struct TopkSlot {
            req: usize,
            u: usize,
            heap: BoundedTopK,
        }
        let mut slots: Vec<TopkSlot> = requests
            .iter()
            .enumerate()
            .flat_map(|(req, request)| {
                (0..request.anonymized.n_users).map(move |u| TopkSlot {
                    req,
                    u,
                    heap: BoundedTopK::new(request.attack.top_k),
                })
            })
            .collect();
        let mut bounds: Vec<ScoreBounds> = (0..n_req).map(|_| ScoreBounds::new()).collect();
        let mut tallies: Vec<PairTally> = vec![PairTally::default(); n_req];
        let ((), topk_secs) = timed(|| {
            let states = run_blocks(
                &mut slots,
                self.config.block_size,
                threads,
                || {
                    (
                        (0..n_req).map(|_| ScoreBounds::new()).collect::<Vec<_>>(),
                        vec![PairTally::default(); n_req],
                        (0..n_req).map(|_| None).collect::<Vec<_>>(),
                    )
                },
                |_, block, (local_bounds, local_tallies, scratches)| {
                    for slot in block.iter_mut() {
                        let r = slot.req;
                        if let Some(scorer) = &scorers[r] {
                            let scratch = scratches[r].get_or_insert_with(|| scorer.scratch());
                            local_tallies[r] += scorer.score_user(
                                slot.u,
                                scratch,
                                &mut slot.heap,
                                &mut local_bounds[r],
                            );
                        } else {
                            for (v, s) in sims[r].scores_for(slot.u) {
                                slot.heap.insert(v, s);
                                local_bounds[r].observe(s);
                                local_tallies[r].merged += 1;
                                local_tallies[r].scored += 1;
                            }
                        }
                    }
                },
            );
            for (local_bounds, local_tallies, _) in states {
                for (merged, local) in bounds.iter_mut().zip(local_bounds) {
                    merged.merge(local);
                }
                for (merged, local) in tallies.iter_mut().zip(local_tallies) {
                    *merged += local;
                }
            }
        });
        for (report, tally) in reports.iter_mut().zip(&tallies) {
            report.record_topk(tally);
            // Batch-wide stage wall-clock (the fused pass is shared).
            report.record("topk", "pairs", 0, topk_secs);
        }

        // Per-request candidate extraction + Algorithm-2 filtering
        // (cheap, serial), exactly as the solo `complete_attack`.
        let mut per_req_scores: Vec<Vec<Vec<(usize, f64)>>> =
            requests.iter().map(|r| vec![Vec::new(); r.anonymized.n_users]).collect();
        for slot in slots {
            per_req_scores[slot.req][slot.u] = slot.heap.into_sorted_entries();
        }
        // The candidate budget applies per request, exactly as each
        // request's solo run would enforce it.
        for (scores, report) in per_req_scores.iter_mut().zip(&mut reports) {
            apply_candidate_budget(self.config.candidate_budget, scores, report);
        }
        let mut per_req_candidates: Vec<CandidateSets> = per_req_scores
            .iter()
            .map(|scores| {
                scores.iter().map(|entries| entries.iter().map(|&(v, _)| v).collect()).collect()
            })
            .collect();
        for (r, request) in requests.iter().enumerate() {
            if let Some(filter_cfg) = &request.attack.filtering {
                let ((), secs) = timed(|| {
                    let thresholds = threshold_vector(bounds[r], filter_cfg);
                    let mut scores: HashMap<usize, f64> = HashMap::new();
                    for (cands, entries) in per_req_candidates[r].iter_mut().zip(&per_req_scores[r])
                    {
                        scores.clear();
                        scores.extend(entries.iter().copied());
                        let score_of =
                            |v: usize| scores.get(&v).copied().unwrap_or(f64::NEG_INFINITY);
                        match filter_user(score_of, cands, &thresholds) {
                            Filtered::Kept(kept) => *cands = kept,
                            Filtered::Rejected => cands.clear(),
                        }
                    }
                });
                reports[r].record("filter", "users", request.anonymized.n_users as u64, secs);
            }
        }

        // Fused Refined DA. Auxiliary contexts are the shared artifact:
        // one build per distinct classifier kind serves every request
        // that needs a rebuild (`matches_classifier` decides, exactly
        // as the solo path — parity holds because a rebuilt context is
        // bit-identical to a matching pre-built one).
        let aux_side = Side { forum: aux.forum, uda: aux.uda, post_features: aux.features };
        let anon_sides: Vec<Side<'_>> = requests
            .iter()
            .zip(&anon_prepared)
            .map(|(request, (feats, uda))| Side {
                forum: request.anonymized,
                uda,
                post_features: feats,
            })
            .collect();
        let n_aux = aux.forum.n_users;
        let mut mappings: Vec<Vec<Option<usize>>> =
            requests.iter().map(|r| vec![None; r.anonymized.n_users]).collect();
        let ((), refined_secs) = timed(|| {
            /// Which auxiliary context a request's refined stage reads.
            #[derive(Clone, Copy)]
            enum AuxCtx {
                /// `aux.context` matches this request's classifier.
                Prepared,
                /// Index into the batch-shared rebuild cache.
                Rebuilt(usize),
            }
            let mut rebuilt: Vec<RefinedContext> = Vec::new();
            let contexts: Vec<Option<(RefinedContext, AuxCtx)>> = match self.config.refined {
                RefinedMode::Shared => requests
                    .iter()
                    .zip(&anon_sides)
                    .map(|(request, anon_side)| {
                        let classifier = request.attack.classifier;
                        let aux_ctx = match aux.context {
                            Some(ctx) if ctx.matches_classifier(classifier) => AuxCtx::Prepared,
                            _ => AuxCtx::Rebuilt(
                                rebuilt
                                    .iter()
                                    .position(|ctx| ctx.matches_classifier(classifier))
                                    .unwrap_or_else(|| {
                                        rebuilt.push(RefinedContext::build(&aux_side, classifier));
                                        rebuilt.len() - 1
                                    }),
                            ),
                        };
                        Some((RefinedContext::build(anon_side, classifier), aux_ctx))
                    })
                    .collect(),
                RefinedMode::PerUser => (0..n_req).map(|_| None).collect(),
            };
            let refined_cfgs: Vec<RefinedConfig> = requests
                .iter()
                .map(|request| RefinedConfig {
                    classifier: request.attack.classifier,
                    verification: request.attack.verification,
                    seed: request.attack.seed,
                })
                .collect();

            struct RefinedSlot {
                req: usize,
                u: usize,
                out: Option<usize>,
            }
            let mut refined_slots: Vec<RefinedSlot> = requests
                .iter()
                .enumerate()
                .flat_map(|(req, request)| {
                    (0..request.anonymized.n_users).map(move |u| RefinedSlot { req, u, out: None })
                })
                .collect();
            run_blocks(
                &mut refined_slots,
                self.config.block_size,
                threads,
                || (vec![f64::NEG_INFINITY; n_aux], RefinedScratch::new()),
                |_, block, (scratch_row, scratch)| {
                    for slot in block.iter_mut() {
                        let (r, u) = (slot.req, slot.u);
                        for &(v, s) in &per_req_scores[r][u] {
                            scratch_row[v] = s;
                        }
                        slot.out = match &contexts[r] {
                            Some((anon_ctx, aux_ref)) => {
                                let aux_ctx: &RefinedContext = match aux_ref {
                                    AuxCtx::Prepared => {
                                        aux.context.expect("Prepared implies aux.context")
                                    }
                                    AuxCtx::Rebuilt(i) => &rebuilt[*i],
                                };
                                refine_user_shared(
                                    u,
                                    &per_req_candidates[r][u],
                                    &anon_sides[r],
                                    &aux_side,
                                    anon_ctx,
                                    aux_ctx,
                                    scratch_row,
                                    &refined_cfgs[r],
                                    scratch,
                                )
                            }
                            None => refine_user(
                                u,
                                &per_req_candidates[r][u],
                                &anon_sides[r],
                                &aux_side,
                                scratch_row,
                                &refined_cfgs[r],
                            ),
                        };
                        for &(v, _) in &per_req_scores[r][u] {
                            scratch_row[v] = f64::NEG_INFINITY;
                        }
                    }
                },
            );
            for slot in refined_slots {
                mappings[slot.req][slot.u] = slot.out;
            }
        });
        for (r, request) in requests.iter().enumerate() {
            reports[r].record("refined", "users", request.anonymized.n_users as u64, refined_secs);
        }

        let mut outcomes = Vec::with_capacity(n_req);
        for (((candidates, candidate_scores), mapping), report) in
            per_req_candidates.into_iter().zip(per_req_scores).zip(mappings).zip(reports)
        {
            outcomes.push(EngineOutcome { candidates, candidate_scores, mapping, report });
        }
        outcomes
    }

    /// Start an incremental session against `anonymized`: auxiliary data
    /// can then be ingested chunk by chunk with
    /// [`EngineSession::add_auxiliary_users`].
    #[must_use]
    pub fn session<'a>(&self, anonymized: &'a Forum) -> EngineSession<'a> {
        let mut report = EngineReport::new(self.config.effective_threads(), self.config.block_size);
        let ((anon_feats, anon_uda), secs) = timed(|| {
            let feats = extract_post_features(anonymized);
            let uda = UdaGraph::build_with_features(anonymized, &feats);
            (feats, uda)
        });
        report.record("prepare", "posts", anonymized.posts.len() as u64, secs);
        let heaps = vec![BoundedTopK::new(self.config.attack.top_k); anonymized.n_users];
        let index = match self.config.scoring {
            ScoringMode::Indexed => Some(AttributeIndex::new()),
            ScoringMode::Dense => None,
        };
        EngineSession {
            config: self.config.clone(),
            anon_forum: anonymized,
            anon_feats,
            anon_uda,
            aux_posts: Vec::new(),
            aux_feats: Vec::new(),
            aux_users: 0,
            aux_threads: 0,
            heaps,
            index,
            bounds: ScoreBounds::new(),
            report,
        }
    }
}

/// An in-progress attack accumulating auxiliary data.
///
/// Each ingested chunk brings *new* auxiliary users (chunk-local ids are
/// offset into a global id space; chunk threads are disjoint from earlier
/// chunks — the streaming-auxiliary-data scenario). Only the
/// `|V1| × |chunk|` pair block is scored per ingest; previously scored
/// pairs are never revisited, their surviving scores live in the per-user
/// bounded Top-K heaps.
///
/// Structural caveat: each chunk's degree/distance similarities are
/// computed against the chunk's own correlation graph and landmarks, so
/// with non-zero `c1`/`c2` weights a multi-chunk session approximates a
/// batch run (exact for attribute-only weights `c1 = c2 = 0`, and exact
/// for any weights when the session has a single chunk).
#[derive(Debug)]
pub struct EngineSession<'a> {
    config: EngineConfig,
    anon_forum: &'a Forum,
    anon_feats: Vec<FeatureVector>,
    anon_uda: UdaGraph,
    /// Accumulated auxiliary posts, authors/threads in global id space.
    aux_posts: Vec<Post>,
    /// Per-post features, parallel to `aux_posts` (extraction is a pure
    /// per-post function, so chunk-time features are reused at finish).
    aux_feats: Vec<FeatureVector>,
    aux_users: usize,
    aux_threads: usize,
    heaps: Vec<BoundedTopK>,
    /// Session-global inverted index over all ingested auxiliary users
    /// (`Some` iff [`ScoringMode::Indexed`]); each ingest appends the
    /// chunk's postings and probes only the new suffix.
    index: Option<AttributeIndex>,
    bounds: ScoreBounds,
    report: EngineReport,
}

impl EngineSession<'_> {
    /// Number of auxiliary users ingested so far.
    #[must_use]
    pub fn n_auxiliary_users(&self) -> usize {
        self.aux_users
    }

    /// The execution report so far.
    #[must_use]
    pub fn report(&self) -> &EngineReport {
        &self.report
    }

    /// Ingest a chunk of new auxiliary users and update every anonymized
    /// user's candidate heap with the `|V1| × |chunk|` pair block, sharded
    /// across the worker pool. Chunk-local user/thread ids are offset by
    /// the totals ingested so far.
    ///
    /// With [`ScoringMode::Indexed`] the chunk's postings are appended to
    /// the session's inverted index first, and workers probe only the new
    /// posting suffixes; pairs whose upper bound cannot beat a user's
    /// running Top-K floor are pruned (counted as `skipped` on the `topk`
    /// stage) unless Algorithm-2 filtering requires exact score bounds.
    pub fn add_auxiliary_users(&mut self, chunk: &Forum) {
        let user_offset = self.aux_users;
        let thread_offset = self.aux_threads;

        let (chunk_feats, prep_secs) = timed(|| extract_post_features(chunk));
        let chunk_uda = UdaGraph::build_with_features(chunk, &chunk_feats);
        self.report.record("prepare", "posts", chunk.posts.len() as u64, prep_secs);

        let cfg = &self.config.attack;
        let sim = SimilarityEngine::new(&self.anon_uda, &chunk_uda, cfg.weights, cfg.n_landmarks);

        if let Some(index) = &mut self.index {
            index.append_uda(&chunk_uda);
        }
        topk_pass(
            &self.config,
            &sim,
            self.index.as_ref(),
            user_offset,
            &mut self.heaps,
            &mut self.bounds,
            &mut self.report,
        );

        for post in &chunk.posts {
            self.aux_posts.push(Post {
                author: post.author + user_offset,
                thread: post.thread + thread_offset,
                text: post.text.clone(),
            });
        }
        self.aux_feats.extend(chunk_feats);
        self.aux_users += chunk.n_users;
        self.aux_threads += chunk.n_threads;
    }

    /// Run candidate filtering (if configured) and the parallel Refined-DA
    /// stage over the accumulated candidates, producing the final outcome.
    #[must_use]
    pub fn finish(self) -> EngineOutcome {
        let EngineSession {
            config,
            anon_forum,
            anon_feats,
            anon_uda,
            aux_posts,
            aux_feats,
            aux_users,
            aux_threads,
            heaps,
            index: _,
            bounds,
            mut report,
        } = self;

        // Materialize the merged auxiliary side for classifier training.
        let ((aux_forum, aux_uda), prep_secs) = timed(|| {
            let forum = Forum::from_posts(aux_users, aux_threads, aux_posts);
            let uda = UdaGraph::build_with_features(&forum, &aux_feats);
            (forum, uda)
        });
        report.record("prepare", "posts", 0, prep_secs);

        let anon_side = Side { forum: anon_forum, uda: &anon_uda, post_features: &anon_feats };
        let aux_side = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        complete_attack(&config, &anon_side, &aux_side, heaps, bounds, None, report)
    }
}

/// One request of an [`Engine::run_prepared_batch`] call: an anonymized
/// batch plus the attack configuration to run it under. The engine-level
/// knobs (threads, block size, scoring/refined modes) come from the
/// [`EngineConfig`] of the engine executing the batch — results are
/// invariant to all of them (`tests/engine_parity.rs`), so sharing them
/// across a batch loses nothing.
#[derive(Debug, Clone)]
pub struct BatchRequest<'a> {
    /// Attack parameters for this request (`selection` must be
    /// [`Selection::Direct`]).
    pub attack: AttackConfig,
    /// The anonymized forum to attack.
    pub anonymized: &'a Forum,
}

/// A fully prepared auxiliary corpus for [`Engine::run_prepared`]: the
/// forum with its per-post features and UDA graph, plus (optionally) the
/// derived scoring index and refined-DA feature context. This is the
/// borrowed view a long-lived service hands the engine for every incoming
/// anonymized batch — built once (or reloaded from a snapshot) instead of
/// re-extracted per attack.
///
/// The index and context are storage-generic: their arenas are
/// [`ArenaView`](dehealth_core::arena::ArenaView)s, so the *same* types
/// cover a freshly built corpus (owned `Vec` storage) and a zero-copy
/// snapshot load whose arenas borrow a memory-mapped file. The engine's
/// scoring and refined stages read them through slices either way, and
/// `tests/service_parity.rs` pins that a wire attack on a mapped corpus
/// is bit-identical to the owned-load and serial references.
#[derive(Debug, Clone, Copy)]
pub struct PreparedAuxiliary<'a> {
    /// The auxiliary forum.
    pub forum: &'a Forum,
    /// Per-post stylometric features, parallel to `forum.posts`.
    pub features: &'a [FeatureVector],
    /// The forum's UDA graph.
    pub uda: &'a UdaGraph,
    /// Pre-built attribute index covering exactly `forum`'s users (built
    /// on the fly when `None` and [`ScoringMode::Indexed`] is configured).
    /// May be owned or snapshot-borrowed.
    pub index: Option<&'a AttributeIndex>,
    /// Pre-built refined-DA context of the auxiliary side (rebuilt from
    /// `features` when `None`, or when its representation does not match
    /// the configured classifier). May be owned or snapshot-borrowed.
    pub context: Option<&'a RefinedContext>,
}

/// One Top-K scoring pass of `sim`'s full anonymized population against
/// its auxiliary side, sharded over the worker pool — the shared core of
/// [`EngineSession::add_auxiliary_users`] (where `from` is the session's
/// pre-ingest watermark) and [`Engine::run_prepared`] (where `from` is
/// 0). With an `index` the pass probes posting suffixes and prunes
/// against each heap's floor; pruning stays off whenever Algorithm-2
/// filtering needs exact global [`ScoreBounds`].
fn topk_pass(
    config: &EngineConfig,
    sim: &SimilarityEngine<'_>,
    index: Option<&AttributeIndex>,
    from: usize,
    heaps: &mut [BoundedTopK],
    bounds: &mut ScoreBounds,
    report: &mut EngineReport,
) {
    // Pruning would hide the global score minimum from `bounds`, which
    // Algorithm-2 filtering thresholds against — so it is only enabled
    // when no filtering is configured.
    let prune = config.attack.filtering.is_none();
    let scorer = index.map(|index| IndexedScorer::new(sim, index, from, prune));
    let ((), topk_secs) = timed(|| {
        let states = run_blocks(
            heaps,
            config.block_size,
            config.effective_threads(),
            || {
                (
                    ScoreBounds::new(),
                    PairTally::default(),
                    scorer.as_ref().map(IndexedScorer::scratch),
                )
            },
            |offset, block, (local_bounds, tally, scratch)| {
                for (i, heap) in block.iter_mut().enumerate() {
                    let u = offset + i;
                    if let (Some(scorer), Some(scratch)) = (&scorer, scratch.as_mut()) {
                        *tally += scorer.score_user(u, scratch, heap, local_bounds);
                    } else {
                        for (v, s) in sim.scores_for(u) {
                            heap.insert(from + v, s);
                            local_bounds.observe(s);
                            tally.merged += 1;
                            tally.scored += 1;
                        }
                    }
                }
            },
        );
        let mut total = PairTally::default();
        for (local_bounds, local_tally, _) in states {
            bounds.merge(local_bounds);
            total += local_tally;
        }
        report.record_topk(&total);
    });
    // Attribute the stage wall-clock once (items were counted above).
    report.record("topk", "pairs", 0, topk_secs);
}

/// Enforce [`EngineConfig::candidate_budget`] over per-user candidate
/// score lists (sorted by decreasing score, as
/// [`BoundedTopK::into_sorted_entries`] returns them).
///
/// Contract: each user's best-scoring entry is reserved unconditionally;
/// the remaining budget keeps the globally best-scoring tail entries
/// (score descending, ties by ascending `(user, candidate)`), preserving
/// each surviving list's order. No-op when the budget is absent or not
/// exceeded. The number of trimmed entries is recorded as `skipped` on
/// the `budget` stage.
fn apply_candidate_budget(
    budget: Option<usize>,
    candidate_scores: &mut [Vec<(usize, f64)>],
    report: &mut EngineReport,
) {
    let Some(budget) = budget else { return };
    let total: usize = candidate_scores.iter().map(Vec::len).sum();
    if total <= budget {
        return;
    }
    let reserved = candidate_scores.iter().filter(|e| !e.is_empty()).count();
    let spare = budget.saturating_sub(reserved);
    let mut tail: Vec<(f64, usize, usize)> = Vec::with_capacity(total - reserved);
    for (u, entries) in candidate_scores.iter().enumerate() {
        for &(v, s) in entries.iter().skip(1) {
            tail.push((s, u, v));
        }
    }
    tail.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let keep: HashSet<(usize, usize)> = tail.iter().take(spare).map(|&(_, u, v)| (u, v)).collect();
    let mut trimmed = 0u64;
    for (u, entries) in candidate_scores.iter_mut().enumerate() {
        let before = entries.len();
        let mut rank = 0usize;
        entries.retain(|&(v, _)| {
            let keep_it = rank == 0 || keep.contains(&(u, v));
            rank += 1;
            keep_it
        });
        trimmed += (before - entries.len()) as u64;
    }
    report.record_skipped("budget", "candidates", trimmed);
}

/// The post-scoring pipeline shared by [`EngineSession::finish`] and
/// [`Engine::run_prepared`]: extract candidate sets from the heaps, run
/// Algorithm-2 filtering (if configured), and fan the Refined-DA stage
/// out over the worker pool.
///
/// `aux_context` short-circuits the auxiliary-side context build of
/// [`RefinedMode::Shared`] when a matching pre-built context is at hand
/// (the snapshot-serving path); a context for the wrong classifier
/// representation is ignored and rebuilt from `aux_side`'s features.
fn complete_attack(
    config: &EngineConfig,
    anon_side: &Side<'_>,
    aux_side: &Side<'_>,
    heaps: Vec<BoundedTopK>,
    bounds: ScoreBounds,
    aux_context: Option<&RefinedContext>,
    mut report: EngineReport,
) -> EngineOutcome {
    let cfg = &config.attack;
    let n_anon = anon_side.forum.n_users;
    let n_aux = aux_side.forum.n_users;

    // Candidate sets (and their scores, for verification/filtering).
    let mut candidate_scores: Vec<Vec<(usize, f64)>> =
        heaps.into_iter().map(BoundedTopK::into_sorted_entries).collect();
    apply_candidate_budget(config.candidate_budget, &mut candidate_scores, &mut report);
    let candidate_scores = candidate_scores;
    let mut candidates: CandidateSets =
        candidate_scores.iter().map(|entries| entries.iter().map(|&(v, _)| v).collect()).collect();

    if let Some(filter_cfg) = &cfg.filtering {
        let ((), secs) = timed(|| {
            let thresholds = threshold_vector(bounds, filter_cfg);
            // `filter_user` probes each candidate once per threshold
            // level; a per-user score map keeps that O(1) instead of a
            // linear `find` over the entry list (O(K²·levels) total).
            let mut scores: HashMap<usize, f64> = HashMap::new();
            for (cands, entries) in candidates.iter_mut().zip(&candidate_scores) {
                scores.clear();
                scores.extend(entries.iter().copied());
                let score_of = |v: usize| scores.get(&v).copied().unwrap_or(f64::NEG_INFINITY);
                match filter_user(score_of, cands, &thresholds) {
                    Filtered::Kept(kept) => *cands = kept,
                    Filtered::Rejected => cands.clear(),
                }
            }
        });
        report.record("filter", "users", n_anon as u64, secs);
    }

    // Refined DA, fanned out per anonymized user. Each worker carries a
    // scratch similarity row (dense in the aux id space, but transient
    // and per-worker) holding only the user's candidate scores — the
    // verification schemes read nothing else. With [`RefinedMode::Shared`]
    // the per-side feature arenas are materialized once here and shared
    // read-only across workers, whose [`RefinedScratch`] buffers amortize
    // all per-user allocations; [`RefinedMode::PerUser`] runs the
    // from-scratch oracle instead. The context build is billed to the
    // refined stage — it is part of what the fast path trades the
    // per-user densification for (and what a pre-built `aux_context`
    // saves).
    let refined_cfg = RefinedConfig {
        classifier: cfg.classifier,
        verification: cfg.verification,
        seed: cfg.seed,
    };
    let mut mapping: Vec<Option<usize>> = vec![None; n_anon];
    let ((), refined_secs) = timed(|| {
        let contexts: Option<(RefinedContext, Cow<'_, RefinedContext>)> = match config.refined {
            RefinedMode::Shared => {
                let aux_ctx = match aux_context {
                    Some(ctx) if ctx.matches_classifier(cfg.classifier) => Cow::Borrowed(ctx),
                    _ => Cow::Owned(RefinedContext::build(aux_side, cfg.classifier)),
                };
                Some((RefinedContext::build(anon_side, cfg.classifier), aux_ctx))
            }
            RefinedMode::PerUser => None,
        };
        run_blocks(
            &mut mapping,
            config.block_size,
            config.effective_threads(),
            || (vec![f64::NEG_INFINITY; n_aux], RefinedScratch::new()),
            |offset, block, (scratch_row, scratch)| {
                for (i, slot) in block.iter_mut().enumerate() {
                    let u = offset + i;
                    for &(v, s) in &candidate_scores[u] {
                        scratch_row[v] = s;
                    }
                    *slot = match &contexts {
                        Some((anon_ctx, aux_ctx)) => refine_user_shared(
                            u,
                            &candidates[u],
                            anon_side,
                            aux_side,
                            anon_ctx,
                            aux_ctx,
                            scratch_row,
                            &refined_cfg,
                            scratch,
                        ),
                        None => refine_user(
                            u,
                            &candidates[u],
                            anon_side,
                            aux_side,
                            scratch_row,
                            &refined_cfg,
                        ),
                    };
                    for &(v, _) in &candidate_scores[u] {
                        scratch_row[v] = f64::NEG_INFINITY;
                    }
                }
            },
        );
    });
    report.record("refined", "users", n_anon as u64, refined_secs);

    EngineOutcome { candidates, candidate_scores, mapping, report }
}

/// Everything the engine produced for one attack.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Final candidate set per anonymized user (post-filtering; empty =
    /// rejected in the Top-K phase) — sorted by decreasing similarity.
    pub candidates: CandidateSets,
    /// The Top-K `(aux_user, score)` entries per anonymized user, sorted
    /// best-first, *before* filtering. This is the engine's sparse
    /// replacement for the serial attack's dense similarity matrix.
    pub candidate_scores: Vec<Vec<(usize, f64)>>,
    /// Refined-DA decision per anonymized user (`None` = `u → ⊥`).
    pub mapping: Vec<Option<usize>>,
    /// Per-stage wall-clock/throughput counters.
    pub report: EngineReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_core::{AttackConfig, DeHealth};
    use dehealth_corpus::{closed_world_split, ForumConfig, SplitConfig};

    fn tiny_split() -> dehealth_corpus::Split {
        let forum = Forum::generate(&ForumConfig::tiny(), 42);
        closed_world_split(&forum, &SplitConfig::fraction(0.5), 7)
    }

    fn attack_cfg() -> AttackConfig {
        AttackConfig { top_k: 5, n_landmarks: 10, ..AttackConfig::default() }
    }

    #[test]
    fn engine_matches_serial_attack() {
        // Both scoring modes (indexed is the default, dense the oracle)
        // must be bit-identical to the serial attack.
        let split = tiny_split();
        let serial = DeHealth::new(attack_cfg()).run(&split.auxiliary, &split.anonymized);
        for scoring in [ScoringMode::Indexed, ScoringMode::Dense] {
            let engine = Engine::new(EngineConfig {
                attack: attack_cfg(),
                n_threads: 3,
                block_size: 8,
                scoring,
                ..EngineConfig::default()
            });
            let out = engine.run(&split.auxiliary, &split.anonymized);
            assert_eq!(out.candidates, serial.candidates, "{scoring:?}");
            assert_eq!(out.mapping, serial.mapping, "{scoring:?}");
            // Candidate scores are bit-identical to the matrix entries.
            for (u, entries) in out.candidate_scores.iter().enumerate() {
                for &(v, s) in entries {
                    assert_eq!(s.to_bits(), serial.similarity[u][v].to_bits());
                }
            }
        }
    }

    #[test]
    fn candidate_budget_honors_the_recall_contract() {
        let split = tiny_split();
        let base = Engine::new(EngineConfig {
            attack: attack_cfg(),
            n_threads: 2,
            block_size: 8,
            ..EngineConfig::default()
        })
        .run(&split.auxiliary, &split.anonymized);
        let total: usize = base.candidate_scores.iter().map(Vec::len).sum();
        assert!(total > 8, "need enough candidates to trim");

        // A budget larger than the workload is a no-op.
        let loose = Engine::new(EngineConfig {
            attack: attack_cfg(),
            n_threads: 2,
            block_size: 8,
            candidate_budget: Some(total),
            ..EngineConfig::default()
        })
        .run(&split.auxiliary, &split.anonymized);
        assert_eq!(loose.candidates, base.candidates);
        assert_eq!(loose.mapping, base.mapping);
        assert!(loose.report.stage("budget").is_none());

        // A binding budget trims to exactly the contract: per-user best
        // entries always survive, the spare budget keeps the globally
        // best-scoring tail entries.
        let budget = total / 2;
        let tight = Engine::new(EngineConfig {
            attack: attack_cfg(),
            n_threads: 2,
            block_size: 8,
            candidate_budget: Some(budget),
            ..EngineConfig::default()
        })
        .run(&split.auxiliary, &split.anonymized);
        let kept: usize = tight.candidate_scores.iter().map(Vec::len).sum();
        let reserved = base.candidate_scores.iter().filter(|e| !e.is_empty()).count();
        assert_eq!(kept, budget.max(reserved));
        assert_eq!(tight.report.stage("budget").unwrap().skipped, (total - kept) as u64);

        // Expected survivors, recomputed independently from the
        // unbudgeted run.
        let mut tail: Vec<(f64, usize, usize)> = Vec::new();
        for (u, entries) in base.candidate_scores.iter().enumerate() {
            for &(v, s) in entries.iter().skip(1) {
                tail.push((s, u, v));
            }
        }
        tail.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let keep: HashSet<(usize, usize)> =
            tail.iter().take(budget - reserved).map(|&(_, u, v)| (u, v)).collect();
        for (u, (base_e, tight_e)) in
            base.candidate_scores.iter().zip(&tight.candidate_scores).enumerate()
        {
            let expect: Vec<(usize, f64)> = base_e
                .iter()
                .enumerate()
                .filter(|&(rank, &(v, _))| rank == 0 || keep.contains(&(u, v)))
                .map(|(_, &e)| e)
                .collect();
            assert_eq!(&expect, tight_e, "user {u} survivors diverge from the contract");
            // Recall@1 is untouched: the top candidate survives.
            if !base_e.is_empty() {
                assert_eq!(base_e[0].0, tight_e[0].0);
            }
        }
    }

    #[test]
    fn report_covers_all_stages() {
        let split = tiny_split();
        let engine = Engine::new(EngineConfig {
            attack: attack_cfg(),
            n_threads: 2,
            block_size: 4,
            ..EngineConfig::default()
        });
        let out = engine.run(&split.auxiliary, &split.anonymized);
        let pairs = out.report.stage("topk").expect("topk stage ran");
        let present = split.auxiliary.n_users
            - (0..split.auxiliary.n_users)
                .filter(|&u| split.auxiliary.user_posts(u).is_empty())
                .count();
        // Scored + pruned covers the full pair workload.
        assert_eq!(pairs.items + pairs.skipped, (split.anonymized.n_users * present) as u64);
        assert!(out.report.stage("prepare").is_some());
        assert!(out.report.stage("refined").is_some());
        assert_eq!(out.report.n_threads, 2);
    }

    #[test]
    fn dense_mode_scores_every_pair() {
        let split = tiny_split();
        let engine = Engine::new(EngineConfig {
            attack: attack_cfg(),
            n_threads: 2,
            block_size: 4,
            scoring: ScoringMode::Dense,
            ..EngineConfig::default()
        });
        let out = engine.run(&split.auxiliary, &split.anonymized);
        let pairs = out.report.stage("topk").expect("topk stage ran");
        let present = split.auxiliary.n_users
            - (0..split.auxiliary.n_users)
                .filter(|&u| split.auxiliary.user_posts(u).is_empty())
                .count();
        assert_eq!(pairs.items, (split.anonymized.n_users * present) as u64);
        assert_eq!(pairs.skipped, 0);
    }

    #[test]
    fn incremental_ingest_matches_batch_for_attribute_weights() {
        use dehealth_core::SimilarityWeights;
        // Chunked ingestion treats chunks as thread-disjoint user cohorts,
        // so the reference is a batch run on the concatenation of the
        // chunks (the session's merged view). Attribute similarity depends
        // only on the pair itself, so with attribute-only weights the
        // incremental result must equal that batch run exactly.
        let forum = Forum::generate(&ForumConfig::tiny(), 9);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 3);
        let attack = AttackConfig {
            weights: SimilarityWeights { c1: 0.0, c2: 0.0, c3: 1.0 },
            top_k: 4,
            n_landmarks: 5,
            ..AttackConfig::default()
        };
        let n = split.auxiliary.n_users;
        let cut = n / 2;
        let chunk_of = |lo: usize, hi: usize| {
            let posts: Vec<Post> = split
                .auxiliary
                .posts
                .iter()
                .filter(|p| (lo..hi).contains(&p.author))
                .map(|p| Post { author: p.author - lo, thread: p.thread, text: p.text.clone() })
                .collect();
            Forum::from_posts(hi - lo, split.auxiliary.n_threads, posts)
        };
        let chunks = [chunk_of(0, cut), chunk_of(cut, n)];
        // The merged view the session builds: users and threads offset by
        // the totals of the preceding chunks.
        let mut merged_posts = Vec::new();
        let (mut user_off, mut thread_off) = (0, 0);
        for chunk in &chunks {
            for p in &chunk.posts {
                merged_posts.push(Post {
                    author: p.author + user_off,
                    thread: p.thread + thread_off,
                    text: p.text.clone(),
                });
            }
            user_off += chunk.n_users;
            thread_off += chunk.n_threads;
        }
        let merged = Forum::from_posts(user_off, thread_off, merged_posts);

        let serial = DeHealth::new(attack.clone()).run(&merged, &split.anonymized);
        let engine = Engine::new(EngineConfig {
            attack,
            n_threads: 2,
            block_size: 16,
            ..EngineConfig::default()
        });
        let batch = engine.run(&merged, &split.anonymized);

        let mut session = engine.session(&split.anonymized);
        session.add_auxiliary_users(&chunks[0]);
        assert_eq!(session.n_auxiliary_users(), cut);
        session.add_auxiliary_users(&chunks[1]);
        let incremental = session.finish();

        assert_eq!(incremental.candidates, batch.candidates);
        assert_eq!(incremental.mapping, batch.mapping);
        assert_eq!(incremental.candidates, serial.candidates);
        assert_eq!(incremental.mapping, serial.mapping);
    }

    #[test]
    fn shared_refined_matches_per_user_oracle() {
        use dehealth_core::refined::Verification;
        let split = tiny_split();
        for verification in
            [Verification::None, Verification::Mean { r: 0.1 }, Verification::Sigma { factor: 2.0 }]
        {
            let attack = AttackConfig { verification, ..attack_cfg() };
            let mut outcomes = Vec::new();
            for refined in [RefinedMode::Shared, RefinedMode::PerUser] {
                let engine = Engine::new(EngineConfig {
                    attack: attack.clone(),
                    n_threads: 2,
                    block_size: 8,
                    refined,
                    ..EngineConfig::default()
                });
                outcomes.push(engine.run(&split.auxiliary, &split.anonymized));
            }
            assert_eq!(outcomes[0].mapping, outcomes[1].mapping, "{verification:?}");
            assert_eq!(outcomes[0].candidates, outcomes[1].candidates, "{verification:?}");
        }
    }

    #[test]
    fn filtering_with_many_candidates_matches_serial() {
        use dehealth_core::FilterConfig;
        // A Top-K large enough to keep every present auxiliary user as a
        // candidate exercises the precomputed score map across wide entry
        // lists and all threshold levels.
        let split = tiny_split();
        let attack = AttackConfig {
            top_k: split.auxiliary.n_users,
            filtering: Some(FilterConfig { epsilon: 0.05, levels: 12 }),
            n_landmarks: 10,
            ..AttackConfig::default()
        };
        let serial = DeHealth::new(attack.clone()).run(&split.auxiliary, &split.anonymized);
        let engine = Engine::new(EngineConfig {
            attack,
            n_threads: 3,
            block_size: 4,
            ..EngineConfig::default()
        });
        let out = engine.run(&split.auxiliary, &split.anonymized);
        assert_eq!(out.candidates, serial.candidates);
        assert_eq!(out.mapping, serial.mapping);
        // The entry lists the score map is built from really were wide.
        assert!(out.candidate_scores.iter().any(|e| e.len() > 10));
    }

    #[test]
    fn run_prepared_matches_run() {
        // The serving path — prepared auxiliary corpus, optional
        // pre-built index/context — must reproduce the one-shot engine
        // run bit for bit in every preparation combination, including a
        // context built for the wrong classifier representation (which
        // must be rebuilt, not misused).
        let split = tiny_split();
        let engine = Engine::new(EngineConfig {
            attack: attack_cfg(),
            n_threads: 2,
            block_size: 8,
            ..EngineConfig::default()
        });
        let baseline = engine.run(&split.auxiliary, &split.anonymized);

        let feats = extract_post_features(&split.auxiliary);
        let uda = UdaGraph::build_with_features(&split.auxiliary, &feats);
        let side = Side { forum: &split.auxiliary, uda: &uda, post_features: &feats };
        let index = AttributeIndex::from_uda(&uda);
        let matching_ctx = RefinedContext::build(&side, attack_cfg().classifier);
        let mismatched_ctx =
            RefinedContext::build(&side, dehealth_core::refined::ClassifierKind::Centroid);
        assert!(!mismatched_ctx.matches_classifier(attack_cfg().classifier));
        for (ix, ctx) in [
            (None, None),
            (Some(&index), Some(&matching_ctx)),
            (Some(&index), Some(&mismatched_ctx)),
            (None, Some(&matching_ctx)),
        ] {
            let prepared = PreparedAuxiliary {
                forum: &split.auxiliary,
                features: &feats,
                uda: &uda,
                index: ix,
                context: ctx,
            };
            let out = engine.run_prepared(&prepared, &split.anonymized);
            assert_eq!(out.candidates, baseline.candidates);
            assert_eq!(out.mapping, baseline.mapping);
            for (a, b) in out.candidate_scores.iter().zip(&baseline.candidate_scores) {
                assert_eq!(a.len(), b.len());
                for (&(v, s), &(w, t)) in a.iter().zip(b) {
                    assert_eq!(v, w);
                    assert_eq!(s.to_bits(), t.to_bits());
                }
            }
        }
    }

    #[test]
    fn run_prepared_honors_filtering_and_dense_mode() {
        use dehealth_core::FilterConfig;
        let split = tiny_split();
        let attack = AttackConfig { filtering: Some(FilterConfig::default()), ..attack_cfg() };
        let feats = extract_post_features(&split.auxiliary);
        let uda = UdaGraph::build_with_features(&split.auxiliary, &feats);
        let index = AttributeIndex::from_uda(&uda);
        let prepared = PreparedAuxiliary {
            forum: &split.auxiliary,
            features: &feats,
            uda: &uda,
            index: Some(&index),
            context: None,
        };
        for scoring in [ScoringMode::Indexed, ScoringMode::Dense] {
            let engine = Engine::new(EngineConfig {
                attack: attack.clone(),
                n_threads: 2,
                block_size: 8,
                scoring,
                ..EngineConfig::default()
            });
            let baseline = engine.run(&split.auxiliary, &split.anonymized);
            let out = engine.run_prepared(&prepared, &split.anonymized);
            assert_eq!(out.candidates, baseline.candidates, "{scoring:?}");
            assert_eq!(out.mapping, baseline.mapping, "{scoring:?}");
            // Filtering needs exact global bounds: nothing may be pruned.
            assert_eq!(out.report.stage("topk").unwrap().skipped, 0, "{scoring:?}");
        }
    }

    #[test]
    fn batch_matches_solo_runs() {
        use dehealth_core::FilterConfig;
        // The fused batch pass must be bit-identical, request by
        // request, to solo `run_prepared` calls with the same attack
        // config — across thread counts, mixed per-request
        // top_k/seed/n_landmarks overrides, a filtering request in the
        // middle of the batch, and every index/context preparation.
        let split = tiny_split();
        let second = {
            // A second, structurally different anonymized batch.
            let forum = Forum::generate(&ForumConfig::tiny(), 99);
            closed_world_split(&forum, &SplitConfig::fraction(0.6), 13).anonymized
        };
        let attacks = [
            attack_cfg(),
            AttackConfig { top_k: 3, seed: 1234, ..attack_cfg() },
            AttackConfig { n_landmarks: 6, ..attack_cfg() },
            AttackConfig { filtering: Some(FilterConfig::default()), ..attack_cfg() },
        ];
        let anon_of = |i: usize| if i.is_multiple_of(2) { &split.anonymized } else { &second };

        let feats = extract_post_features(&split.auxiliary);
        let uda = UdaGraph::build_with_features(&split.auxiliary, &feats);
        let index = AttributeIndex::from_uda(&uda);
        let side = Side { forum: &split.auxiliary, uda: &uda, post_features: &feats };
        let ctx = RefinedContext::build(&side, attack_cfg().classifier);
        for (ix, context) in [(None, None), (Some(&index), Some(&ctx))] {
            let prepared = PreparedAuxiliary {
                forum: &split.auxiliary,
                features: &feats,
                uda: &uda,
                index: ix,
                context,
            };
            for n_threads in [1, 2, 8] {
                let engine = Engine::new(EngineConfig {
                    attack: attack_cfg(),
                    n_threads,
                    block_size: 8,
                    ..EngineConfig::default()
                });
                let requests: Vec<BatchRequest<'_>> = attacks
                    .iter()
                    .enumerate()
                    .map(|(i, attack)| BatchRequest {
                        attack: attack.clone(),
                        anonymized: anon_of(i),
                    })
                    .collect();
                let batch = engine.run_prepared_batch(&prepared, &requests);
                assert_eq!(batch.len(), requests.len());
                for (i, (out, attack)) in batch.iter().zip(&attacks).enumerate() {
                    let solo_engine = Engine::new(EngineConfig {
                        attack: attack.clone(),
                        n_threads,
                        block_size: 8,
                        ..EngineConfig::default()
                    });
                    let solo = solo_engine.run_prepared(&prepared, anon_of(i));
                    assert_eq!(out.candidates, solo.candidates, "request {i}, {n_threads} thr");
                    assert_eq!(out.mapping, solo.mapping, "request {i}, {n_threads} thr");
                    for (a, b) in out.candidate_scores.iter().zip(&solo.candidate_scores) {
                        assert_eq!(a.len(), b.len());
                        for (&(v, s), &(w, t)) in a.iter().zip(b) {
                            assert_eq!(v, w);
                            assert_eq!(s.to_bits(), t.to_bits(), "request {i}");
                        }
                    }
                    // Exact per-request item accounting survives fusion.
                    let topk = out.report.stage("topk").unwrap();
                    let solo_topk = solo.report.stage("topk").unwrap();
                    assert_eq!(topk.items, solo_topk.items, "request {i}");
                    assert_eq!(topk.skipped, solo_topk.skipped, "request {i}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_returns_no_outcomes() {
        let split = tiny_split();
        let feats = extract_post_features(&split.auxiliary);
        let uda = UdaGraph::build_with_features(&split.auxiliary, &feats);
        let prepared = PreparedAuxiliary {
            forum: &split.auxiliary,
            features: &feats,
            uda: &uda,
            index: None,
            context: None,
        };
        let engine = Engine::new(EngineConfig::default());
        assert!(engine.run_prepared_batch(&prepared, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not cover the auxiliary corpus")]
    fn run_prepared_rejects_mismatched_index() {
        // A stale index covering a different user population must fail
        // loudly at entry, not corrupt candidate ids downstream.
        let split = tiny_split();
        let feats = extract_post_features(&split.auxiliary);
        let uda = UdaGraph::build_with_features(&split.auxiliary, &feats);
        let mut stale = AttributeIndex::from_uda(&uda);
        stale.push_user(&dehealth_stylometry::UserAttributes::new(), false);
        let prepared = PreparedAuxiliary {
            forum: &split.auxiliary,
            features: &feats,
            uda: &uda,
            index: Some(&stale),
            context: None,
        };
        let engine = Engine::new(EngineConfig::default());
        let _ = engine.run_prepared(&prepared, &split.anonymized);
    }

    #[test]
    #[should_panic(expected = "Selection::Direct")]
    fn graph_matching_is_rejected() {
        let _ = Engine::new(EngineConfig {
            attack: AttackConfig { selection: Selection::GraphMatching, ..AttackConfig::default() },
            ..EngineConfig::default()
        });
    }

    #[test]
    fn filtering_matches_serial() {
        use dehealth_core::FilterConfig;
        let split = tiny_split();
        let attack = AttackConfig { filtering: Some(FilterConfig::default()), ..attack_cfg() };
        let serial = DeHealth::new(attack.clone()).run(&split.auxiliary, &split.anonymized);
        for scoring in [ScoringMode::Indexed, ScoringMode::Dense] {
            let engine = Engine::new(EngineConfig {
                attack: attack.clone(),
                n_threads: 2,
                block_size: 8,
                scoring,
                ..EngineConfig::default()
            });
            let out = engine.run(&split.auxiliary, &split.anonymized);
            assert_eq!(out.candidates, serial.candidates, "{scoring:?}");
            assert_eq!(out.mapping, serial.mapping, "{scoring:?}");
            // Filtering needs exact global score bounds, so the indexed
            // path must have pruned nothing.
            assert_eq!(out.report.stage("topk").unwrap().skipped, 0, "{scoring:?}");
        }
    }
}
