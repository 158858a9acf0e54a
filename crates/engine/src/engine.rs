//! The sharded execution engine: blockwise Top-K DA and parallel Refined
//! DA against a prepared auxiliary side, either built for one attack
//! ([`Engine::run`]) or standing (snapshot-loaded) and shared by many
//! ([`Engine::run_prepared`]).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use std::time::Instant;

use dehealth_core::attack::AttackConfig;
use dehealth_core::filter::{filter_user, threshold_vector, Filtered, ScoreBounds};
use dehealth_core::index::{AttributeIndex, AuxHotAttrs, IndexedScorer, PairTally};
use dehealth_core::refined::{
    refine_user_shared, RefinedConfig, RefinedContext, RefinedScratch, Side,
};
use dehealth_core::similarity::{AuxStructure, SimilarityEngine};
use dehealth_core::topk::{BoundedTopK, CandidateSets, Selection};
use dehealth_core::uda::{extract_post_features_with_threads, UdaGraph};
use dehealth_corpus::Forum;
use dehealth_stylometry::FeatureVector;

use crate::pool::{block_len, run_blocks, workers};
use crate::report::{timed, EngineReport};

/// Execution-engine configuration: the attack parameters plus the
/// parallel-execution knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The attack configuration (weights, K, classifier, verification…).
    /// `selection` must be [`Selection::Direct`]; graph-matching selection
    /// is a global optimization over the dense similarity matrix, which
    /// the engine never materializes — use `DeHealth::run` for it.
    pub attack: AttackConfig,
    /// Threads for the `prepare` stage's feature extraction and the
    /// Top-K and Refined stages, the calling thread included; `0` means
    /// [`std::thread::available_parallelism`]. A stage over `n` anonymized
    /// users runs on `min(threads, n)` workers, and extraction on at most
    /// one thread per 16 posts.
    pub n_threads: usize,
    /// The most anonymized users per work block (the unit of work
    /// stealing). A batch of `n` users on `t` threads is cut into blocks
    /// of `⌈n / (8·t)⌉` users, at least 1 and at most this cap
    /// ([`crate::pool::block_len`]), so small batches still spread over
    /// every thread and large ones keep this block size.
    pub block_size: usize,
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

    /// One-shot attack: prepare the auxiliary side (its per-post features
    /// and UDA graph, timed into the `prepare` stage) and attack it through
    /// [`Engine::run_prepared`], with an attribute index built for this
    /// call and a fresh [`AuxiliaryCache`].
    #[must_use]
    pub fn run(&self, auxiliary: &Forum, anonymized: &Forum) -> EngineOutcome {
        let threads = self.config.effective_threads();
        let ((features, uda), secs) = prepare(auxiliary, threads);
        let cache = AuxiliaryCache::default();
        let aux = PreparedAuxiliary {
            forum: auxiliary,
            features: &features,
            uda: &uda,
            index: None,
            context: None,
            cache: &cache,
        };
        let mut outcome = self.run_prepared_on(&aux, anonymized, threads);
        outcome.report.record("prepare", "posts", auxiliary.posts.len() as u64, secs);
        outcome
    }

    /// Attack `anonymized` against a **pre-built** auxiliary corpus —
    /// the serving path behind `dehealth-service`'s long-lived daemon,
    /// where the auxiliary side is a standing asset (typically reloaded
    /// from a snapshot) and only the anonymized batch changes per call.
    ///
    /// Skips every piece of auxiliary preparation: feature extraction and
    /// the UDA graph always, the [`AttributeIndex`] and the refined-DA
    /// [`RefinedContext`] when `aux` carries them (the context is used
    /// only if it matches the configured classifier's representation —
    /// sparse for KNN, dense otherwise — and is rebuilt from the
    /// prepared features otherwise, still without touching post text),
    /// and the auxiliary [`AuxStructure`] and [`AuxHotAttrs`] once
    /// `aux.cache` holds them (see [`AuxiliaryCache`]). The `structure`
    /// stage of the report times the similarity-engine and scorer
    /// construction (with the index build when `aux` carries none); its
    /// items are the auxiliary users whose structure this call built, 0
    /// on a cache hit.
    /// Candidate sets, their score bits and mappings are bit-identical to
    /// the serial `DeHealth::run` on the same forums (`tests/engine_parity.rs`,
    /// `tests/index_parity.rs`, `tests/service_parity.rs`).
    ///
    /// # Panics
    /// Panics if `aux` is internally inconsistent (feature/post count
    /// mismatch, or an index not covering exactly the corpus's users) —
    /// `PreparedAuxiliary` producers validate this at build/load time.
    #[must_use]
    pub fn run_prepared(&self, aux: &PreparedAuxiliary<'_>, anonymized: &Forum) -> EngineOutcome {
        self.run_prepared_on(aux, anonymized, self.config.effective_threads())
    }

    /// [`Engine::run_prepared`] on `threads` workers, resolved once per
    /// attack by the caller.
    fn run_prepared_on(
        &self,
        aux: &PreparedAuxiliary<'_>,
        anonymized: &Forum,
        threads: usize,
    ) -> EngineOutcome {
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
        let (n_anon, cap) = (anonymized.n_users, self.config.block_size);
        let mut report =
            EngineReport::new(workers(n_anon, cap, threads), block_len(n_anon, cap, threads));
        let ((anon_feats, anon_uda), secs) = prepare(anonymized, threads);
        report.record("prepare", "posts", anonymized.posts.len() as u64, secs);

        let structure_start = Instant::now();
        let index = aux.scoring_index();
        let (aux_st, built) = aux.cache.structure(aux.uda, cfg.n_landmarks);
        let sim = SimilarityEngine::with_aux_structure(&anon_uda, aux.uda, cfg.weights, aux_st);
        // Pruning would hide the global score minimum from `bounds`,
        // which Algorithm-2 filtering thresholds against.
        let prune = cfg.filtering.is_none();
        let scorer =
            IndexedScorer::with_hot_attrs(&sim, &index, aux.cache.hot_attrs(&index), prune);
        report.record("structure", "users", built, structure_start.elapsed().as_secs_f64());
        let mut heaps = vec![BoundedTopK::new(cfg.top_k); anonymized.n_users];
        let mut bounds = ScoreBounds::new();
        topk_pass(&self.config, threads, &scorer, &mut heaps, &mut bounds, &mut report);

        let anon_side = Side { forum: anonymized, uda: &anon_uda, post_features: &anon_feats };
        let aux_side = Side { forum: aux.forum, uda: aux.uda, post_features: aux.features };
        complete_attack(
            &self.config,
            threads,
            &anon_side,
            &aux_side,
            heaps,
            bounds,
            aux.context,
            report,
        )
    }
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
    /// on the fly when `None`). May be owned or snapshot-borrowed.
    pub index: Option<&'a AttributeIndex>,
    /// Pre-built refined-DA context of the auxiliary side (rebuilt from
    /// `features` when `None`, or when its representation does not match
    /// the configured classifier). May be owned or snapshot-borrowed.
    pub context: Option<&'a RefinedContext>,
    /// This corpus generation's cache of the auxiliary structure and hot
    /// tables. An empty cache that is then dropped builds them for one
    /// call.
    pub cache: &'a AuxiliaryCache,
}

impl<'a> PreparedAuxiliary<'a> {
    /// The index one [`Engine::run_prepared`] call scores through:
    /// `index`, or one built over `uda` for this call.
    fn scoring_index(&self) -> Cow<'a, AttributeIndex> {
        self.index.map_or_else(|| Cow::Owned(AttributeIndex::from_uda(self.uda)), Cow::Borrowed)
    }
}

/// Per-generation cache of the auxiliary side's scoring state: the
/// [`AuxStructure`] of its UDA graph (landmarks, closeness and NCS
/// vectors, per-user scalars) and the [`AuxHotAttrs`] of its attribute
/// index. Neither depends on the anonymized batch beyond `n_landmarks`,
/// so a standing corpus builds each once and every later
/// [`Engine::run_prepared`] reads it.
///
/// - **Lazy.** The first attack that needs an entry builds it; attacks
///   racing to be first wait for that one build ([`OnceLock`]).
/// - **Keyed by first use.** The structure is built for the first
///   attack's `n_landmarks`. An attack with another value builds a
///   structure of its own and leaves the cached one in place, so the
///   cache holds at most one structure whatever values clients send.
/// - **Owned by the corpus.** Whoever appends a disjoint cohort to the
///   auxiliary side calls [`Self::extend`], which extends each filled
///   entry by the cohort or drops it when the cohort moved its landmarks
///   or its hot set; any other change needs a fresh default. A stale entry
///   of another size makes the scoring constructors panic instead of
///   mis-scoring.
///
/// Cloning shares the built entries; extending a clone copies an entry
/// before it grows, so the other handle keeps its own.
#[derive(Debug, Clone, Default)]
pub struct AuxiliaryCache {
    structure: OnceLock<AuxStructure>,
    hot: OnceLock<AuxHotAttrs>,
}

impl AuxiliaryCache {
    /// Carry the cache across the append of a disjoint cohort: `uda` and
    /// `index` are the auxiliary side's UDA graph and attribute index,
    /// each grown by the cohort. A filled entry is extended by the cohort
    /// ([`AuxStructure::extend`], [`AuxHotAttrs::extend`]) and then equals
    /// a fresh build over the grown side; an entry whose landmarks or hot
    /// set the cohort moved is dropped, and the next attack rebuilds it.
    /// An empty entry stays empty.
    pub fn extend(&mut self, uda: &UdaGraph, index: &AttributeIndex) {
        if self.structure.get_mut().is_some_and(|st| !st.extend(uda)) {
            self.structure.take();
        }
        if self.hot.get_mut().is_some_and(|hot| !hot.extend(index)) {
            self.hot.take();
        }
    }

    /// The structure of `uda` for `n_landmarks`, and the number of
    /// auxiliary users this call built it for (0 on a cache hit).
    fn structure(&self, uda: &UdaGraph, n_landmarks: usize) -> (AuxStructure, u64) {
        let mut built = 0;
        let cached = self.structure.get_or_init(|| {
            built = uda.n_users() as u64;
            AuxStructure::build(uda, n_landmarks)
        });
        if cached.n_landmarks() == n_landmarks {
            (cached.clone(), built)
        } else {
            (AuxStructure::build(uda, n_landmarks), uda.n_users() as u64)
        }
    }

    /// The hot tables of `index`, built by the first call.
    fn hot_attrs(&self, index: &AttributeIndex) -> AuxHotAttrs {
        self.hot.get_or_init(|| AuxHotAttrs::build(index)).clone()
    }
}

/// Prepare one side of an attack, the `prepare` stage: extract its
/// per-post features on up to `n_threads` threads and build its UDA
/// graph, with the seconds it took.
fn prepare(forum: &Forum, n_threads: usize) -> ((Vec<FeatureVector>, UdaGraph), f64) {
    timed(|| {
        let feats = extract_post_features_with_threads(forum, n_threads);
        let uda = UdaGraph::build_with_features(forum, &feats);
        (feats, uda)
    })
}

/// The Top-K stage: score every anonymized user against the auxiliary
/// side through `scorer`, sharded over `threads` workers, pruning against
/// each heap's floor when the scorer does.
fn topk_pass(
    config: &EngineConfig,
    threads: usize,
    scorer: &IndexedScorer<'_, '_>,
    heaps: &mut [BoundedTopK],
    bounds: &mut ScoreBounds,
    report: &mut EngineReport,
) {
    let ((), topk_secs) = timed(|| {
        let states = run_blocks(
            heaps,
            config.block_size,
            threads,
            || (ScoreBounds::new(), PairTally::default(), scorer.scratch()),
            |offset, block, (local_bounds, tally, scratch)| {
                for (i, heap) in block.iter_mut().enumerate() {
                    *tally += scorer.score_user(offset + i, scratch, heap, local_bounds);
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

/// The stages after Top-K: extract candidate sets from the heaps, apply
/// the candidate budget and Algorithm-2 filtering (if configured), and
/// fan the Refined-DA stage out over `threads` workers.
///
/// `aux_context` short-circuits the auxiliary-side context build when a
/// matching pre-built context is at hand (the snapshot-serving path); a
/// context for the wrong classifier representation is ignored and
/// rebuilt from `aux_side`'s features.
#[allow(clippy::too_many_arguments)]
fn complete_attack(
    config: &EngineConfig,
    threads: usize,
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
    // verification schemes read nothing else. The per-side feature arenas
    // are materialized once here and shared read-only across workers,
    // whose [`RefinedScratch`] buffers amortize all per-user allocations.
    // The context build is billed to the refined stage — it is part of
    // what the shared path trades the per-user densification of
    // `refine_user` for (and what a pre-built `aux_context` saves).
    let refined_cfg = RefinedConfig {
        classifier: cfg.classifier,
        verification: cfg.verification,
        seed: cfg.seed,
    };
    let mut mapping: Vec<Option<usize>> = vec![None; n_anon];
    let ((), refined_secs) = timed(|| {
        let aux_ctx = match aux_context {
            Some(ctx) if ctx.matches_classifier(cfg.classifier) => Cow::Borrowed(ctx),
            _ => Cow::Owned(RefinedContext::build(aux_side, cfg.classifier)),
        };
        let anon_ctx = RefinedContext::build(anon_side, cfg.classifier);
        run_blocks(
            &mut mapping,
            config.block_size,
            threads,
            || (vec![f64::NEG_INFINITY; n_aux], RefinedScratch::new()),
            |offset, block, (scratch_row, scratch)| {
                for (i, slot) in block.iter_mut().enumerate() {
                    let u = offset + i;
                    for &(v, s) in &candidate_scores[u] {
                        scratch_row[v] = s;
                    }
                    *slot = refine_user_shared(
                        u,
                        &candidates[u],
                        anon_side,
                        aux_side,
                        &anon_ctx,
                        &aux_ctx,
                        scratch_row,
                        &refined_cfg,
                        scratch,
                    );
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
    use dehealth_core::uda::extract_post_features;
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
        let split = tiny_split();
        let serial = DeHealth::new(attack_cfg()).run(&split.auxiliary, &split.anonymized);
        let engine = Engine::new(EngineConfig {
            attack: attack_cfg(),
            n_threads: 3,
            block_size: 8,
            ..EngineConfig::default()
        });
        let out = engine.run(&split.auxiliary, &split.anonymized);
        assert_eq!(out.candidates, serial.candidates);
        assert_eq!(out.mapping, serial.mapping);
        // Candidate scores are bit-identical to the matrix entries.
        for (u, entries) in out.candidate_scores.iter().enumerate() {
            for &(v, s) in entries {
                assert_eq!(s.to_bits(), serial.similarity[u][v].to_bits());
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
        // `prepare` covers both sides' posts.
        let prepare = out.report.stage("prepare").expect("prepare stage ran");
        assert_eq!(
            prepare.items,
            (split.anonymized.posts.len() + split.auxiliary.posts.len()) as u64
        );
        assert!(out.report.stage("refined").is_some());
        // A fresh cache builds the structure of every auxiliary user.
        let structure = out.report.stage("structure").expect("structure stage ran");
        assert_eq!(structure.items, split.auxiliary.n_users as u64);
        assert_eq!(out.report.n_threads, 2);
    }

    /// The first `n` anonymized users of `split` as a forum of their own.
    fn first_users(split: &dehealth_corpus::Split, n: usize) -> Forum {
        let anon = &split.anonymized;
        let posts = anon.posts.iter().filter(|p| p.author < n).cloned().collect();
        Forum::from_posts(n, anon.n_threads, posts)
    }

    #[test]
    fn report_counts_the_workers_started() {
        // Six anonymized users are cut into blocks of one, so each stage
        // runs min(threads, 6) workers, however large the block cap.
        let split = tiny_split();
        let six = first_users(&split, 6);
        let feats = extract_post_features(&split.auxiliary);
        let uda = UdaGraph::build_with_features(&split.auxiliary, &feats);
        let cache = AuxiliaryCache::default();
        let prepared = PreparedAuxiliary {
            forum: &split.auxiliary,
            features: &feats,
            uda: &uda,
            index: None,
            context: None,
            cache: &cache,
        };
        for (threads, block_size) in [(1, 64), (2, 64), (8, 64), (8, 2), (3, 1)] {
            let config = EngineConfig {
                attack: attack_cfg(),
                n_threads: threads,
                block_size,
                ..EngineConfig::default()
            };
            let engine = Engine::new(config);
            let want = threads.min(six.n_users);
            assert_eq!(engine.run(&split.auxiliary, &six).report.n_threads, want);
            assert_eq!(engine.run_prepared(&prepared, &six).report.n_threads, want);
        }
    }

    #[test]
    fn report_records_the_block_length_the_stages_ran_with() {
        // Ten users on two threads run in blocks of ⌈10 / 16⌉ = 1, not in
        // the configured 64; a full anonymized side of this tiny split is
        // still far below the cap.
        let split = tiny_split();
        let ten = first_users(&split, 10);
        let engine = Engine::new(EngineConfig {
            attack: attack_cfg(),
            n_threads: 2,
            ..EngineConfig::default()
        });
        assert_eq!(engine.config().block_size, 64);
        let report = engine.run(&split.auxiliary, &ten).report;
        assert_eq!((report.n_threads, report.block_size), (2, 1));
        let n = split.anonymized.n_users;
        let report = engine.run(&split.auxiliary, &split.anonymized).report;
        assert_eq!(report.block_size, n.div_ceil(16));
        assert!(format!("{report}").contains(&format!("block size {}", n.div_ceil(16))));
    }

    #[test]
    fn shared_refined_matches_per_user_oracle() {
        // The engine's shared refined path against the from-scratch
        // `refine_user` oracle, run on the engine's own candidates and
        // scores.
        use dehealth_core::refined::{refine_user, Verification};
        let split = tiny_split();
        let (anon, aux) = (&split.anonymized, &split.auxiliary);
        let (anon_feats, aux_feats) = (extract_post_features(anon), extract_post_features(aux));
        let anon_uda = UdaGraph::build_with_features(anon, &anon_feats);
        let aux_uda = UdaGraph::build_with_features(aux, &aux_feats);
        let anon_side = Side { forum: anon, uda: &anon_uda, post_features: &anon_feats };
        let aux_side = Side { forum: aux, uda: &aux_uda, post_features: &aux_feats };
        for verification in
            [Verification::None, Verification::Mean { r: 0.1 }, Verification::Sigma { factor: 2.0 }]
        {
            let attack = AttackConfig { verification, ..attack_cfg() };
            let refined_cfg =
                RefinedConfig { classifier: attack.classifier, verification, seed: attack.seed };
            let engine = Engine::new(EngineConfig {
                attack,
                n_threads: 2,
                block_size: 8,
                ..EngineConfig::default()
            });
            let out = engine.run(aux, anon);
            let mut row = vec![f64::NEG_INFINITY; aux.n_users];
            for u in 0..anon.n_users {
                for &(v, s) in &out.candidate_scores[u] {
                    row[v] = s;
                }
                let want =
                    refine_user(u, &out.candidates[u], &anon_side, &aux_side, &row, &refined_cfg);
                assert_eq!(out.mapping[u], want, "user {u}, {verification:?}");
                for &(v, _) in &out.candidate_scores[u] {
                    row[v] = f64::NEG_INFINITY;
                }
            }
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
                cache: &AuxiliaryCache::default(),
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
    fn run_prepared_honors_filtering() {
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
            cache: &AuxiliaryCache::default(),
        };
        let engine = Engine::new(EngineConfig {
            attack: attack.clone(),
            n_threads: 2,
            block_size: 8,
            ..EngineConfig::default()
        });
        let serial = DeHealth::new(attack).run(&split.auxiliary, &split.anonymized);
        let out = engine.run_prepared(&prepared, &split.anonymized);
        assert_eq!(out.candidates, serial.candidates);
        assert_eq!(out.mapping, serial.mapping);
        // Filtering needs exact global bounds: nothing may be pruned.
        assert_eq!(out.report.stage("topk").unwrap().skipped, 0);
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
            cache: &AuxiliaryCache::default(),
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
        let engine = Engine::new(EngineConfig {
            attack,
            n_threads: 2,
            block_size: 8,
            ..EngineConfig::default()
        });
        let out = engine.run(&split.auxiliary, &split.anonymized);
        assert_eq!(out.candidates, serial.candidates);
        assert_eq!(out.mapping, serial.mapping);
        // Filtering needs exact global score bounds, so the indexed
        // scorer must have pruned nothing.
        assert_eq!(out.report.stage("topk").unwrap().skipped, 0);
    }
}
