//! Structural similarity `s_uv = c1·s^d_uv + c2·s^s_uv + c3·s^a_uv`
//! (Section III-B).
//!
//! - `s^d` (degree similarity): `min(d_u,d_v)/max(d_u,d_v) +
//!   min(wd_u,wd_v)/max(wd_u,wd_v) + cos(D_u, D_v)` with NCS vectors
//!   zero-padded to a common length;
//! - `s^s` (distance similarity): `cos(H_u(S1), H_v(S2)) +
//!   cos(WH_u(S1), WH_v(S2))` over landmark closeness vectors;
//! - `s^a` (attribute similarity): Jaccard plus weighted Jaccard of the
//!   user attribute sets.

use std::sync::Arc;

use crate::uda::UdaGraph;

/// The `c1, c2, c3` weights of the combined similarity. The paper's
/// default is `(0.05, 0.05, 0.9)`: degree and distance carry little signal
/// in sparse disconnected health-forum graphs, so attributes dominate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityWeights {
    /// Weight of the degree similarity `s^d`.
    pub c1: f64,
    /// Weight of the distance similarity `s^s`.
    pub c2: f64,
    /// Weight of the attribute similarity `s^a`.
    pub c3: f64,
}

impl Default for SimilarityWeights {
    fn default() -> Self {
        Self { c1: 0.05, c2: 0.05, c3: 0.9 }
    }
}

/// Ratio `min/max` with the convention that two zeros are perfectly
/// similar.
fn ratio(a: f64, b: f64) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if hi == 0.0 {
        1.0
    } else {
        lo / hi
    }
}

/// Euclidean norm, summed in slice order. [`cosine`] takes it
/// precomputed; the sum is the same either way, so hoisting it out of the
/// pair kernel keeps every score bit.
fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// [`padded_cosine`] with both norms supplied.
fn cosine(a: &[f64], na: f64, b: &[f64], nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    (dot / (na * nb)).min(1.0)
}

/// Cosine of two equal-or-different length vectors, zero-padding the
/// shorter one (the paper: "we pad the short vector with zeros").
///
/// Exactly 0.0 when either norm is 0, and clamped to at most 1.0:
/// rounding can push `dot / (na·nb)` a few ulps past 1 for near-parallel
/// vectors. The indexed scorer's pruning bounds ([`crate::index`]) rely
/// on both facts holding *exactly* in `f64` arithmetic.
#[must_use]
pub fn padded_cosine(a: &[f64], b: &[f64]) -> f64 {
    cosine(a, norm(a), b, norm(b))
}

/// Per-user scalars of one side (40 bytes): degree, weighted degree and
/// the norms of the three structural vectors, computed once per engine
/// so the pair kernel only takes dot products.
#[derive(Debug, Clone, Copy)]
struct UserScalars {
    degree: f64,
    wdegree: f64,
    ncs_norm: f64,
    hops_norm: f64,
    whops_norm: f64,
}

/// One side's structural state: its landmarks, NCS and
/// landmark-closeness vectors, and their [`UserScalars`].
#[derive(Debug, Clone)]
struct Structure {
    landmarks: Vec<usize>,
    ncs: Vec<Vec<f64>>,
    hops: Vec<Vec<f64>>,
    whops: Vec<Vec<f64>>,
    scalars: Vec<UserScalars>,
}

impl Structure {
    fn new(uda: &UdaGraph, n_landmarks: usize) -> Self {
        let landmarks = uda.landmarks(n_landmarks);
        let (hops, whops) = uda.landmark_closeness(&landmarks);
        let mut st = Self { landmarks, ncs: Vec::new(), hops, whops, scalars: Vec::new() };
        st.push_users(uda);
        st
    }

    /// Compute the NCS vectors and scalars of `uda`'s users from the
    /// first one without them, whose closeness rows are in place.
    fn push_users(&mut self, uda: &UdaGraph) {
        for u in self.scalars.len()..uda.n_users() {
            let ncs = uda.graph.ncs_vector(u);
            self.scalars.push(UserScalars {
                degree: uda.graph.degree(u) as f64,
                wdegree: uda.graph.weighted_degree(u),
                ncs_norm: norm(&ncs),
                hops_norm: norm(&self.hops[u]),
                whops_norm: norm(&self.whops[u]),
            });
            self.ncs.push(ncs);
        }
    }
}

/// The auxiliary side's structural state — its landmarks' closeness
/// vectors, NCS vectors and per-user scalars — built once and shared
/// read-only by every [`SimilarityEngine`] over the same auxiliary UDA
/// graph. None of it depends on the anonymized side, so a standing
/// auxiliary corpus can build it once per generation instead of once per
/// attack. Cloning shares the state.
///
/// The handle records what it was built for: the auxiliary user count and
/// `n_landmarks`. [`SimilarityEngine::with_aux_structure`] refuses a
/// handle built over a graph of another size. A standing corpus that
/// grows by disjoint cohorts carries the structure along with
/// [`Self::extend`].
#[derive(Debug, Clone)]
pub struct AuxStructure {
    st: Arc<Structure>,
    n_landmarks: usize,
}

impl AuxStructure {
    /// Select `n_landmarks` landmarks on `aux` and precompute its NCS and
    /// landmark-closeness vectors, their norms, and every user's degree
    /// and weighted degree.
    #[must_use]
    pub fn build(aux: &UdaGraph, n_landmarks: usize) -> Self {
        Self { st: Arc::new(Structure::new(aux, n_landmarks)), n_landmarks }
    }

    /// Extend the structure to the users a disjoint cohort appended to
    /// its graph: `aux` must be the graph it was built over (or last
    /// extended to), grown by [`UdaGraph::append`]. Returns `false`, and
    /// leaves the structure as it was, when a cohort user enters
    /// `aux.landmarks(n_landmarks)`; the caller must then drop it.
    ///
    /// Otherwise the extended structure equals [`Self::build`] over `aux`,
    /// field for field. No edge joins a cohort to the users before it, so
    /// their degrees, NCS vectors and closeness rows stay as they were, the
    /// landmarks stay theirs, and every cohort user is unreachable from
    /// every landmark: its closeness rows are all zero, as a fresh build
    /// leaves them. Its NCS vector and scalars are computed by the same
    /// code as in a build. A handle shared with a clone is copied first
    /// ([`Arc::make_mut`]), so the clone keeps the structure it had.
    ///
    /// # Panics
    /// Panics if `aux` has fewer users than the structure covers.
    #[must_use = "a refused structure no longer fits the graph and must be dropped"]
    pub fn extend(&mut self, aux: &UdaGraph) -> bool {
        assert!(aux.n_users() >= self.n_users(), "auxiliary graph shrank under its structure");
        if aux.landmarks(self.n_landmarks) != self.st.landmarks {
            return false;
        }
        let st = Arc::make_mut(&mut self.st);
        let zeros = vec![0.0; st.landmarks.len()];
        st.hops.resize(aux.n_users(), zeros.clone());
        st.whops.resize(aux.n_users(), zeros);
        st.push_users(aux);
        true
    }

    /// The `n_landmarks` this structure was built for.
    #[must_use]
    pub fn n_landmarks(&self) -> usize {
        self.n_landmarks
    }

    /// Number of auxiliary users this structure covers.
    fn n_users(&self) -> usize {
        self.st.scalars.len()
    }
}

/// Pairwise similarity engine between an anonymized and an auxiliary UDA
/// graph.
#[derive(Debug)]
pub struct SimilarityEngine<'a> {
    anon: &'a UdaGraph,
    aux: &'a UdaGraph,
    weights: SimilarityWeights,
    anon_st: Structure,
    aux_st: Arc<Structure>,
}

impl<'a> SimilarityEngine<'a> {
    /// Prepare the engine: select `n_landmarks` landmarks on each side and
    /// precompute NCS and landmark-closeness vectors, their norms, and
    /// every user's degree and weighted degree.
    #[must_use]
    pub fn new(
        anon: &'a UdaGraph,
        aux: &'a UdaGraph,
        weights: SimilarityWeights,
        n_landmarks: usize,
    ) -> Self {
        Self::with_aux_structure(anon, aux, weights, AuxStructure::build(aux, n_landmarks))
    }

    /// [`Self::new`] with the auxiliary side already prepared: only the
    /// anonymized side's structure is built, with the handle's
    /// `n_landmarks`. Scores are bit-identical to [`Self::new`] with that
    /// `n_landmarks`.
    ///
    /// # Panics
    /// Panics if `aux_st` was built over a graph with another user count
    /// than `aux` — a stale handle must not score silently.
    #[must_use]
    pub fn with_aux_structure(
        anon: &'a UdaGraph,
        aux: &'a UdaGraph,
        weights: SimilarityWeights,
        aux_st: AuxStructure,
    ) -> Self {
        assert_eq!(
            aux_st.n_users(),
            aux.n_users(),
            "auxiliary structure was built for another auxiliary graph"
        );
        let anon_st = Structure::new(anon, aux_st.n_landmarks);
        Self { anon, aux, weights, anon_st, aux_st: aux_st.st }
    }

    /// Degree similarity `s^d_uv ∈ [0, 3]`.
    #[must_use]
    pub fn degree_similarity(&self, u: usize, v: usize) -> f64 {
        let (a, b) = (&self.anon_st.scalars[u], &self.aux_st.scalars[v]);
        ratio(a.degree, b.degree)
            + ratio(a.wdegree, b.wdegree)
            + cosine(&self.anon_st.ncs[u], a.ncs_norm, &self.aux_st.ncs[v], b.ncs_norm)
    }

    /// Distance similarity `s^s_uv ∈ [0, 2]`.
    #[must_use]
    pub fn distance_similarity(&self, u: usize, v: usize) -> f64 {
        let (a, b) = (&self.anon_st.scalars[u], &self.aux_st.scalars[v]);
        cosine(&self.anon_st.hops[u], a.hops_norm, &self.aux_st.hops[v], b.hops_norm)
            + cosine(&self.anon_st.whops[u], a.whops_norm, &self.aux_st.whops[v], b.whops_norm)
    }

    /// Exact per-pair upper bound on the structural part `c1·s^d_uv +
    /// c2·s^s_uv` of [`Self::similarity`]: the degree ratios as computed
    /// there, with each cosine replaced by 1.0 when both of its vectors
    /// have a nonzero norm and by 0.0 otherwise, summed with the same
    /// association. A negative weight contributes 0.
    ///
    /// It bounds the rounded `f64` value, not just the real one: the
    /// ratios are the same operations on the same operands,
    /// [`padded_cosine`] is exactly 0.0 at a zero norm and at most 1.0
    /// otherwise, and `f64` addition and multiplication by a non-negative
    /// constant are monotone.
    #[inline]
    pub(crate) fn structural_ceiling(&self, u: usize, v: usize) -> f64 {
        let SimilarityWeights { c1, c2, .. } = self.weights;
        let (a, b) = (&self.anon_st.scalars[u], &self.aux_st.scalars[v]);
        let nz = |x: f64, y: f64| if x != 0.0 && y != 0.0 { 1.0 } else { 0.0 };
        let d =
            ratio(a.degree, b.degree) + ratio(a.wdegree, b.wdegree) + nz(a.ncs_norm, b.ncs_norm);
        let s = nz(a.hops_norm, b.hops_norm) + nz(a.whops_norm, b.whops_norm);
        let td = if c1 >= 0.0 { c1 * d } else { 0.0 };
        let ts = if c2 >= 0.0 { c2 * s } else { 0.0 };
        td + ts
    }

    /// Attribute similarity `s^a_uv ∈ [0, 2]`.
    #[must_use]
    pub fn attribute_similarity(&self, u: usize, v: usize) -> f64 {
        let a = &self.anon.attributes[u];
        let b = &self.aux.attributes[v];
        a.jaccard(b) + a.weighted_jaccard(b)
    }

    /// Combined structural similarity `s_uv`.
    #[must_use]
    pub fn similarity(&self, u: usize, v: usize) -> f64 {
        let SimilarityWeights { c1, c2, c3 } = self.weights;
        c1 * self.degree_similarity(u, v)
            + c2 * self.distance_similarity(u, v)
            + c3 * self.attribute_similarity(u, v)
    }

    /// Number of anonymized users.
    #[must_use]
    pub fn n_anon(&self) -> usize {
        self.anon.n_users()
    }

    /// Number of auxiliary users.
    #[must_use]
    pub fn n_aux(&self) -> usize {
        self.aux.n_users()
    }

    /// The similarity weights.
    #[must_use]
    pub fn weights(&self) -> SimilarityWeights {
        self.weights
    }

    /// The anonymized-side UDA graph.
    #[must_use]
    pub fn anon_uda(&self) -> &UdaGraph {
        self.anon
    }

    /// The auxiliary-side UDA graph.
    #[must_use]
    pub fn aux_uda(&self) -> &UdaGraph {
        self.aux
    }

    /// Build an [`crate::index::AttributeIndex`] over this engine's
    /// auxiliary side — the entry point of the sparse scoring path.
    #[must_use]
    pub fn attribute_index(&self) -> crate::index::AttributeIndex {
        crate::index::AttributeIndex::from_uda(self.aux)
    }

    /// Scores of anonymized user `u` against every *present* auxiliary
    /// user, as a `(aux_user, score)` stream. Absent auxiliary users (no
    /// posts) are skipped entirely; every yielded score is finite.
    ///
    /// This is the blockwise-scoring primitive: consumers that only need
    /// the best few candidates (bounded Top-K heaps, streaming engines)
    /// can drain it without ever materializing a dense row.
    pub fn scores_for(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        (0..self.aux.n_users())
            .filter(|&v| self.aux.post_counts[v] > 0)
            .map(move |v| (v, self.similarity(u, v)))
    }

    /// One dense row of [`Self::matrix`]: the `scores_for` stream of `u`
    /// materialized over the full auxiliary id space. The streaming API
    /// *skips* absent auxiliary users; a dense row has to put something in
    /// their slots, and that placeholder is `-inf` — an explicit mask every
    /// downstream consumer (`BoundedTopK::insert`, `ScoreBounds::observe`,
    /// `rank_of`, `matching_selection`) already treats as "absent". Kept
    /// private so skipping stays the one public absence contract.
    fn row(&self, u: usize) -> Vec<f64> {
        let mut row = vec![f64::NEG_INFINITY; self.aux.n_users()];
        for (v, s) in self.scores_for(u) {
            row[v] = s;
        }
        row
    }

    /// Full similarity matrix: `matrix[u][v]` for every anonymized `u` and
    /// auxiliary `v`, with `-inf` masking absent auxiliary users. Rows are
    /// computed on all available cores (scoped `std::thread`, no extra
    /// dependencies): the matrix is the attack's `O(n1·n2·nnz)` hot spot
    /// and survives as the *dense oracle* the sparse indexed path
    /// ([`crate::index::IndexedScorer`]) is differential-tested against.
    #[must_use]
    pub fn matrix(&self) -> Vec<Vec<f64>> {
        let n1 = self.anon.n_users();
        let n_threads = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(n1.max(1));
        if n_threads <= 1 || n1 < 64 {
            return (0..n1).map(|u| self.row(u)).collect();
        }
        let chunk = n1.div_ceil(n_threads);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|t| {
                    let start = t * chunk;
                    let end = ((t + 1) * chunk).min(n1);
                    scope.spawn(move || (start..end).map(|u| self.row(u)).collect::<Vec<_>>())
                })
                .collect();
            for h in handles {
                rows.extend(h.join().expect("similarity worker panicked"));
            }
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::{Forum, Post};

    fn uda(posts: Vec<Post>, n_users: usize, n_threads: usize) -> UdaGraph {
        UdaGraph::build(&Forum::from_posts(n_users, n_threads, posts))
    }

    fn p(author: usize, thread: usize, text: &str) -> Post {
        Post { author, thread, text: text.into() }
    }

    #[test]
    fn ratio_conventions() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(0.0, 5.0), 0.0);
        assert!((ratio(2.0, 4.0) - 0.5).abs() < 1e-12);
        assert!((ratio(4.0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn padded_cosine_handles_unequal_lengths() {
        assert!((padded_cosine(&[1.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(padded_cosine(&[], &[1.0]), 0.0);
        assert_eq!(padded_cosine(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn padded_cosine_never_exceeds_one() {
        // Near-parallel vectors whose quotient could round past 1.0: the
        // clamp keeps the pruning bound's `s^d ≤ 3` invariant exact.
        let a: Vec<f64> = (1..40).map(|i| 1.0 / f64::from(i)).collect();
        assert!(padded_cosine(&a, &a) <= 1.0);
        let b: Vec<f64> = a.iter().map(|x| x * 3.000000000000001).collect();
        assert!(padded_cosine(&a, &b) <= 1.0);
    }

    #[test]
    fn padded_cosine_edge_cases() {
        // Both empty.
        assert_eq!(padded_cosine(&[], &[]), 0.0);
        // Disjoint supports (dot = 0) with non-zero norms.
        assert_eq!(padded_cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        // Identical vectors.
        assert!((padded_cosine(&[0.3, 0.4], &[0.3, 0.4]) - 1.0).abs() < 1e-12);
        // Parallel vectors of different scale.
        assert!((padded_cosine(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_users_maximize_similarity() {
        // Same text, same thread structure on both sides.
        let anon = uda(
            vec![p(0, 0, "I realy hate this migrane pain!"), p(1, 0, "rest helps a lot")],
            2,
            1,
        );
        let aux = uda(
            vec![p(0, 0, "I realy hate this migrane pain!"), p(1, 0, "rest helps a lot")],
            2,
            1,
        );
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 2);
        // Self-similarity should beat cross-similarity.
        assert!(eng.similarity(0, 0) > eng.similarity(0, 1));
        assert!(eng.similarity(1, 1) > eng.similarity(1, 0));
        // Attribute similarity of identical users is the max (2.0).
        assert!((eng.attribute_similarity(0, 0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn matrix_masks_absent_aux_users() {
        let anon = uda(vec![p(0, 0, "hello there")], 1, 1);
        // Aux user 1 has no posts.
        let aux = uda(vec![p(0, 0, "hello there")], 2, 1);
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 1);
        let m = eng.matrix();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].len(), 2);
        assert!(m[0][1].is_infinite() && m[0][1] < 0.0);
        assert!(m[0][0].is_finite());
    }

    #[test]
    fn weights_scale_components() {
        let anon = uda(vec![p(0, 0, "the same text here"), p(1, 0, "other words")], 2, 1);
        let aux = uda(vec![p(0, 0, "the same text here"), p(1, 0, "other words")], 2, 1);
        let only_attr =
            SimilarityEngine::new(&anon, &aux, SimilarityWeights { c1: 0.0, c2: 0.0, c3: 1.0 }, 1);
        let s = only_attr.similarity(0, 0);
        assert!((s - only_attr.attribute_similarity(0, 0)).abs() < 1e-12);
    }

    #[test]
    fn parallel_matrix_matches_serial_rows() {
        // 80 users on each side to cross the parallel threshold.
        let mk = |salt: usize| -> UdaGraph {
            let posts = (0..80)
                .map(|u| {
                    p(
                        u,
                        u % 7,
                        if (u + salt).is_multiple_of(2) {
                            "short one."
                        } else {
                            "a much longer post with more words!"
                        },
                    )
                })
                .collect();
            uda(posts, 80, 7)
        };
        let anon = mk(0);
        let aux = mk(1);
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 5);
        let m = eng.matrix();
        for u in (0..80).step_by(17) {
            assert_eq!(m[u], eng.row(u), "row {u} differs");
        }
    }

    #[test]
    fn scores_for_matches_row_on_present_users() {
        let anon = uda(vec![p(0, 0, "hello there"), p(1, 0, "more text!")], 2, 1);
        // Aux user 1 has no posts.
        let aux = uda(vec![p(0, 0, "hello there"), p(2, 0, "other words")], 3, 1);
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 1);
        assert_eq!(eng.n_anon(), 2);
        assert_eq!(eng.n_aux(), 3);
        for u in 0..2 {
            let row = eng.row(u);
            let streamed: Vec<(usize, f64)> = eng.scores_for(u).collect();
            assert_eq!(streamed.iter().map(|&(v, _)| v).collect::<Vec<_>>(), vec![0, 2]);
            for (v, s) in streamed {
                assert_eq!(row[v].to_bits(), s.to_bits(), "u={u} v={v}");
            }
            assert!(row[1].is_infinite() && row[1] < 0.0);
        }
    }

    #[test]
    fn engine_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        // The sharded engine moves `&SimilarityEngine` across scoped
        // threads; regressing these bounds would break it.
        assert_sync_send::<SimilarityEngine<'_>>();
        assert_sync_send::<crate::refined::Side<'_>>();
    }

    #[test]
    fn structural_ceiling_bounds_the_structural_part() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Users 0..6 each post alone in a thread of their own: degree 0
        // and all-zero closeness vectors. The rest share four threads, so
        // both sides also hold many equal-degree pairs.
        let forum = |seed: u64| -> UdaGraph {
            let mut rng = StdRng::seed_from_u64(seed);
            let words = ["pain", "rest", "doctor", "migrane", "tired", "water!"];
            let mut posts = Vec::new();
            for u in 0..24 {
                for _ in 0..1 + rng.gen_range(0..3usize) {
                    let thread = if u < 6 { u } else { 6 + rng.gen_range(0..4usize) };
                    let text: Vec<&str> = (0..1 + rng.gen_range(0..5usize))
                        .map(|_| words[rng.gen_range(0..words.len())])
                        .collect();
                    posts.push(p(u, thread, &text.join(" ")));
                }
            }
            uda(posts, 24, 10)
        };
        let weights = [(0.05, 0.05, 0.9), (0.4, 0.4, 0.2), (-0.1, 0.3, 0.8), (0.0, 0.0, 1.0)];
        let (mut isolated_pairs, mut equal_degree_pairs) = (0, 0);
        for seed in 0..4 {
            let (anon, aux) = (forum(seed), forum(seed + 100));
            for &(c1, c2, c3) in &weights {
                let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights { c1, c2, c3 }, 3);
                for u in 0..24 {
                    for v in 0..24 {
                        let structural =
                            c1 * eng.degree_similarity(u, v) + c2 * eng.distance_similarity(u, v);
                        let ceiling = eng.structural_ceiling(u, v);
                        assert!(
                            ceiling >= structural,
                            "seed {seed}, weights ({c1}, {c2}, {c3}), pair ({u}, {v}): \
                             ceiling {ceiling} < structural part {structural}"
                        );
                        let (du, dv) = (anon.graph.degree(u), aux.graph.degree(v));
                        isolated_pairs += usize::from(du == 0 && dv == 0);
                        equal_degree_pairs += usize::from(du == dv && du > 0);
                    }
                }
            }
        }
        assert!(isolated_pairs > 0 && equal_degree_pairs > 0, "forums miss the edge cases");
    }

    #[test]
    fn shared_aux_structure_scores_like_a_fresh_one() {
        let anon = uda(vec![p(0, 0, "a b c !!!"), p(1, 0, "x y"), p(2, 1, "1 2 3 $$$")], 3, 2);
        let aux = uda(vec![p(0, 0, "x y z"), p(1, 0, "a b"), p(2, 1, "q r s")], 3, 2);
        let weights = SimilarityWeights::default();
        let shared = AuxStructure::build(&aux, 2);
        assert_eq!((shared.n_users(), shared.n_landmarks()), (3, 2));
        let fresh = SimilarityEngine::new(&anon, &aux, weights, 2);
        for _ in 0..2 {
            let cached = SimilarityEngine::with_aux_structure(&anon, &aux, weights, shared.clone());
            for u in 0..3 {
                for v in 0..3 {
                    assert_eq!(cached.similarity(u, v).to_bits(), fresh.similarity(u, v).to_bits());
                }
            }
        }
    }

    /// The structures agree field for field, every `f64` by its bits.
    fn assert_same_structure(got: &AuxStructure, want: &AuxStructure, what: &str) {
        let rows = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let scalars = |st: &Structure| -> Vec<[u64; 5]> {
            st.scalars
                .iter()
                .map(|s| {
                    [s.degree, s.wdegree, s.ncs_norm, s.hops_norm, s.whops_norm].map(f64::to_bits)
                })
                .collect()
        };
        let (g, w) = (&*got.st, &*want.st);
        assert_eq!(got.n_landmarks, want.n_landmarks, "{what}: n_landmarks");
        assert_eq!(g.landmarks, w.landmarks, "{what}: landmarks");
        assert_eq!(rows(&g.ncs), rows(&w.ncs), "{what}: NCS vectors");
        assert_eq!(rows(&g.hops), rows(&w.hops), "{what}: hop closeness");
        assert_eq!(rows(&g.whops), rows(&w.whops), "{what}: weighted closeness");
        assert_eq!(scalars(g), scalars(w), "{what}: scalars");
    }

    const WORDS: [&str; 6] = ["pain", "rest", "doctor", "migrane", "tired", "water!"];

    /// 22 users: users 0..12 share thread 0 (degree 11), so the five
    /// landmarks are users 0..5; users 12..20 post in pairs, user 20
    /// alone, and user 21 not at all.
    fn landmark_base() -> UdaGraph {
        let mut posts: Vec<Post> = (0..12).map(|u| p(u, 0, WORDS[u % 6])).collect();
        posts.extend((12..20).map(|u| p(u, 1 + (u - 12) / 2, WORDS[u % 6])));
        posts.push(p(20, 5, "alone here"));
        uda(posts, 22, 6)
    }

    /// A cohort of `n` users who all post in one thread (degree `n - 1`),
    /// with `absent` more declared users who never post.
    fn one_thread_cohort(n: usize, absent: usize) -> UdaGraph {
        uda((0..n).map(|u| p(u, 0, WORDS[(u + 3) % 6])).collect(), n + absent, 1)
    }

    #[test]
    fn extension_equals_a_fresh_build() {
        let mut grown = landmark_base();
        let mut st = AuxStructure::build(&grown, 5);
        assert_eq!(st.st.landmarks, [0, 1, 2, 3, 4]);
        let cohorts = [
            // Users 0 and 1 share two threads (a weight-2 edge); users 3
            // and 4 are declared but absent.
            uda(
                vec![
                    p(0, 0, "a b"),
                    p(1, 0, "c d!"),
                    p(0, 1, "again 42"),
                    p(1, 1, "more #"),
                    p(2, 2, "alone"),
                ],
                5,
                3,
            ),
            uda(Vec::new(), 0, 0),
            // Degree 11 ties the landmarks', and ties go to the smaller id.
            one_thread_cohort(12, 1),
            uda(Vec::new(), 3, 0),
        ];
        for (i, cohort) in cohorts.into_iter().enumerate() {
            grown.append(cohort);
            assert!(st.extend(&grown), "cohort {i} moved the landmarks");
            assert_same_structure(&st, &AuxStructure::build(&grown, 5), &format!("cohort {i}"));
        }
    }

    #[test]
    fn extension_refuses_a_cohort_that_moves_the_landmarks() {
        // A cohort user of degree 12 outranks the last landmark (degree
        // 11): the structure refuses the cohort and stays as it was.
        let base = landmark_base();
        let mut grown = base.clone();
        let mut st = AuxStructure::build(&grown, 5);
        grown.append(one_thread_cohort(13, 0));
        assert!(!st.extend(&grown));
        assert_same_structure(&st, &AuxStructure::build(&base, 5), "refused cohort");

        // With fewer present users than landmarks, every present cohort
        // user is a landmark, while absent ones never are.
        let small = uda(vec![p(0, 0, "a"), p(1, 0, "b"), p(2, 1, "c")], 4, 2);
        let mut grown = small.clone();
        let mut st = AuxStructure::build(&grown, 5);
        grown.append(uda(Vec::new(), 2, 0));
        assert!(st.extend(&grown));
        assert_same_structure(&st, &AuxStructure::build(&grown, 5), "absent-only cohort");
        grown.append(uda(vec![p(0, 0, "isolated")], 1, 1));
        assert!(!st.extend(&grown));
    }

    #[test]
    fn extension_grows_an_unshared_structure_in_place_and_copies_a_shared_one() {
        let base = landmark_base();
        let mut grown = base.clone();
        let mut st = AuxStructure::build(&grown, 5);
        let shared = st.clone();
        grown.append(one_thread_cohort(3, 1));
        assert!(st.extend(&grown));
        assert!(!Arc::ptr_eq(&st.st, &shared.st), "a shared structure is copied");
        assert_same_structure(&shared, &AuxStructure::build(&base, 5), "the other handle");
        drop(shared);
        let at = Arc::as_ptr(&st.st);
        grown.append(one_thread_cohort(4, 0));
        assert!(st.extend(&grown));
        assert_eq!(Arc::as_ptr(&st.st), at, "an unshared structure grows in place");
        assert_same_structure(&st, &AuxStructure::build(&grown, 5), "in place");
    }

    #[test]
    #[should_panic(expected = "another auxiliary graph")]
    fn stale_aux_structure_is_rejected() {
        let anon = uda(vec![p(0, 0, "hello there")], 1, 1);
        let aux = uda(vec![p(0, 0, "hello there")], 2, 1);
        let stale = AuxStructure::build(&uda(vec![p(0, 0, "hello there")], 1, 1), 1);
        let _ =
            SimilarityEngine::with_aux_structure(&anon, &aux, SimilarityWeights::default(), stale);
    }

    #[test]
    fn similarity_is_finite_and_bounded() {
        let anon = uda(vec![p(0, 0, "a b c !!!"), p(1, 1, "1 2 3 $$$")], 2, 2);
        let aux = uda(vec![p(0, 0, "x y z"), p(1, 1, "q r s")], 2, 2);
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 2);
        for u in 0..2 {
            for v in 0..2 {
                let s = eng.similarity(u, v);
                assert!(s.is_finite());
                // Max possible: 0.05*3 + 0.05*2 + 0.9*2 = 2.05.
                assert!((0.0..=2.05 + 1e-9).contains(&s));
            }
        }
    }
}
