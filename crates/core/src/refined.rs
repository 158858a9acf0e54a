//! Refined DA (Algorithm 1, lines 7-9): per-user classification inside the
//! Top-K candidate set, plus the open-world schemes of Section III-B
//! (false addition, mean-, distractorless- and sigma-verification).
//!
//! Two implementations produce bit-identical mappings:
//!
//! - [`refine_user`] — the per-user-from-scratch path: densify every
//!   auxiliary post of every candidate into a fresh [`Dataset`], clone it
//!   through the scaler, and train an owned classifier. Kept as the
//!   differential oracle (the same pattern as the engine's dense scoring
//!   mode).
//! - [`refine_user_shared`] — the fast path: every post's sample lives in
//!   a [`RefinedContext`] arena built **once per side**; per-user
//!   training assembles row-index lists into zero-copy
//!   [`DatasetView`]s, min-max scaling is fused into a single
//!   gather-scale pass over reusable [`RefinedScratch`] buffers, and KNN
//!   (the default classifier) runs a fully sparse kernel — stats,
//!   scaling, and cosine over nonzero entries only — without ever
//!   materializing a training set.
//!
//! The KNN kernel renumbers the features a user's training rows touch to
//! a dense local range, then classifies the user's anonymized posts
//! several at a time: it scatters up to `LANES` scaled queries into one
//! interleaved buffer and sweeps each training row once for all of them,
//! each post keeping its own accumulator in the row's feature order. Its
//! sparse context rows are built straight from each post's nonzero
//! features plus the structural features, never densified.
//!
//! Decoy sampling, majority-vote tie-breaking and the Section III-B
//! verification tests are shared helpers, so the two paths cannot drift
//! semantically; `tests/refined_parity.rs` pins the equivalence across
//! every classifier × verification combination.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dehealth_corpus::snapshot::{SectionReader, SectionWrite, SnapshotError};
use dehealth_corpus::Forum;
use dehealth_mapped::SharedBytes;
use dehealth_ml::{
    knn_vote_scored, Classifier, Dataset, DatasetView, Knn, KnnMetric, MinMaxScaler,
    NearestCentroid, Rlsc, SmoSvm, SvmParams,
};
use dehealth_stylometry::{FeatureVector, M};

use crate::arena::ArenaView;
use crate::index::take_view;
use crate::uda::UdaGraph;

/// Which benchmark classifier refined DA trains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClassifierKind {
    /// k-nearest neighbours on cosine closeness.
    Knn {
        /// Neighbourhood size.
        k: usize,
    },
    /// SMO-trained linear SVM (one-vs-rest).
    Smo,
    /// Regularized least-squares classification.
    Rlsc {
        /// Ridge parameter.
        lambda: f64,
    },
    /// Nearest-centroid.
    Centroid,
}

impl Default for ClassifierKind {
    fn default() -> Self {
        ClassifierKind::Knn { k: 3 }
    }
}

/// Open-world decision scheme applied after classification.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Verification {
    /// Closed-world: always accept the classifier's decision.
    #[default]
    None,
    /// Accept `u → v` only if `s_uv ≥ (1+r)·λ_u` where `λ_u` is the mean
    /// similarity between `u` and its *other* candidates (the paper's
    /// Section III-B scheme; excluding the winner keeps the test
    /// meaningful when the Top-K scores are tightly clustered).
    Mean {
        /// Margin parameter `r ≥ 0`.
        r: f64,
    },
    /// Add `n_false` random non-candidate users as decoy classes; reject
    /// if the classifier picks a decoy.
    FalseAddition {
        /// Number of decoy users.
        n_false: usize,
    },
    /// Distractorless verification (Noecker & Ryan, cited as \[45\]):
    /// accept `u → v` only if the cosine similarity of the users' mean
    /// stylometric profiles reaches `theta`, with no reference to the
    /// other candidates.
    Distractorless {
        /// Acceptance threshold on profile cosine, in `[0, 1]`.
        theta: f64,
    },
    /// Sigma verification (Stolerman et al., cited as \[32\]): accept
    /// `u → v` only if `u`'s profile is no farther from `v`'s centroid
    /// than `factor` standard deviations of `v`'s own per-post distances
    /// to that centroid — i.e. `u` must look like a typical post of `v`.
    Sigma {
        /// Allowed deviation in units of `v`'s per-post σ.
        factor: f64,
    },
}

/// Number of structural features appended to each stylometric post vector.
pub const N_STRUCT: usize = 4;

/// Refined-DA parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RefinedConfig {
    /// Classifier choice.
    pub classifier: ClassifierKind,
    /// Open-world verification scheme.
    pub verification: Verification,
    /// RNG seed (decoy sampling, SMO pair selection).
    pub seed: u64,
}

fn make_classifier(kind: ClassifierKind, seed: u64) -> Box<dyn Classifier> {
    match kind {
        ClassifierKind::Knn { k } => Box::new(Knn::new(k, KnnMetric::Cosine)),
        ClassifierKind::Smo => Box::new(SmoSvm::new(SvmParams { seed, ..SvmParams::default() })),
        ClassifierKind::Rlsc { lambda } => Box::new(Rlsc::new(lambda)),
        ClassifierKind::Centroid => Box::new(NearestCentroid::new()),
    }
}

/// The author's structural features from its UDA graph (degree, weighted
/// degree, attribute count, post count — log-scaled to tame magnitudes):
/// the last [`N_STRUCT`] entries of every sample.
fn structural(uda: &UdaGraph, user: usize) -> [f64; N_STRUCT] {
    [
        (uda.graph.degree(user) as f64).ln_1p(),
        uda.graph.weighted_degree(user).ln_1p(),
        (uda.attributes[user].len() as f64).ln_1p(),
        (uda.post_counts[user] as f64).ln_1p(),
    ]
}

/// Dense sample: the post's stylometric vector followed by its author's
/// [`structural`] features.
fn sample(post_features: &FeatureVector, uda: &UdaGraph, user: usize) -> Vec<f64> {
    let mut x = post_features.to_dense();
    x.reserve_exact(N_STRUCT);
    x.extend_from_slice(&structural(uda, user));
    x
}

/// All inputs refined DA needs about one side of the attack.
pub struct Side<'a> {
    /// The forum (for post texts / indices).
    pub forum: &'a Forum,
    /// Its UDA graph.
    pub uda: &'a UdaGraph,
    /// Per-post stylometric vectors, parallel to `forum.posts`.
    pub post_features: &'a [FeatureVector],
}

/// Materialized-once feature state of one side: every post's sample
/// (stylometric block + [`N_STRUCT`] structural features of its author),
/// row `pi` ↔ `forum.posts[pi]` — as sparse `(index, value)` entry lists
/// for the KNN hot loop, or as a contiguous dense arena for the other
/// classifiers (only the representation the configured classifier reads
/// is materialized).
///
/// Built once per attack (per side) and shared read-only across refined-DA
/// workers; [`refine_user_shared`] assembles per-user training sets as row
/// indices into it instead of re-densifying overlapping candidates' posts
/// for every anonymized user.
///
/// Storage-generic ([`ArenaView`]): a freshly built context owns its
/// arenas, a context decoded from a snapshot ([`Self::decode`])
/// borrows them straight out of the (typically memory-mapped) file, and
/// [`Self::append_rows`] promotes borrowed arenas to owned copy-on-write.
#[derive(Debug, Clone)]
pub struct RefinedContext {
    dim: usize,
    /// `true` when the sparse mirror is materialized (KNN), `false` when
    /// the dense arena is (all other classifiers).
    sparse: bool,
    data: ArenaView<f64>,
    /// Sparse rows: concatenated `(index, value)` entry lists (ascending
    /// index per row), row `pi` at `sp_start[pi]..sp_start[pi + 1]`. All
    /// values are non-negative (asserted at build) — the invariant that
    /// makes min-max scaling map a raw zero to exactly `0.0` and keeps
    /// the sparse cosine kernel bit-identical to the dense one.
    sp_idx: ArenaView<u32>,
    sp_val: ArenaView<f64>,
    sp_start: ArenaView<u64>,
}

/// The resolved sparse arenas of one [`RefinedContext`] — hoisted out of
/// the KNN hot loop so per-row access is plain slice indexing regardless
/// of the backing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SparseSlices<'a> {
    pub(crate) idx: &'a [u32],
    pub(crate) val: &'a [f64],
    pub(crate) start: &'a [u64],
}

impl<'a> SparseSlices<'a> {
    /// The sparse entries of post `pi`: `(indices, values)`, ascending.
    pub(crate) fn post(&self, pi: usize) -> (&'a [u32], &'a [f64]) {
        let range = self.start[pi] as usize..self.start[pi + 1] as usize;
        (&self.idx[range.clone()], &self.val[range])
    }
}

impl RefinedContext {
    /// Materialize every post of `side`, each exactly once. Only the
    /// representation `classifier` reads is built: the sparse entry lists
    /// for [`ClassifierKind::Knn`], the dense arena otherwise. Dense rows
    /// come from the same `sample` helper the per-user oracle calls per
    /// (user, candidate, post); sparse rows come straight from the post's
    /// nonzero features and the same structural-feature expressions, so
    /// either way row values are bit-identical to the oracle's by
    /// construction.
    ///
    /// # Panics
    /// Panics (on the sparse build) if any feature value is negative: the
    /// Table-I extractor emits frequencies/counts and the structural
    /// features are `ln(1+·)` of counts, all `≥ 0`, and the sparse
    /// scaling fast path relies on that (`min-max(0) = 0` exactly).
    #[must_use]
    pub fn build(side: &Side<'_>, classifier: ClassifierKind) -> Self {
        let sparse = matches!(classifier, ClassifierKind::Knn { .. });
        let mut ctx = Self {
            dim: M + N_STRUCT,
            sparse,
            data: ArenaView::default(),
            sp_idx: ArenaView::default(),
            sp_val: ArenaView::default(),
            sp_start: ArenaView::default(),
        };
        if sparse {
            ctx.sp_start.to_mut().push(0);
        }
        ctx.append_rows(side, 0);
        ctx
    }

    /// Materialize the rows of `side.forum.posts[from_post..]`, appending
    /// them to this context — the incremental-ingest path of a corpus
    /// that already holds rows for the first `from_post` posts of the
    /// same (merged) side. Snapshot-borrowed arenas are promoted to owned
    /// first (copy-on-write). Under the disjoint-cohort ingest convention
    /// the earlier rows' inputs are unchanged, so appending is
    /// bit-identical to rebuilding from scratch.
    ///
    /// # Panics
    /// Panics when `from_post` does not equal [`Self::n_posts`], and (on
    /// the sparse build) if any feature value is negative — see
    /// [`Self::build`].
    pub fn append_rows(&mut self, side: &Side<'_>, from_post: usize) {
        assert_eq!(from_post, self.n_posts(), "row append must start at the materialized count");
        let dim = self.dim;
        if self.sparse {
            // Promote once (no-ops on owned storage), then push plainly.
            let sp_idx = self.sp_idx.to_mut();
            let sp_val = self.sp_val.to_mut();
            let sp_start = self.sp_start.to_mut();
            // Straight from the sparse features, without densifying: a
            // `FeatureVector` holds exactly the nonzero stylometric entries
            // of `sample`'s row, ascending. Structural features are kept
            // explicitly even when zero: they are dense in practice, and
            // explicit zeros fold into the per-feature min/max exactly like
            // the dense scan.
            for (post, features) in side.forum.posts.iter().zip(side.post_features).skip(from_post)
            {
                let stylometric = features.iter_nonzero();
                let structural = structural(side.uda, post.author).into_iter();
                for (j, v) in stylometric.chain(structural.enumerate().map(|(s, v)| (M + s, v))) {
                    assert!(v >= 0.0, "negative feature value {v} at index {j}");
                    sp_idx.push(j as u32);
                    sp_val.push(v);
                }
                sp_start.push(sp_idx.len() as u64);
            }
        } else {
            let data = self.data.to_mut();
            // Amortized growth: a corpus that grows in place must not copy
            // its whole arena on every ingest.
            data.reserve((side.forum.posts.len() - from_post) * dim);
            for (post, features) in side.forum.posts.iter().zip(side.post_features).skip(from_post)
            {
                data.extend_from_slice(&sample(features, side.uda, post.author));
            }
        }
    }

    /// Sample dimension (`M + N_STRUCT`).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The dense sample of post `pi`.
    #[must_use]
    pub fn row(&self, pi: usize) -> &[f64] {
        &self.data.as_slice()[pi * self.dim..(pi + 1) * self.dim]
    }

    /// The whole arena (for [`DatasetView::gathered`]).
    #[must_use]
    pub fn arena(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// The resolved sparse arenas, hoisted once per kernel invocation.
    pub(crate) fn sparse_slices(&self) -> SparseSlices<'_> {
        SparseSlices {
            idx: self.sp_idx.as_slice(),
            val: self.sp_val.as_slice(),
            start: self.sp_start.as_slice(),
        }
    }

    /// `true` when any arena of this context borrows a loaded snapshot's
    /// bytes instead of owning them.
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        self.data.is_borrowed()
            || self.sp_idx.is_borrowed()
            || self.sp_val.is_borrowed()
            || self.sp_start.is_borrowed()
    }

    /// `(resident, borrowed)` arena bytes: heap bytes this context keeps
    /// resident vs. bytes it reads straight out of a loaded snapshot.
    #[must_use]
    pub fn arena_bytes(&self) -> (usize, usize) {
        let mut resident = 0;
        let mut total = 0;
        for (r, t) in [
            (self.data.resident_bytes(), self.data.byte_len()),
            (self.sp_idx.resident_bytes(), self.sp_idx.byte_len()),
            (self.sp_val.resident_bytes(), self.sp_val.byte_len()),
            (self.sp_start.resident_bytes(), self.sp_start.byte_len()),
        ] {
            resident += r;
            total += t;
        }
        (resident, total - resident)
    }

    /// `true` when the sparse entry lists are materialized (the KNN
    /// representation), `false` when the dense arena is.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    /// `true` if this context holds the representation `classifier`
    /// reads — the precondition of [`refine_user_shared`].
    #[must_use]
    pub fn matches_classifier(&self, classifier: ClassifierKind) -> bool {
        self.sparse == matches!(classifier, ClassifierKind::Knn { .. })
    }

    /// Number of materialized post rows.
    #[must_use]
    pub fn n_posts(&self) -> usize {
        if self.sparse {
            self.sp_start.len().saturating_sub(1)
        } else {
            self.data.len().checked_div(self.dim).unwrap_or(0)
        }
    }

    /// Serialize into a snapshot section: four `u64` header words,
    /// then the arenas the representation flag selects, each padded to an
    /// 8-byte payload offset (see ARCHITECTURE.md). The sparse mirror is
    /// stored struct-of-arrays (indices, values, row starts), which is
    /// what lets a zero-copy load cast the `f64` and `u64` arenas in
    /// place. Floats are stored as raw IEEE-754 bits, so a reloaded
    /// context is bit-identical to the one built from scratch.
    pub fn encode<W: SectionWrite>(&self, buf: &mut W) {
        buf.put_u64(self.dim as u64);
        buf.put_u64(u64::from(self.sparse));
        buf.put_u64(self.n_posts() as u64);
        if self.sparse {
            buf.put_u64(self.sp_idx.len() as u64);
            buf.put_u32_arena(self.sp_idx.as_slice());
            buf.put_f64_arena(self.sp_val.as_slice());
            buf.put_u64_arena(self.sp_start.as_slice());
        } else {
            buf.put_u64(self.data.len() as u64);
            buf.put_f64_arena(self.data.as_slice());
        }
    }

    /// Deserialize a context written by [`Self::encode`]. With a
    /// `backing`, the arenas become zero-copy [`ArenaView`]s borrowing
    /// the snapshot's bytes; without one — or on targets that cannot
    /// cast little-endian bytes in place — they are copied out instead.
    /// Either way the arena invariants are re-validated (ascending
    /// in-range indices per row, a monotone row offset table, finite
    /// non-negative values).
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Malformed`] on
    /// malformed payloads, [`SnapshotError::Misaligned`] when an arena
    /// that the format guarantees aligned is not; never panics.
    pub fn decode(
        r: &mut SectionReader<'_>,
        backing: Option<&SharedBytes>,
    ) -> Result<Self, SnapshotError> {
        let limit = r.remaining();
        let dim = r.take_len(limit)?;
        if dim == 0 {
            return Err(SnapshotError::Malformed { context: "zero context dimension" });
        }
        let sparse = match r.take_u64()? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::Malformed { context: "invalid representation flag" }),
        };
        let n_posts = r.take_len(limit)?;
        if sparse {
            let n_entries = r.take_len(limit)?;
            let sp_idx = take_view::<u32>(r, backing, n_entries, "context entry index arena")?;
            let sp_val = take_view::<f64>(r, backing, n_entries, "context entry value arena")?;
            let sp_start = take_view::<u64>(
                r,
                backing,
                n_posts
                    .checked_add(1)
                    .ok_or(SnapshotError::Malformed { context: "implausible post count" })?,
                "context row starts arena",
            )?;
            let ctx = Self { dim, sparse, data: ArenaView::default(), sp_idx, sp_val, sp_start };
            ctx.validate_sparse()?;
            Ok(ctx)
        } else {
            let n_values = r.take_len(limit)?;
            if n_values != n_posts.saturating_mul(dim) {
                return Err(SnapshotError::Malformed { context: "implausible post count" });
            }
            let data = take_view::<f64>(r, backing, n_values, "context dense arena")?;
            Ok(Self {
                dim,
                sparse,
                data,
                sp_idx: ArenaView::default(),
                sp_val: ArenaView::default(),
                sp_start: ArenaView::default(),
            })
        }
    }

    /// The sparse-arena invariants the decoder re-validates: a monotone
    /// row offset table covering the arenas, strictly ascending in-range
    /// indices per row, and finite non-negative values (the precondition
    /// of the sparse scaling fast path).
    fn validate_sparse(&self) -> Result<(), SnapshotError> {
        let s = self.sparse_slices();
        let n_entries = s.idx.len();
        if s.val.len() != n_entries {
            return Err(SnapshotError::Malformed { context: "sparse arenas disagree" });
        }
        if s.start.first() != Some(&0) || s.start.last() != Some(&(n_entries as u64)) {
            return Err(SnapshotError::Malformed { context: "row offsets do not cover arena" });
        }
        if s.start.windows(2).any(|w| w[0] > w[1]) {
            return Err(SnapshotError::Malformed { context: "row offsets not monotone" });
        }
        if s.idx.iter().any(|&i| i as usize >= self.dim) {
            return Err(SnapshotError::Malformed { context: "entry index out of range" });
        }
        if s.val.iter().any(|&v| !v.is_finite() || v < 0.0) {
            return Err(SnapshotError::Malformed { context: "negative feature value" });
        }
        // Per-row indices must be strictly ascending (the kernels merge
        // rows positionally).
        for w in s.start.windows(2) {
            let row = &s.idx[w[0] as usize..w[1] as usize];
            if row.windows(2).any(|p| p[0] >= p[1]) {
                return Err(SnapshotError::Malformed { context: "row indices not ascending" });
            }
        }
        Ok(())
    }
}

/// Anonymized posts classified per sweep of the training rows in
/// [`sparse_knn_votes`]: each training entry is loaded once and feeds this
/// many independent dot products, so the kernel is no longer bound by the
/// latency of one serial chain of adds. On baseline x86-64 eight lanes are
/// four 2-wide multiplies and adds per entry; in a one-thread probe on the
/// open-hb-2k split (2-vCPU x86-64 VM), 8 and 16 lanes classified alike
/// and 4 lanes slower.
const LANES: usize = 8;

/// Reusable per-worker buffers for [`refine_user_shared`]: training-set
/// row indices and labels, the scaled training matrix (dense classifiers)
/// or the sparse KNN kernel's state — a dense local id per feature the
/// user's training rows touch, per-feature min-max stats over those local
/// ids, the scaled training rows in local ids, and the interleaved lane
/// buffer of the anonymized posts one sweep classifies. Amortizes every
/// per-user allocation of the hot loop.
#[derive(Debug, Clone, Default)]
pub struct RefinedScratch {
    class_users: Vec<usize>,
    rows: Vec<u32>,
    labels: Vec<usize>,
    scaled: Vec<f64>,
    x: Vec<f64>,
    votes: Vec<usize>,
    /// Epoch tag per global feature: its `feat_local` id is valid only
    /// when its tag equals `epoch`, so per-user resets cost nothing
    /// instead of O(dim).
    epoch: u32,
    feat_epoch: Vec<u32>,
    feat_local: Vec<u32>,
    /// Per-local-feature count, min, max and range over the training rows
    /// (local ids are dense: `0..loc_count.len()`).
    loc_count: Vec<u32>,
    loc_min: Vec<f64>,
    loc_max: Vec<f64>,
    loc_range: Vec<f64>,
    /// Scaled sparse training rows in local ids (concatenated; `s_start`
    /// bounds) and their Euclidean norms.
    s_idx: Vec<u32>,
    s_val: Vec<f64>,
    s_start: Vec<usize>,
    s_norm: Vec<f64>,
    /// The lane buffer: `q[t][l]` is lane `l`'s scaled query value of
    /// local feature `t` (invariant: all zeros outside
    /// [`sparse_knn_votes`]'s per-sweep scatter/unscatter, for any length
    /// an earlier user grew it to).
    q: Vec<[f64; LANES]>,
    /// Closeness of every training row to each lane's query.
    lane_scores: Vec<[f64; LANES]>,
}

impl RefinedScratch {
    /// Empty scratch; buffers grow to steady-state on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Min-max-scale one sparse value against finalized stats — the same
/// expression as `MinMaxScaler::scale_value`, so scaled values are
/// bit-identical to the dense path's.
fn scale_sparse(min: f64, range: f64, v: f64) -> f64 {
    if range == 0.0 {
        0.0
    } else {
        ((v - min) / range).clamp(0.0, 1.0)
    }
}

/// The sparse KNN hot loop: per-feature min-max stats, scaled training
/// rows, and cosine closeness all computed over nonzero entries only —
/// `O(nnz)` per post instead of `O(M)`. Bit-identical to the dense oracle
/// because features are non-negative (asserted at context build): a raw
/// zero min-max-scales to exactly `0.0`, `f64::min`/`max` folds are
/// order-independent without NaNs, and every dense-sum term the sparse
/// kernels skip is an exact `+ 0.0`.
///
/// - Pass 1 gives each feature the training rows touch a dense local id
///   (first-touch order) and folds its min-max stats.
/// - Pass 2 stores the scaled training rows in local ids, with their norms.
/// - Pass 3 scatters up to [`LANES`] anonymized posts into the interleaved
///   lane buffer and sweeps each training row once for all of them. Each
///   lane keeps its own accumulator and adds `q·v` over the row's entries
///   in ascending feature order with a plain multiply and add — the same
///   terms in the same order as the dense `Σ_j a_j·b_j` minus its exact
///   `+ 0.0`s — so every closeness keeps its bits.
///
/// Fills `scratch.votes` (sized to the class count) with the per-post
/// majority votes. Expects `scratch.rows`/`labels` to hold the gathered
/// training set.
fn sparse_knn_votes(
    k: usize,
    anon_posts: &[usize],
    anon_ctx: &RefinedContext,
    aux_ctx: &RefinedContext,
    scratch: &mut RefinedScratch,
) {
    let dim = aux_ctx.dim();
    let n_train = scratch.rows.len();
    let scratch = &mut *scratch;
    // Resolve the (possibly snapshot-borrowed) arenas once; per-row access
    // below is plain slice indexing.
    let aux_rows = aux_ctx.sparse_slices();
    let anon_rows = anon_ctx.sparse_slices();
    if scratch.feat_epoch.len() < dim {
        scratch.feat_epoch.resize(dim, 0);
        scratch.feat_local.resize(dim, 0);
    }
    if scratch.epoch == u32::MAX {
        scratch.feat_epoch.fill(0);
        scratch.epoch = 0;
    }
    scratch.epoch += 1;
    let epoch = scratch.epoch;

    // Pass 1: a local id and count/min/max per feature the training rows
    // touch.
    scratch.loc_count.clear();
    scratch.loc_min.clear();
    scratch.loc_max.clear();
    for &pi in &scratch.rows {
        let (idx, val) = aux_rows.post(pi as usize);
        for (&j, &v) in idx.iter().zip(val) {
            let j = j as usize;
            if scratch.feat_epoch[j] != epoch {
                scratch.feat_epoch[j] = epoch;
                scratch.feat_local[j] = scratch.loc_count.len() as u32;
                scratch.loc_count.push(1);
                scratch.loc_min.push(v);
                scratch.loc_max.push(v);
            } else {
                let t = scratch.feat_local[j] as usize;
                scratch.loc_count[t] += 1;
                scratch.loc_min[t] = scratch.loc_min[t].min(v);
                scratch.loc_max[t] = scratch.loc_max[t].max(v);
            }
        }
    }
    // A feature absent from some training row folds an implicit 0.0 into
    // its bounds, exactly like the dense min/max scan over full rows.
    let n_local = scratch.loc_count.len();
    scratch.loc_range.clear();
    for t in 0..n_local {
        let (lo, hi) = if (scratch.loc_count[t] as usize) < n_train {
            (scratch.loc_min[t].min(0.0), scratch.loc_max[t].max(0.0))
        } else {
            (scratch.loc_min[t], scratch.loc_max[t])
        };
        scratch.loc_min[t] = lo;
        scratch.loc_range.push(if hi > lo { hi - lo } else { 0.0 });
    }

    // Pass 2: scaled sparse training rows (local ids) and their norms.
    scratch.s_idx.clear();
    scratch.s_val.clear();
    scratch.s_start.clear();
    scratch.s_norm.clear();
    scratch.s_start.push(0);
    for &pi in &scratch.rows {
        let (idx, val) = aux_rows.post(pi as usize);
        let mut norm2 = 0.0;
        for (&j, &v) in idx.iter().zip(val) {
            let t = scratch.feat_local[j as usize];
            let s = scale_sparse(scratch.loc_min[t as usize], scratch.loc_range[t as usize], v);
            scratch.s_idx.push(t);
            scratch.s_val.push(s);
            norm2 += s * s;
        }
        scratch.s_start.push(scratch.s_idx.len());
        scratch.s_norm.push(norm2.sqrt());
    }

    // Pass 3: classify the anonymized posts `LANES` at a time, sweeping
    // every training row once per group, and vote.
    if scratch.q.len() < n_local {
        scratch.q.resize(n_local, [0.0; LANES]);
    }
    scratch.lane_scores.resize(n_train, [0.0; LANES]);
    for group in anon_posts.chunks(LANES) {
        // Scatter each lane's scaled query. A feature no training row has
        // is constant 0 there (range 0, scaled 0, as in the dense scaler's
        // untouched column): it stays out of the buffer, and its `0.0`
        // term of the norm is an exact no-op.
        let mut na = [0.0; LANES];
        for (l, &pi) in group.iter().enumerate() {
            let (idx, val) = anon_rows.post(pi);
            let mut norm2 = 0.0;
            for (&j, &v) in idx.iter().zip(val) {
                if scratch.feat_epoch[j as usize] == epoch {
                    let t = scratch.feat_local[j as usize] as usize;
                    let s = scale_sparse(scratch.loc_min[t], scratch.loc_range[t], v);
                    scratch.q[t][l] = s;
                    norm2 += s * s;
                }
            }
            na[l] = norm2.sqrt();
        }

        let q = &scratch.q;
        let (s_idx, s_val) = (&scratch.s_idx, &scratch.s_val);
        let (s_start, s_norm) = (&scratch.s_start, &scratch.s_norm);
        for (i, scores) in scratch.lane_scores.iter_mut().enumerate() {
            let row = s_start[i]..s_start[i + 1];
            let mut dot = [0.0; LANES];
            for (&t, &v) in s_idx[row.clone()].iter().zip(&s_val[row]) {
                for (d, &x) in dot.iter_mut().zip(&q[t as usize]) {
                    *d += x * v;
                }
            }
            let nb = s_norm[i];
            for ((score, &d), &na) in scores.iter_mut().zip(&dot).zip(&na) {
                *score = if na == 0.0 || nb == 0.0 { 0.0 } else { d / (na * nb) };
            }
        }

        let labels = &scratch.labels;
        for l in 0..group.len() {
            let scores = scratch.lane_scores.iter().map(|s| s[l]);
            let p = knn_vote_scored(scores, |i| labels[i], k);
            scratch.votes[p.label] += 1;
        }
        // Unscatter, restoring the all-zeros invariant.
        for &pi in group {
            for &j in anon_rows.post(pi).0 {
                if scratch.feat_epoch[j as usize] == epoch {
                    scratch.q[scratch.feat_local[j as usize] as usize] = [0.0; LANES];
                }
            }
        }
    }
}

/// Draw the false-addition decoys for anonymized user `u`: a uniform
/// sample **without replacement** of `min(n_false, pool)` distinct
/// non-candidate auxiliary users (partial Fisher–Yates over the present
/// non-candidates), returned sorted by id. Both refined paths draw through
/// this helper, so their RNG streams agree.
fn false_addition_decoys(
    u: usize,
    candidates: &[usize],
    aux: &Side<'_>,
    n_false: usize,
    seed: u64,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ (u as u64).wrapping_mul(0x9e3779b9));
    let mut pool: Vec<usize> =
        aux.uda.present_users().into_iter().filter(|v| !candidates.contains(v)).collect();
    let n = n_false.min(pool.len());
    for i in 0..n {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool.sort_unstable();
    pool
}

/// Majority-vote winner: the class with the most votes, ties broken toward
/// the *lowest* class index. Class order is candidate order, and callers
/// pass candidates sorted by decreasing structural similarity — so a tied
/// vote resolves toward the best-ranked candidate, not (as `max_by_key`'s
/// last-maximum would have it) the worst-ranked one.
fn vote_winner(votes: &[usize]) -> usize {
    let mut best = 0;
    for (i, &c) in votes.iter().enumerate() {
        if c > votes[best] {
            best = i;
        }
    }
    best
}

/// The Section III-B post-classification verification test for `u → v`.
fn verification_accepts(
    u: usize,
    v: usize,
    candidates: &[usize],
    anon: &Side<'_>,
    aux: &Side<'_>,
    similarity_row: &[f64],
    config: &RefinedConfig,
) -> bool {
    match config.verification {
        Verification::Mean { r } => {
            let others: Vec<f64> =
                candidates.iter().filter(|&&w| w != v).map(|&w| similarity_row[w]).collect();
            if !others.is_empty() {
                let lambda: f64 = others.iter().sum::<f64>() / others.len() as f64;
                if similarity_row[v] < (1.0 + r) * lambda {
                    return false;
                }
            }
            true
        }
        Verification::Distractorless { theta } => {
            anon.uda.profiles[u].cosine(&aux.uda.profiles[v]) >= theta
        }
        Verification::Sigma { factor } => sigma_accepts(u, v, anon, aux, factor),
        Verification::None | Verification::FalseAddition { .. } => true,
    }
}

/// De-anonymize one anonymized user within its candidate set — the
/// per-user-from-scratch differential oracle.
///
/// Returns `Some(aux_user)` or `None` (`u → ⊥`). `candidates` must be
/// sorted by decreasing structural similarity (tied majority votes resolve
/// toward the earliest entry); `similarity_row` is the full
/// structural-similarity row of `u` (used by mean-verification).
#[must_use]
pub fn refine_user(
    u: usize,
    candidates: &[usize],
    anon: &Side<'_>,
    aux: &Side<'_>,
    similarity_row: &[f64],
    config: &RefinedConfig,
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let anon_posts = anon.forum.user_posts(u);
    if anon_posts.is_empty() {
        return None;
    }
    // Decoys for the false-addition scheme.
    let mut class_users: Vec<usize> = candidates.to_vec();
    let n_real = class_users.len();
    if let Verification::FalseAddition { n_false } = config.verification {
        class_users.extend(false_addition_decoys(u, candidates, aux, n_false, config.seed));
    }

    // Training set: every auxiliary post of every class user.
    let mut train = Dataset::new(M + N_STRUCT);
    for (class, &v) in class_users.iter().enumerate() {
        for &pi in aux.forum.user_posts(v) {
            train.push(&sample(&aux.post_features[pi], aux.uda, v), class);
        }
    }
    if train.is_empty() {
        return None;
    }
    let scaler = MinMaxScaler::fit(&train);
    let mut scaled_train = train.clone();
    scaler.transform(&mut scaled_train);

    let mut clf = make_classifier(config.classifier, config.seed);
    clf.fit(&scaled_train);

    // Classify each anonymized post; majority vote across posts.
    let mut votes = vec![0usize; class_users.len()];
    for &pi in anon_posts {
        let mut x = sample(&anon.post_features[pi], anon.uda, u);
        for (j, v) in x.iter_mut().enumerate() {
            *v = scaler.scale_value(j, *v);
        }
        let p = clf.predict(&x);
        votes[p.label] += 1;
    }
    let winner = vote_winner(&votes);

    // False-addition rejection: decoy class won.
    if winner >= n_real {
        return None;
    }
    let v = class_users[winner];
    if !verification_accepts(u, v, candidates, anon, aux, similarity_row, config) {
        return None;
    }
    Some(v)
}

/// De-anonymize one anonymized user within its candidate set — the shared
/// fast path. Bit-identical to [`refine_user`] (pinned by
/// `tests/refined_parity.rs`), but reads every post sample from the
/// materialize-once [`RefinedContext`] arenas, assembles the per-user
/// training set as row indices, fuses min-max scaling into one
/// gather-scale pass over `scratch`, and lets KNN classify straight off
/// the borrowed view.
///
/// `anon_ctx` / `aux_ctx` must be built from the same sides passed here.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn refine_user_shared(
    u: usize,
    candidates: &[usize],
    anon: &Side<'_>,
    aux: &Side<'_>,
    anon_ctx: &RefinedContext,
    aux_ctx: &RefinedContext,
    similarity_row: &[f64],
    config: &RefinedConfig,
    scratch: &mut RefinedScratch,
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let anon_posts = anon.forum.user_posts(u);
    if anon_posts.is_empty() {
        return None;
    }
    let dim = aux_ctx.dim();
    debug_assert_eq!(dim, anon_ctx.dim(), "side contexts disagree on dimension");
    let need_sparse = matches!(config.classifier, ClassifierKind::Knn { .. });
    assert!(
        aux_ctx.sparse == need_sparse && anon_ctx.sparse == need_sparse,
        "RefinedContext built for a different classifier kind"
    );

    scratch.class_users.clear();
    scratch.class_users.extend_from_slice(candidates);
    let n_real = scratch.class_users.len();
    if let Verification::FalseAddition { n_false } = config.verification {
        let decoys = false_addition_decoys(u, candidates, aux, n_false, config.seed);
        scratch.class_users.extend(decoys);
    }

    // Training set: row indices into the arena, one label per row — no
    // feature floats move yet.
    scratch.rows.clear();
    scratch.labels.clear();
    for (class, &v) in scratch.class_users.iter().enumerate() {
        for &pi in aux.forum.user_posts(v) {
            scratch.rows.push(pi as u32);
            scratch.labels.push(class);
        }
    }
    if scratch.rows.is_empty() {
        return None;
    }

    scratch.votes.clear();
    scratch.votes.resize(scratch.class_users.len(), 0);
    if let ClassifierKind::Knn { k } = config.classifier {
        // KNN never materializes a training set at all: stats, scaling
        // and cosine run over the sparse arena entries.
        sparse_knn_votes(k, anon_posts, anon_ctx, aux_ctx, scratch);
    } else {
        // Dense classifiers: fit the scaler on the raw row view (same
        // visit order as the oracle's dataset build), gather+scale in one
        // fused pass, and train on the borrowed contiguous view.
        let raw = DatasetView::gathered(aux_ctx.arena(), dim, &scratch.rows, &scratch.labels);
        let scaler = MinMaxScaler::fit(&raw);
        scratch.scaled.resize(scratch.rows.len() * dim, 0.0);
        for (i, &pi) in scratch.rows.iter().enumerate() {
            scaler.scale_row_into(
                aux_ctx.row(pi as usize),
                &mut scratch.scaled[i * dim..(i + 1) * dim],
            );
        }
        let train = DatasetView::contiguous(&scratch.scaled, dim, &scratch.labels);
        let mut clf = make_classifier(config.classifier, config.seed);
        clf.fit(&train);

        scratch.x.resize(dim, 0.0);
        for &pi in anon_posts {
            scaler.scale_row_into(anon_ctx.row(pi), &mut scratch.x);
            let p = clf.predict(&scratch.x);
            scratch.votes[p.label] += 1;
        }
    }
    let winner = vote_winner(&scratch.votes);

    // False-addition rejection: decoy class won.
    if winner >= n_real {
        return None;
    }
    let v = scratch.class_users[winner];
    if !verification_accepts(u, v, candidates, anon, aux, similarity_row, config) {
        return None;
    }
    Some(v)
}

/// Sigma-verification test: is `u`'s mean profile within `factor` standard
/// deviations of `v`'s per-post distance distribution around `v`'s
/// centroid? Cosine distance (`1 − cos`) is used throughout. Only the
/// degenerate σ = 0 case (every post equidistant from the centroid, e.g. a
/// single-post user) falls back to a small 0.01 tolerance; users with a
/// real spread are tested against their true σ.
fn sigma_accepts(u: usize, v: usize, anon: &Side<'_>, aux: &Side<'_>, factor: f64) -> bool {
    let centroid = &aux.uda.profiles[v];
    let posts = aux.forum.user_posts(v);
    if posts.is_empty() {
        return false;
    }
    let dists: Vec<f64> =
        posts.iter().map(|&pi| 1.0 - aux.post_features[pi].cosine(centroid)).collect();
    let mean: f64 = dists.iter().sum::<f64>() / dists.len() as f64;
    let var: f64 = dists.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / dists.len() as f64;
    let sigma = var.sqrt();
    let sigma = if sigma == 0.0 { 0.01 } else { sigma };
    let d_u = 1.0 - anon.uda.profiles[u].cosine(centroid);
    d_u <= mean + factor * sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::Post;
    use dehealth_stylometry::extract;

    /// Two aux users with very different styles; anon user 0 writes like
    /// aux user 1.
    fn fixture() -> (Forum, Forum) {
        let aux_posts = vec![
            Post { author: 0, thread: 0, text: "I LOVE CAPS!!! SO MUCH PAIN!!! HELP!!!".into() },
            Post { author: 0, thread: 1, text: "AWFUL DAY!!! MY BACK HURTS!!!".into() },
            Post { author: 0, thread: 0, text: "WHY ME??? THE WORST!!!".into() },
            Post {
                author: 1,
                thread: 0,
                text: "the doctor said that i should rest because the pain improves with sleep."
                    .into(),
            },
            Post {
                author: 1,
                thread: 1,
                text: "i think that the medicine helps although the nausea remains.".into(),
            },
            Post {
                author: 1,
                thread: 1,
                text: "after the visit i noticed that the swelling improves slowly.".into(),
            },
        ];
        let anon_posts = vec![
            Post {
                author: 0,
                thread: 0,
                text: "i wonder whether the treatment helps because the ache improves after rest."
                    .into(),
            },
            Post {
                author: 0,
                thread: 1,
                text: "the nurse said that i should drink water although the fever remains.".into(),
            },
        ];
        (Forum::from_posts(2, 2, aux_posts), Forum::from_posts(1, 2, anon_posts))
    }

    fn sides(
        aux_forum: &Forum,
        anon_forum: &Forum,
    ) -> (UdaGraph, UdaGraph, Vec<FeatureVector>, Vec<FeatureVector>) {
        let aux_uda = UdaGraph::build(aux_forum);
        let anon_uda = UdaGraph::build(anon_forum);
        let aux_feats: Vec<FeatureVector> =
            aux_forum.posts.iter().map(|p| extract(&p.text)).collect();
        let anon_feats: Vec<FeatureVector> =
            anon_forum.posts.iter().map(|p| extract(&p.text)).collect();
        (aux_uda, anon_uda, aux_feats, anon_feats)
    }

    /// Run both the oracle and the shared fast path; assert they agree and
    /// return the mapping.
    fn run_both(
        kind: ClassifierKind,
        verification: Verification,
        sim_row: &[f64],
    ) -> Option<usize> {
        let (aux_forum, anon_forum) = fixture();
        let (aux_uda, anon_uda, aux_feats, anon_feats) = sides(&aux_forum, &anon_forum);
        let aux = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        let anon = Side { forum: &anon_forum, uda: &anon_uda, post_features: &anon_feats };
        let config = RefinedConfig { classifier: kind, verification, seed: 5 };
        let oracle = refine_user(0, &[0, 1], &anon, &aux, sim_row, &config);
        let aux_ctx = RefinedContext::build(&aux, kind);
        let anon_ctx = RefinedContext::build(&anon, kind);
        let mut scratch = RefinedScratch::new();
        let fast = refine_user_shared(
            0,
            &[0, 1],
            &anon,
            &aux,
            &anon_ctx,
            &aux_ctx,
            sim_row,
            &config,
            &mut scratch,
        );
        assert_eq!(oracle, fast, "oracle vs shared path diverged ({kind:?}, {verification:?})");
        oracle
    }

    #[test]
    fn knn_picks_stylistic_match() {
        assert_eq!(
            run_both(ClassifierKind::Knn { k: 3 }, Verification::None, &[0.1, 0.9]),
            Some(1)
        );
    }

    #[test]
    fn smo_picks_stylistic_match() {
        assert_eq!(run_both(ClassifierKind::Smo, Verification::None, &[0.1, 0.9]), Some(1));
    }

    #[test]
    fn rlsc_picks_stylistic_match() {
        assert_eq!(
            run_both(ClassifierKind::Rlsc { lambda: 1.0 }, Verification::None, &[0.1, 0.9]),
            Some(1)
        );
    }

    #[test]
    fn centroid_picks_stylistic_match() {
        assert_eq!(run_both(ClassifierKind::Centroid, Verification::None, &[0.1, 0.9]), Some(1));
    }

    #[test]
    fn mean_verification_rejects_flat_rows() {
        // Candidate similarities nearly equal: s_uv < (1+r)·mean.
        let got =
            run_both(ClassifierKind::Knn { k: 3 }, Verification::Mean { r: 0.25 }, &[0.5, 0.52]);
        assert_eq!(got, None);
    }

    #[test]
    fn mean_verification_accepts_clear_winner() {
        let got =
            run_both(ClassifierKind::Knn { k: 3 }, Verification::Mean { r: 0.25 }, &[0.1, 0.9]);
        assert_eq!(got, Some(1));
    }

    #[test]
    fn distractorless_thresholds_on_profile_cosine() {
        // theta = 0 accepts everything the classifier picks; theta = 1
        // rejects everything short of identical profiles.
        let lax = run_both(
            ClassifierKind::Knn { k: 3 },
            Verification::Distractorless { theta: 0.0 },
            &[0.1, 0.9],
        );
        assert_eq!(lax, Some(1));
        let strict = run_both(
            ClassifierKind::Knn { k: 3 },
            Verification::Distractorless { theta: 0.9999 },
            &[0.1, 0.9],
        );
        assert_eq!(strict, None);
    }

    #[test]
    fn sigma_verification_accepts_typical_and_rejects_atypical() {
        // A generous factor accepts the stylistic match...
        let lax = run_both(
            ClassifierKind::Knn { k: 3 },
            Verification::Sigma { factor: 50.0 },
            &[0.1, 0.9],
        );
        assert_eq!(lax, Some(1));
        // ...an impossible factor rejects everything.
        let strict = run_both(
            ClassifierKind::Knn { k: 3 },
            Verification::Sigma { factor: -100.0 },
            &[0.1, 0.9],
        );
        assert_eq!(strict, None);
    }

    #[test]
    fn sigma_uses_true_spread_when_nonzero() {
        // Aux user 1 has three distinct posts, so its per-post distance
        // spread σ is non-zero; the acceptance boundary must be exactly
        // `mean + factor·σ` with the *true* σ — no 0.01 floor inflating
        // the tolerance of every user (the pre-fix behavior).
        let (aux_forum, anon_forum) = fixture();
        let (aux_uda, anon_uda, aux_feats, anon_feats) = sides(&aux_forum, &anon_forum);
        let aux = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        let anon = Side { forum: &anon_forum, uda: &anon_uda, post_features: &anon_feats };

        let centroid = &aux_uda.profiles[1];
        let dists: Vec<f64> = aux_forum
            .user_posts(1)
            .iter()
            .map(|&pi| 1.0 - aux_feats[pi].cosine(centroid))
            .collect();
        let mean = dists.iter().sum::<f64>() / dists.len() as f64;
        let var = dists.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / dists.len() as f64;
        let sigma = var.sqrt();
        assert!(sigma > 0.0, "fixture must exercise the non-degenerate branch");
        let d_u = 1.0 - anon_uda.profiles[0].cosine(centroid);

        // A factor placing the boundary just past d_u accepts; just short
        // of it rejects — with the true σ, not max(σ, 0.01).
        let boundary = (d_u - mean) / sigma;
        assert!(sigma_accepts(0, 1, &anon, &aux, boundary + 1e-6));
        assert!(!sigma_accepts(0, 1, &anon, &aux, boundary - 1e-6));
    }

    #[test]
    fn sigma_degenerate_single_post_gets_tolerance() {
        // A single-post aux user has σ = 0: the documented degenerate case
        // falls back to a 0.01 tolerance instead of an unpassable strict
        // mean test.
        let aux_posts = vec![Post {
            author: 0,
            thread: 0,
            text: "the doctor said that i should rest because the pain improves.".into(),
        }];
        let anon_posts = vec![Post {
            author: 0,
            thread: 0,
            text: "the doctor said that i should rest because the pain improves!".into(),
        }];
        let aux_forum = Forum::from_posts(1, 1, aux_posts);
        let anon_forum = Forum::from_posts(1, 1, anon_posts);
        let (aux_uda, anon_uda, aux_feats, anon_feats) = sides(&aux_forum, &anon_forum);
        let aux = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        let anon = Side { forum: &anon_forum, uda: &anon_uda, post_features: &anon_feats };

        // σ = 0 and mean = 0 (one post at its own centroid): acceptance is
        // `d_u ≤ factor · 0.01`.
        let d_u = 1.0 - anon_uda.profiles[0].cosine(&aux_uda.profiles[0]);
        assert!(d_u > 0.0, "profiles must differ a little");
        let boundary = d_u / 0.01;
        assert!(sigma_accepts(0, 0, &anon, &aux, boundary * 1.001));
        assert!(!sigma_accepts(0, 0, &anon, &aux, boundary * 0.999));
    }

    #[test]
    fn decoys_are_distinct_and_exactly_min_of_pool_and_request() {
        // 8 present aux users, 2 candidates → pool of 6.
        let mut posts = Vec::new();
        for a in 0..8usize {
            posts.push(Post { author: a, thread: 0, text: format!("hello from user {a}") });
        }
        let aux_forum = Forum::from_posts(8, 1, posts);
        let aux_uda = UdaGraph::build(&aux_forum);
        let aux_feats: Vec<FeatureVector> =
            aux_forum.posts.iter().map(|p| extract(&p.text)).collect();
        let aux = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        let candidates = [2usize, 5];

        for (n_false, expect) in [(0usize, 0usize), (1, 1), (4, 4), (6, 6), (100, 6)] {
            let decoys = false_addition_decoys(0, &candidates, &aux, n_false, 33);
            assert_eq!(decoys.len(), expect, "n_false = {n_false}");
            // Distinct, sorted, disjoint from the candidates.
            assert!(decoys.windows(2).all(|w| w[0] < w[1]), "{decoys:?}");
            assert!(decoys.iter().all(|d| !candidates.contains(d)));
        }
        // The draw is deterministic per user, and each user's stream is
        // well-formed on its own.
        let a = false_addition_decoys(0, &candidates, &aux, 3, 33);
        let b = false_addition_decoys(1, &candidates, &aux, 3, 33);
        let c = false_addition_decoys(0, &candidates, &aux, 3, 33);
        assert_eq!(a, c, "decoy draw must be deterministic");
        assert_eq!(b.len(), 3);
        assert!(b.iter().all(|d| !candidates.contains(d)));
    }

    #[test]
    fn tied_vote_goes_to_best_ranked_candidate() {
        // One anonymized post in each of the two aux users' styles → a
        // 1-1 majority-vote tie. The winner must be the *first* (i.e.
        // best-ranked) candidate, in either candidate order.
        let (aux_forum, _) = fixture();
        let anon_posts = vec![
            Post { author: 0, thread: 0, text: "TERRIBLE PAIN!!! THE WORST DAY!!!".into() },
            Post {
                author: 0,
                thread: 1,
                text: "i think that the medicine helps because the pain improves with rest.".into(),
            },
        ];
        let anon_forum = Forum::from_posts(1, 2, anon_posts);
        let (aux_uda, anon_uda, aux_feats, anon_feats) = sides(&aux_forum, &anon_forum);
        let aux = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        let anon = Side { forum: &anon_forum, uda: &anon_uda, post_features: &anon_feats };
        let config = RefinedConfig {
            classifier: ClassifierKind::Knn { k: 1 },
            verification: Verification::None,
            seed: 5,
        };
        // Sanity: with a single candidate each post classifies to it, so
        // with both candidates the vote really is 1-1 (k = 1 KNN assigns
        // each post to its stylistic twin).
        let first = refine_user(0, &[0, 1], &anon, &aux, &[0.9, 0.1], &config);
        let second = refine_user(0, &[1, 0], &anon, &aux, &[0.1, 0.9], &config);
        assert_eq!(first, Some(0), "tie must resolve to the best-ranked candidate");
        assert_eq!(second, Some(1), "tie must resolve to the best-ranked candidate");
    }

    #[test]
    fn vote_winner_prefers_earliest_on_ties() {
        assert_eq!(vote_winner(&[2, 2, 1]), 0);
        assert_eq!(vote_winner(&[1, 3, 3]), 1);
        assert_eq!(vote_winner(&[0, 0, 0]), 0);
        assert_eq!(vote_winner(&[1, 2, 3]), 2);
    }

    #[test]
    fn empty_candidates_reject() {
        let (aux_forum, anon_forum) = fixture();
        let (aux_uda, anon_uda, aux_feats, anon_feats) = sides(&aux_forum, &anon_forum);
        let aux = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        let anon = Side { forum: &anon_forum, uda: &anon_uda, post_features: &anon_feats };
        let config = RefinedConfig::default();
        assert_eq!(refine_user(0, &[], &anon, &aux, &[0.0, 0.0], &config), None);
        let aux_ctx = RefinedContext::build(&aux, config.classifier);
        let anon_ctx = RefinedContext::build(&anon, config.classifier);
        let mut scratch = RefinedScratch::new();
        assert_eq!(
            refine_user_shared(
                0,
                &[],
                &anon,
                &aux,
                &anon_ctx,
                &aux_ctx,
                &[0.0, 0.0],
                &config,
                &mut scratch
            ),
            None
        );
    }

    /// The rows `context` holds for `side`'s posts `from..`, checked
    /// against the oracle's dense `sample` rows bit for bit: the dense
    /// arena holds the whole row; a sparse row holds its nonzero
    /// stylometric entries, then all [`N_STRUCT`] structural entries.
    fn assert_rows_match_samples(context: &RefinedContext, side: &Side<'_>, from: usize) {
        assert_eq!(context.dim(), M + N_STRUCT);
        let sparse = context.sparse_slices();
        for (pi, post) in side.forum.posts.iter().enumerate().skip(from) {
            let oracle = sample(&side.post_features[pi], side.uda, post.author);
            let want: Vec<(u32, u64)> = if context.is_sparse() {
                oracle
                    .iter()
                    .enumerate()
                    .filter(|&(j, &v)| v != 0.0 || j >= M)
                    .map(|(j, v)| (j as u32, v.to_bits()))
                    .collect()
            } else {
                oracle.iter().enumerate().map(|(j, v)| (j as u32, v.to_bits())).collect()
            };
            let got: Vec<(u32, u64)> = if context.is_sparse() {
                let (idx, val) = sparse.post(pi);
                idx.iter().zip(val).map(|(&j, v)| (j, v.to_bits())).collect()
            } else {
                context.row(pi).iter().enumerate().map(|(j, v)| (j as u32, v.to_bits())).collect()
            };
            assert_eq!(got, want, "post {pi} (sparse: {})", context.is_sparse());
        }
    }

    #[test]
    fn context_rows_match_oracle_samples() {
        let (aux_forum, anon_forum) = fixture();
        let (aux_uda, _, aux_feats, _) = sides(&aux_forum, &anon_forum);
        let aux = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        // A second cohort: two new users in threads of their own, appended
        // to the same side.
        let mut posts = aux_forum.posts.clone();
        posts.push(Post {
            author: 2,
            thread: 2,
            text: "my knee hurts after the long walk.".into(),
        });
        posts.push(Post { author: 3, thread: 3, text: "WHY DOES IT ITCH SO MUCH???".into() });
        posts.push(Post { author: 2, thread: 2, text: "ice helps, heat does not".into() });
        let grown_forum = Forum::from_posts(4, 4, posts);
        let grown_uda = UdaGraph::build(&grown_forum);
        let grown_feats: Vec<FeatureVector> =
            grown_forum.posts.iter().map(|p| extract(&p.text)).collect();
        let grown = Side { forum: &grown_forum, uda: &grown_uda, post_features: &grown_feats };
        for kind in [ClassifierKind::Centroid, ClassifierKind::Knn { k: 3 }] {
            let mut ctx = RefinedContext::build(&aux, kind);
            assert_eq!(ctx.is_sparse(), matches!(kind, ClassifierKind::Knn { .. }));
            assert_rows_match_samples(&ctx, &aux, 0);
            ctx.append_rows(&grown, aux_forum.posts.len());
            assert_eq!(ctx.n_posts(), grown_forum.posts.len());
            assert_rows_match_samples(&ctx, &aux, 0);
            assert_rows_match_samples(&ctx, &grown, aux_forum.posts.len());
        }
    }

    /// The oracle's training set for `candidates` (class = candidate
    /// position) and the scaler fitted on it, as `refine_user` builds them.
    fn oracle_training(candidates: &[usize], aux: &Side<'_>) -> (Dataset, MinMaxScaler) {
        let mut train = Dataset::new(M + N_STRUCT);
        for (class, &v) in candidates.iter().enumerate() {
            for &pi in aux.forum.user_posts(v) {
                train.push(&sample(&aux.post_features[pi], aux.uda, v), class);
            }
        }
        let scaler = MinMaxScaler::fit(&train);
        (train, scaler)
    }

    /// The per-post KNN votes of the oracle's dense path (`refine_user`'s
    /// dataset, scaler and classifier) for anonymized user `u` against
    /// `candidates`.
    fn oracle_votes(
        u: usize,
        candidates: &[usize],
        anon: &Side<'_>,
        aux: &Side<'_>,
        k: usize,
    ) -> Vec<usize> {
        let (mut train, scaler) = oracle_training(candidates, aux);
        scaler.transform(&mut train);
        let mut clf = make_classifier(ClassifierKind::Knn { k }, 0);
        clf.fit(&train);
        let mut votes = vec![0; candidates.len()];
        for &pi in anon.forum.user_posts(u) {
            let x = sample(&anon.post_features[pi], anon.uda, u);
            let x: Vec<f64> =
                x.iter().enumerate().map(|(j, &v)| scaler.scale_value(j, v)).collect();
            votes[clf.predict(&x).label] += 1;
        }
        votes
    }

    /// Synthetic sides for the lane kernel: three auxiliary users with
    /// random sparse features over ids `1..300` (`1..900` for user 2) plus
    /// a feature (id 0) every auxiliary post holds at 1.0, each user alone
    /// in its thread; anonymized users 0..5 with 1, L−1, L, L+1 and 2L+1
    /// posts over ids `1..300`.
    ///
    /// - The one post of anonymized user 0 holds only feature 0, so its
    ///   scaled query is all zeros: feature 0 and both graph features have
    ///   range 0 in training, and its attribute and post counts sit below
    ///   every candidate's.
    /// - The first post of user 3 holds only features `1000..1004`, which
    ///   no training row has.
    fn lane_fixture() -> (Forum, Vec<FeatureVector>, Forum, Vec<FeatureVector>) {
        let mut rng = StdRng::seed_from_u64(0x1a4e);
        let mut random_post = |extra: &[(u32, f64)], ids: u32| {
            let mut entries: Vec<(u32, f64)> = extra.to_vec();
            for _ in 0..40 {
                entries.push((rng.gen_range(1..ids), rng.gen_range(0.05..5.0)));
            }
            entries.sort_by_key(|&(j, _)| j);
            entries.dedup_by_key(|&mut (j, _)| j);
            FeatureVector::try_from_sorted_entries(entries).expect("valid entries")
        };
        let post = |author: usize, thread: usize| Post { author, thread, text: String::new() };
        let (mut aux_posts, mut aux_feats) = (Vec::new(), Vec::new());
        for (v, n_posts, ids) in [(0usize, 6usize, 300), (1, 4, 300), (2, 9, 900)] {
            for _ in 0..n_posts {
                aux_posts.push(post(v, v));
                aux_feats.push(random_post(&[(0, 1.0)], ids));
            }
        }
        let (mut anon_posts, mut anon_feats) = (Vec::new(), Vec::new());
        anon_posts.push(post(0, 0));
        anon_feats.push(FeatureVector::try_from_sorted_entries(vec![(0, 0.7)]).unwrap());
        for (u, n_posts) in [(1usize, LANES - 1), (2, LANES), (3, LANES + 1), (4, 2 * LANES + 1)] {
            for i in 0..n_posts {
                anon_posts.push(post(u, u));
                anon_feats.push(if u == 3 && i == 0 {
                    let unseen = (1000..1004).map(|j| (j, 1.5)).collect();
                    FeatureVector::try_from_sorted_entries(unseen).unwrap()
                } else {
                    random_post(&[], 300)
                });
            }
        }
        (
            Forum::from_posts(3, 3, aux_posts),
            aux_feats,
            Forum::from_posts(5, 5, anon_posts),
            anon_feats,
        )
    }

    #[test]
    fn lane_boundaries_match_oracle() {
        let (aux_forum, aux_feats, anon_forum, anon_feats) = lane_fixture();
        let aux_uda = UdaGraph::build_with_features(&aux_forum, &aux_feats);
        let anon_uda = UdaGraph::build_with_features(&anon_forum, &anon_feats);
        let aux = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        let anon = Side { forum: &anon_forum, uda: &anon_uda, post_features: &anon_feats };
        let post_counts: Vec<usize> = (0..5).map(|u| anon_forum.user_posts(u).len()).collect();
        assert_eq!(post_counts, [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1]);

        // The fixture's two edge posts are what they claim to be.
        let (_, scaler) = oracle_training(&[0, 1, 2], &aux);
        let zero_query = sample(&anon_feats[anon_forum.user_posts(0)[0]], &anon_uda, 0);
        assert!(zero_query.iter().enumerate().all(|(j, &v)| scaler.scale_value(j, v) == 0.0));
        let unseen = &anon_feats[anon_forum.user_posts(3)[0]];
        assert!(aux_feats.iter().all(|f| unseen.iter_nonzero().all(|(j, _)| f.get(j) == 0.0)));

        let aux_ctx = RefinedContext::build(&aux, ClassifierKind::Knn { k: 1 });
        let anon_ctx = RefinedContext::build(&anon, ClassifierKind::Knn { k: 1 });
        let mut scratch = RefinedScratch::new();
        for k in [1, 3] {
            let config = RefinedConfig {
                classifier: ClassifierKind::Knn { k },
                verification: Verification::None,
                seed: 5,
            };
            for order in [[0, 1, 2], [2, 0, 1]] {
                for u in 0..anon_forum.n_users {
                    let sim_row = [0.3, 0.2, 0.1];
                    let oracle = refine_user(u, &order, &anon, &aux, &sim_row, &config);
                    let fast = refine_user_shared(
                        u,
                        &order,
                        &anon,
                        &aux,
                        &anon_ctx,
                        &aux_ctx,
                        &sim_row,
                        &config,
                        &mut scratch,
                    );
                    assert_eq!(fast, oracle, "user {u}, k {k}, candidates {order:?}");
                    let want = oracle_votes(u, &order, &anon, &aux, k);
                    assert_eq!(scratch.votes, want, "user {u}, k {k}, candidates {order:?}");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_users_is_clean() {
        // A user whose training rows touch a wide feature range runs before
        // one whose rows touch a narrow range, on the same scratch: stale
        // lane entries or stats from the first must not leak into the
        // second, which must decide and vote as on a fresh scratch.
        let (aux_forum, aux_feats, anon_forum, anon_feats) = lane_fixture();
        let aux_uda = UdaGraph::build_with_features(&aux_forum, &aux_feats);
        let anon_uda = UdaGraph::build_with_features(&anon_forum, &anon_feats);
        let aux = Side { forum: &aux_forum, uda: &aux_uda, post_features: &aux_feats };
        let anon = Side { forum: &anon_forum, uda: &anon_uda, post_features: &anon_feats };
        let config = RefinedConfig::default();
        let aux_ctx = RefinedContext::build(&aux, config.classifier);
        let anon_ctx = RefinedContext::build(&anon, config.classifier);
        let sim_row = [0.3, 0.2, 0.1];
        let run = |u: usize, candidates: &[usize], scratch: &mut RefinedScratch| {
            let got = refine_user_shared(
                u, candidates, &anon, &aux, &anon_ctx, &aux_ctx, &sim_row, &config, scratch,
            );
            (got, scratch.votes.clone(), scratch.loc_count.len())
        };
        for u in 0..anon_forum.n_users {
            let mut shared = RefinedScratch::new();
            let (_, _, wide) = run(4, &[2, 0, 1], &mut shared);
            assert!(shared.q.iter().all(|lanes| lanes == &[0.0; LANES]), "lane buffer not cleared");
            let narrow = run(u, &[0, 1], &mut shared);
            assert!(narrow.2 + 200 < wide, "local ranges {wide} then {}", narrow.2);
            assert_eq!(narrow, run(u, &[0, 1], &mut RefinedScratch::new()), "user {u}");
            assert_eq!(narrow.0, refine_user(u, &[0, 1], &anon, &aux, &sim_row, &config));
            assert_eq!(narrow.1, oracle_votes(u, &[0, 1], &anon, &aux, 3), "user {u}");
        }
    }
}
