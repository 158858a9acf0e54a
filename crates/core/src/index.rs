//! Inverted-index sparse candidate scoring.
//!
//! The all-pairs sweep of [`SimilarityEngine::scores_for`] touches every
//! `(anonymized, auxiliary)` pair and merges both users' attribute lists
//! per pair. With the paper's default weights (`c1, c2, c3 = 0.05, 0.05,
//! 0.9`, Section III-B) the *sparse* attribute term dominates the score,
//! so most of that work is wasted: pairs that share few or no attributes
//! can never beat the running Top-K floor.
//!
//! This module replaces the sweep with work proportional to actual
//! attribute co-occurrence:
//!
//! - [`AttributeIndex`] maps each attribute to the posting list of
//!   auxiliary users exhibiting it (with their `l_v(A_i)` weights), plus
//!   per-user totals `|A(v)|` and `Σ l_v`. It is built once per auxiliary
//!   side and appended to as a standing corpus ingests disjoint cohorts
//!   of new users.
//! - [`IndexedScorer`] scores one anonymized user by probing only the
//!   posting lists of that user's own attributes, accumulating per-pair
//!   intersection counts and min-weight sums. Both Jaccard terms are then
//!   computed *exactly* from the accumulators — `union = |A(u)| + |A(v)| -
//!   inter` and `wunion = Σ_u + Σ_v - Σ min` are the same integers the
//!   dense merge counts, so the divisions produce bit-identical `f64`s.
//! - Posting-list *skew* is handled by a hot/rare split at scorer
//!   construction: attributes whose lists touch ≥ 1/8th of the present
//!   population (stylometric attribute sets are projections of one shared
//!   feature space, so common features produce lists of length ≈ `|V2|`)
//!   move off the probe path into per-user bitmask rows and a transposed
//!   `(slot, weight)` CSR. Intersections then come from popcounts,
//!   pruning uses a monotone upper bound on the weighted term, and only
//!   surviving pairs pay the exact hot merge — keeping per-anonymized-user
//!   work near `O(rare postings + |V2|·words)` instead of
//!   `O(Σ hot-list length)`.
//! - Pairs are pruned against the [`BoundedTopK::floor`] on an upper
//!   bound of their score: the attribute term (exact, or bounded from
//!   above before the hot merge) plus a ceiling on the structural part.
//!   The constant ceiling `c1·3 + c2·2` (degree similarity caps at 3,
//!   distance similarity at 2) is tried first because it costs nothing;
//!   a pair it cannot prune is tried against its own ceiling,
//!   `SimilarityEngine::structural_ceiling`: the pair's exact degree
//!   ratios, with each cosine taken as 1 when both of its vectors have a
//!   nonzero norm and 0 otherwise. Correlation graphs are sparse and
//!   largely disconnected, so many users have degree 0 and all-zero
//!   closeness vectors, and their ceiling sits far below the constant.
//!   Only pairs whose bound beats the floor fall back to the full
//!   degree/distance computation.
//!
//! **Exactness.** Pruning never changes the outcome. The per-pair ceiling
//! bounds the *rounded* structural part, not only the real one:
//! [`padded_cosine`](crate::similarity::padded_cosine) returns exactly
//! 0.0 when either norm is 0 and is clamped to at most 1.0 otherwise, so
//! each cosine is at most its zero-norm indicator; the degree ratios are
//! the same `f64` operations on the same operands as in the score; and
//! `f64` addition and multiplication by a non-negative constant are
//! monotone (a negative weight contributes 0, its term being `≤ 0`).
//! Evaluated with the same association as
//! [`SimilarityEngine::similarity`], `(c1·s^d + c2·s^s) + c3·s^a`, the
//! bound is therefore a true upper bound on the rounded score; the
//! constant `c1·3 + c2·2` is one too, and serves only as the cheap first
//! check. The floor of a [`BoundedTopK`] never decreases, and a pair is
//! pruned only when its bound is *strictly* below the floor (an
//! equal-score pair could still enter on the smaller-id tie-break), so
//! every pruned pair would have been rejected by [`BoundedTopK::insert`]
//! anyway. `tests/index_parity.rs` differential-tests this path against
//! the dense oracle at 1/2/8 threads.
//!
//! **Caveat.** Pruning skips pairs without computing their scores, so the
//! running [`ScoreBounds`] of a pruned pass no
//! longer sees the global minimum. Callers that feed Algorithm-2 filtering
//! (which thresholds against that minimum) must score with pruning
//! disabled — the engine does this automatically whenever
//! `AttackConfig::filtering` is set.

use std::sync::Arc;

use dehealth_corpus::snapshot::{SectionReader, SectionWrite, SnapshotError};
use dehealth_mapped::SharedBytes;
use dehealth_stylometry::UserAttributes;

use crate::arena::{ArenaCastError, ArenaView};
use crate::filter::ScoreBounds;
use crate::similarity::SimilarityEngine;
use crate::topk::BoundedTopK;
use crate::uda::UdaGraph;

/// One entry of a posting list: an auxiliary user exhibiting the
/// attribute, with its post-count weight `l_v(A_i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Auxiliary user id (in the index's id space).
    pub user: u32,
    /// Attribute weight `l_v(A_i)`.
    pub weight: u32,
}

/// One attribute's posting list, borrowed from the index: parallel
/// user-id and weight arrays (users strictly ascending).
#[derive(Debug, Clone, Copy)]
pub struct PostingsRef<'a> {
    /// Auxiliary user ids exhibiting the attribute, strictly ascending.
    pub users: &'a [u32],
    /// The matching weights `l_v(A_i)`, parallel to `users`.
    pub weights: &'a [u32],
}

impl<'a> PostingsRef<'a> {
    const EMPTY: PostingsRef<'static> = PostingsRef { users: &[], weights: &[] };

    /// Number of postings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// `true` when no user exhibits the attribute.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The `i`-th posting.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> Posting {
        Posting { user: self.users[i], weight: self.weights[i] }
    }

    /// Iterate the postings in ascending user order.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + 'a {
        self.users.iter().zip(self.weights).map(|(&user, &weight)| Posting { user, weight })
    }

    /// The suffix of postings with `user >= from` — what an
    /// [`IndexedScorer`] with watermark `from` probes.
    #[must_use]
    pub fn suffix(&self, from: u32) -> PostingsRef<'a> {
        let start = self.users.partition_point(|&u| u < from);
        PostingsRef { users: &self.users[start..], weights: &self.weights[start..] }
    }
}

/// One attribute's appendable posting list (the building-side storage).
#[derive(Debug, Clone, Default)]
struct AttrPostings {
    users: Vec<u32>,
    weights: Vec<u32>,
}

/// Posting storage: appendable per-attribute lists while building or
/// appending, or a flattened CSR over (possibly snapshot-borrowed)
/// arenas once decoded. [`AttributeIndex::posting`] presents both as
/// [`PostingsRef`]s, so readers never care which they got.
#[derive(Debug, Clone)]
enum PostingStore {
    Dynamic { lists: Vec<AttrPostings>, n_postings: usize },
    Csr { starts: ArenaView<u64>, users: ArenaView<u32>, weights: ArenaView<u32> },
}

impl Default for PostingStore {
    fn default() -> Self {
        PostingStore::Dynamic { lists: Vec::new(), n_postings: 0 }
    }
}

/// Attribute → posting-list inverted index over one auxiliary user
/// population.
///
/// Users are appended in increasing id order ([`Self::push_user`]), so
/// every posting list stays sorted by user id, and an [`IndexedScorer`]
/// can probe only the suffix of users appended after a given watermark.
///
/// The per-user tables and posting arenas are **storage-generic**
/// ([`ArenaView`]): a freshly built index owns its `Vec`s, while an
/// index decoded from a snapshot through [`Self::decode`] borrows
/// them straight out of the (typically memory-mapped) file. Appending
/// promotes borrowed storage to owned copy-on-write.
///
/// ```
/// use dehealth_core::index::AttributeIndex;
/// use dehealth_stylometry::UserAttributes;
///
/// let mut index = AttributeIndex::new();
/// index.push_user(&UserAttributes::from_weights(vec![(3, 2), (7, 1)]), true);
/// index.push_user(&UserAttributes::from_weights(vec![(7, 4)]), true);
/// index.push_user(&UserAttributes::new(), false); // absent user
/// assert_eq!(index.n_users(), 3);
/// assert_eq!(index.posting(7).len(), 2);
/// assert_eq!(index.posting(3).len(), 1);
/// assert_eq!(index.present_from(0), &[0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AttributeIndex {
    /// Per-user `|A(v)|`.
    attr_counts: ArenaView<u32>,
    /// Per-user `Σ_i l_v(A_i)`.
    weight_sums: ArenaView<u64>,
    /// Per-user presence flag (0/1); absent users — no posts — are never
    /// scored.
    present_flags: ArenaView<u8>,
    /// Ids of present users, ascending.
    present: ArenaView<u32>,
    /// `posting(attr)` = users exhibiting `attr`, ascending by id.
    postings: PostingStore,
}

impl AttributeIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the index over every user of a UDA graph (absent users — no
    /// posts — are registered but get no postings).
    #[must_use]
    pub fn from_uda(uda: &UdaGraph) -> Self {
        let mut index = Self::new();
        index.append_uda(uda);
        index
    }

    /// Append every user of a UDA graph, in id order, after the users
    /// already indexed ([`Self::from_uda`] starts from an empty index).
    pub fn append_uda(&mut self, uda: &UdaGraph) {
        self.append_uda_suffix(uda, 0);
    }

    /// Append the users `from..` of a UDA graph, in id order — the
    /// incremental-ingest path of a corpus that already indexed the first
    /// `from` users of the same (merged) graph, so `from` equals
    /// [`Self::n_users`] and ids line up. [`Self::append_uda`] appends a
    /// whole graph instead, its ids offset by the users already indexed.
    /// This is the single place encoding the presence convention
    /// (`post_counts[v] > 0`).
    pub fn append_uda_suffix(&mut self, uda: &UdaGraph, from: usize) {
        for (v, attrs) in uda.attributes.iter().enumerate().skip(from) {
            self.push_user(attrs, uda.post_counts[v] > 0);
        }
    }

    /// Append the next user (id = current [`Self::n_users`]) with its
    /// attribute set. `present` marks users that actually have posts;
    /// absent users occupy an id but are never offered as candidates.
    /// Snapshot-borrowed storage is promoted to owned first
    /// (copy-on-write).
    ///
    /// Returns the id assigned to the user.
    pub fn push_user(&mut self, attrs: &UserAttributes, present: bool) -> usize {
        let id = self.n_users();
        let id32 = u32::try_from(id).expect("more than u32::MAX indexed users");
        let (lists, n_postings) = self.dynamic_postings();
        if present {
            for &(attr, weight) in attrs.as_weights() {
                let attr = attr as usize;
                if attr >= lists.len() {
                    lists.resize_with(attr + 1, AttrPostings::default);
                }
                lists[attr].users.push(id32);
                lists[attr].weights.push(weight);
                *n_postings += 1;
            }
            self.present.to_mut().push(id32);
        }
        self.attr_counts
            .to_mut()
            .push(u32::try_from(attrs.len()).expect("attribute count overflows u32"));
        self.weight_sums.to_mut().push(attrs.weight_sum());
        self.present_flags.to_mut().push(u8::from(present));
        id
    }

    /// The appendable posting lists, promoting decoded CSR storage (owned
    /// or snapshot-borrowed) into per-attribute `Vec`s first.
    fn dynamic_postings(&mut self) -> (&mut Vec<AttrPostings>, &mut usize) {
        if let PostingStore::Csr { starts, users, weights } = &self.postings {
            let starts = starts.as_slice();
            let (users, weights) = (users.as_slice(), weights.as_slice());
            let mut lists = Vec::with_capacity(starts.len().saturating_sub(1));
            for w in starts.windows(2) {
                let range = w[0] as usize..w[1] as usize;
                lists.push(AttrPostings {
                    users: users[range.clone()].to_vec(),
                    weights: weights[range].to_vec(),
                });
            }
            self.postings = PostingStore::Dynamic { lists, n_postings: users.len() };
        }
        match &mut self.postings {
            PostingStore::Dynamic { lists, n_postings } => (lists, n_postings),
            PostingStore::Csr { .. } => unreachable!("promoted above"),
        }
    }

    /// Number of users registered (present and absent).
    #[must_use]
    pub fn n_users(&self) -> usize {
        self.attr_counts.len()
    }

    /// Number of attribute slots (highest exhibited attribute + 1).
    #[must_use]
    pub fn n_attrs(&self) -> usize {
        match &self.postings {
            PostingStore::Dynamic { lists, .. } => lists.len(),
            PostingStore::Csr { starts, .. } => starts.len().saturating_sub(1),
        }
    }

    /// Total posting entries across all attributes.
    #[must_use]
    pub fn n_postings(&self) -> usize {
        match &self.postings {
            PostingStore::Dynamic { n_postings, .. } => *n_postings,
            PostingStore::Csr { users, .. } => users.len(),
        }
    }

    /// The posting list of one attribute, ascending by user id (empty for
    /// attributes no user exhibits).
    #[must_use]
    pub fn posting(&self, attr: usize) -> PostingsRef<'_> {
        match &self.postings {
            PostingStore::Dynamic { lists, .. } => {
                lists.get(attr).map_or(PostingsRef::EMPTY, |l| PostingsRef {
                    users: &l.users,
                    weights: &l.weights,
                })
            }
            PostingStore::Csr { starts, users, weights } => {
                let starts = starts.as_slice();
                if attr + 1 >= starts.len() {
                    return PostingsRef::EMPTY;
                }
                let range = starts[attr] as usize..starts[attr + 1] as usize;
                PostingsRef {
                    users: &users.as_slice()[range.clone()],
                    weights: &weights.as_slice()[range],
                }
            }
        }
    }

    /// Ids of present users `>= from`, ascending — the population an
    /// [`IndexedScorer`] with watermark `from` scores.
    #[must_use]
    pub fn present_from(&self, from: usize) -> &[u32] {
        let from = u32::try_from(from).expect("watermark overflows u32");
        let present = self.present.as_slice();
        let start = present.partition_point(|&v| v < from);
        &present[start..]
    }

    /// `true` when any arena of this index borrows a loaded snapshot's
    /// bytes instead of owning them.
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        let csr_borrowed = match &self.postings {
            PostingStore::Dynamic { .. } => false,
            PostingStore::Csr { starts, users, weights } => {
                starts.is_borrowed() || users.is_borrowed() || weights.is_borrowed()
            }
        };
        csr_borrowed
            || self.attr_counts.is_borrowed()
            || self.weight_sums.is_borrowed()
            || self.present_flags.is_borrowed()
            || self.present.is_borrowed()
    }

    /// `(resident, borrowed)` arena bytes: heap bytes this index keeps
    /// resident vs. bytes it reads straight out of a loaded snapshot.
    #[must_use]
    pub fn arena_bytes(&self) -> (usize, usize) {
        let views = [
            (self.attr_counts.resident_bytes(), self.attr_counts.byte_len()),
            (self.weight_sums.resident_bytes(), self.weight_sums.byte_len()),
            (self.present_flags.resident_bytes(), self.present_flags.byte_len()),
            (self.present.resident_bytes(), self.present.byte_len()),
        ];
        let (mut resident, mut total) =
            views.iter().fold((0, 0), |(r, t), &(vr, vt)| (r + vr, t + vt));
        match &self.postings {
            PostingStore::Dynamic { lists, n_postings } => {
                resident += n_postings * 8 + lists.len() * std::mem::size_of::<AttrPostings>();
                total += n_postings * 8 + lists.len() * std::mem::size_of::<AttrPostings>();
            }
            PostingStore::Csr { starts, users, weights } => {
                for (r, t) in [
                    (starts.resident_bytes(), starts.byte_len()),
                    (users.resident_bytes(), users.byte_len()),
                    (weights.resident_bytes(), weights.byte_len()),
                ] {
                    resident += r;
                    total += t;
                }
            }
        }
        (resident, total - resident)
    }

    /// Serialize into a snapshot section: eight `u64` counts, then the
    /// per-user tables and the flattened CSR posting arenas, each padded
    /// to an 8-byte payload offset (see ARCHITECTURE.md for the byte
    /// layout). The `present` id list is stored too, so a zero-copy load
    /// derives nothing.
    pub fn encode<W: SectionWrite>(&self, buf: &mut W) {
        let n_attrs = self.n_attrs();
        buf.put_u64(self.n_users() as u64);
        buf.put_u64(n_attrs as u64);
        buf.put_u64(self.n_postings() as u64);
        buf.put_u64(self.present.len() as u64);
        buf.put_u32_arena(self.attr_counts.as_slice());
        buf.put_u64_arena(self.weight_sums.as_slice());
        buf.align8();
        for &f in self.present_flags.as_slice() {
            buf.put_u8(f);
        }
        buf.put_u32_arena(self.present.as_slice());
        match &self.postings {
            PostingStore::Csr { starts, users, weights } => {
                buf.put_u64_arena(starts.as_slice());
                buf.put_u32_arena(users.as_slice());
                buf.put_u32_arena(weights.as_slice());
            }
            PostingStore::Dynamic { lists, n_postings } => {
                buf.align8();
                let mut at = 0u64;
                buf.put_u64(at);
                for l in lists {
                    at += l.users.len() as u64;
                    buf.put_u64(at);
                }
                debug_assert_eq!(at as usize, *n_postings);
                buf.align8();
                for l in lists {
                    for &u in &l.users {
                        buf.put_u32(u);
                    }
                }
                buf.align8();
                for l in lists {
                    for &w in &l.weights {
                        buf.put_u32(w);
                    }
                }
            }
        }
    }

    /// Deserialize an index written by [`Self::encode`]. With a
    /// `backing`, every arena becomes a zero-copy [`ArenaView`] borrowing
    /// the snapshot's bytes (the alignment guarantee makes the casts
    /// succeed); without one — or on targets that cannot cast
    /// little-endian bytes in place — the arenas are copied out instead.
    /// Either way every structural invariant is re-validated (ascending
    /// posting lists, ids in range, postings only for present users,
    /// positive weights), so downstream scorers can index unchecked.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Malformed`] on
    /// malformed payloads, [`SnapshotError::Misaligned`] when an arena
    /// that the format guarantees aligned is not (corrupt framing or an
    /// unaligned backing); never panics.
    pub fn decode(
        r: &mut SectionReader<'_>,
        backing: Option<&SharedBytes>,
    ) -> Result<Self, SnapshotError> {
        let limit = r.remaining();
        let n_users = r.take_len(limit)?;
        let n_attrs = r.take_len(limit)?;
        let n_postings = r.take_len(limit)?;
        let n_present = r.take_len(limit)?;
        if n_present > n_users || n_postings > limit / 8 {
            return Err(SnapshotError::Malformed { context: "implausible index counts" });
        }
        let attr_counts = take_view::<u32>(r, backing, n_users, "index attr_counts arena")?;
        let weight_sums = take_view::<u64>(r, backing, n_users, "index weight_sums arena")?;
        let flags_bytes = r.take_arena(n_users)?;
        let present_flags = ArenaView::<u8>::from_region(backing, flags_bytes)
            .map_err(|e| cast_error(e, "index present_flags arena"))?;
        let present = take_view::<u32>(r, backing, n_present, "index present arena")?;
        let starts = take_view::<u64>(
            r,
            backing,
            n_attrs
                .checked_add(1)
                .ok_or(SnapshotError::Malformed { context: "implausible index counts" })?,
            "index posting starts arena",
        )?;
        let users = take_view::<u32>(r, backing, n_postings, "index posting users arena")?;
        let weights = take_view::<u32>(r, backing, n_postings, "index posting weights arena")?;

        // Validation scans over the (possibly borrowed) arenas, without
        // copying anything.
        {
            let flags = present_flags.as_slice();
            if flags.iter().any(|&f| f > 1) {
                return Err(SnapshotError::Malformed { context: "invalid presence flag" });
            }
            let present = present.as_slice();
            let mut expect = present.iter();
            for (id, &f) in flags.iter().enumerate() {
                if f == 1 && expect.next() != Some(&(id as u32)) {
                    return Err(SnapshotError::Malformed {
                        context: "present list disagrees with presence flags",
                    });
                }
            }
            if expect.next().is_some() {
                return Err(SnapshotError::Malformed {
                    context: "present list disagrees with presence flags",
                });
            }
            let starts = starts.as_slice();
            if starts.first() != Some(&0) || starts.last() != Some(&(n_postings as u64)) {
                return Err(SnapshotError::Malformed {
                    context: "posting starts do not cover arena",
                });
            }
            if starts.windows(2).any(|w| w[0] > w[1]) {
                return Err(SnapshotError::Malformed { context: "posting starts not monotone" });
            }
            let users_arena = users.as_slice();
            let weights_arena = weights.as_slice();
            for w in starts.windows(2) {
                let list = &users_arena[w[0] as usize..w[1] as usize];
                for &user in list {
                    if user as usize >= n_users {
                        return Err(SnapshotError::Malformed { context: "invalid posting entry" });
                    }
                    if flags[user as usize] == 0 {
                        return Err(SnapshotError::Malformed {
                            context: "posting references absent user",
                        });
                    }
                }
                if list.windows(2).any(|p| p[0] >= p[1]) {
                    return Err(SnapshotError::Malformed { context: "posting list not ascending" });
                }
            }
            if weights_arena.contains(&0) {
                return Err(SnapshotError::Malformed { context: "invalid posting entry" });
            }
        }

        Ok(Self {
            attr_counts,
            weight_sums,
            present_flags,
            present,
            postings: PostingStore::Csr { starts, users, weights },
        })
    }
}

/// Map an [`ArenaCastError`] to the matching [`SnapshotError`].
fn cast_error(e: ArenaCastError, context: &'static str) -> SnapshotError {
    match e {
        ArenaCastError::Unaligned => SnapshotError::Misaligned { context },
        // `from_region` only surfaces Unaligned; anything else is a
        // framing bug, reported as generic malformation.
        ArenaCastError::Unsupported | ArenaCastError::OutOfBounds => {
            SnapshotError::Malformed { context }
        }
    }
}

/// Take an aligned arena of `n` elements of `T` as a (zero-copy where
/// possible) view — the shared primitive of every section decoder.
pub(crate) fn take_view<T: crate::arena::DecodeLe>(
    r: &mut SectionReader<'_>,
    backing: Option<&SharedBytes>,
    n: usize,
    context: &'static str,
) -> Result<ArenaView<T>, SnapshotError> {
    let bytes =
        n.checked_mul(std::mem::size_of::<T>()).ok_or(SnapshotError::Malformed { context })?;
    let region = r.take_arena(bytes)?;
    ArenaView::from_region(backing, region).map_err(|e| cast_error(e, context))
}

/// Per-pair work counters of one scoring pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTally {
    /// Pairs fully scored (degree + distance + attribute terms).
    pub scored: u64,
    /// Pairs skipped because their upper bound could not beat the Top-K
    /// floor.
    pub pruned: u64,
    /// Pairs that paid the exact hot merge (a pair sharing no attribute
    /// needs none: its attribute term is exactly 0) and were then pruned
    /// on their exact attribute term or scored. `merged - scored` pairs
    /// were pruned after the merge, the rest of `pruned` before it.
    pub merged: u64,
}

impl std::ops::AddAssign for PairTally {
    fn add_assign(&mut self, rhs: Self) {
        self.scored += rhs.scored;
        self.pruned += rhs.pruned;
        self.merged += rhs.merged;
    }
}

/// Reusable per-worker accumulators for [`IndexedScorer::score_user`].
///
/// Dense over the scored auxiliary range but reset sparsely (only touched
/// slots are cleared), so a worker reuses one scratch across its whole
/// block without per-user `O(|V2|)` zeroing.
#[derive(Debug, Clone)]
pub struct IndexScratch {
    /// `|A(u) ∩ A(v)|` over *rare* attributes, per local auxiliary user.
    inter: Vec<u32>,
    /// `Σ min(l_u, l_v)` over the shared rare attributes, per local user.
    min_sum: Vec<u64>,
    /// Local ids with rare `inter > 0`, in first-touch order.
    touched: Vec<u32>,
    /// The anonymized user's weight per hot slot (dense over hot slots,
    /// sparsely reset via `u_slots`).
    u_hot: Vec<u32>,
    /// The anonymized user's hot-slot bitmask.
    u_mask: Vec<u64>,
    /// Hot slots the anonymized user occupies, for the sparse reset.
    u_slots: Vec<u32>,
}

impl IndexScratch {
    fn new(n_local: usize, n_hot: usize, words: usize) -> Self {
        Self {
            inter: vec![0; n_local],
            min_sum: vec![0; n_local],
            touched: Vec::with_capacity(n_local.min(1024)),
            u_hot: vec![0; n_hot],
            u_mask: vec![0; words],
            u_slots: Vec::with_capacity(n_hot.min(1024)),
        }
    }
}

/// Hot-attribute side tables of one [`IndexedScorer`].
///
/// In a stylometric corpus the attribute sets are binary projections of
/// the *same* feature space, so common features (letters, punctuation,
/// frequent function words) produce posting lists touching nearly every
/// auxiliary user. Probing those lists per anonymized user costs
/// `Θ(|V1|·|V2|·density)` — the skew wall the 100k sweep hits. The scorer
/// therefore splits attributes at construction: lists shorter than the
/// hot threshold stay on the probe path, while *hot* attributes are
/// transposed into per-user bitmask rows (for exact intersection counts
/// via popcount) and a per-user `(slot, weight)` CSR (for the exact
/// min-weight merge, paid only by pairs that survive pruning).
#[derive(Debug, Clone, PartialEq, Eq)]
struct HotAttrs {
    /// Attribute id → hot slot, `u32::MAX` for rare attributes.
    slot_of: Vec<u32>,
    /// Hot attribute ids by slot: ascending, so slot order is attribute
    /// order.
    attrs: Vec<u32>,
    /// `u64` words per bitmask row (`ceil(n_hot / 64)`).
    words: usize,
    /// Concatenated per-local-user bitmask rows (`n_local * words`).
    masks: Vec<u64>,
    /// Per local user: `Σ l_v` over its hot attributes.
    hot_wsums: Vec<u64>,
    /// Per-user hot CSR: row `lv` is `starts[lv]..starts[lv + 1]`.
    starts: Vec<usize>,
    /// Hot slot of each CSR entry, ascending within a row.
    slots: Vec<u32>,
    /// Weight `l_v` of each CSR entry, parallel to `slots`.
    weights: Vec<u32>,
}

/// The hot threshold over `n_present` present users: a list is hot when
/// it touches at least 1/8th of them (and at least 16 users, so tiny
/// corpora keep the pure probe path the differential tests already
/// cover).
fn hot_threshold(n_present: usize) -> usize {
    (n_present / 8).max(16)
}

impl HotAttrs {
    /// Classify attributes of `index`'s tail (`from..`) and transpose the
    /// hot posting lists into per-user rows.
    fn build(index: &AttributeIndex, from: usize) -> Self {
        let from32 = u32::try_from(from).expect("watermark overflows u32");
        let threshold = hot_threshold(index.present_from(from).len());
        let mut slot_of = vec![u32::MAX; index.n_attrs()];
        let mut attrs: Vec<u32> = Vec::new();
        for (attr, slot) in slot_of.iter_mut().enumerate() {
            if index.posting(attr).suffix(from32).len() >= threshold {
                *slot = u32::try_from(attrs.len()).expect("hot slot overflows u32");
                attrs.push(attr as u32);
            }
        }
        let words = attrs.len().div_ceil(64);
        let mut hot = Self {
            slot_of,
            attrs,
            words,
            masks: Vec::new(),
            hot_wsums: Vec::new(),
            starts: vec![0],
            slots: Vec::new(),
            weights: Vec::new(),
        };
        hot.push_rows(index, from);
        hot
    }

    /// Append the rows of the index users after the last row already
    /// here: users `from + rows..index.n_users()`, where `from` is the
    /// watermark the tables were built at. Each row lists the user's hot
    /// entries in slot order, as a build over the whole tail would.
    fn push_rows(&mut self, index: &AttributeIndex, from: usize) {
        let base = self.hot_wsums.len();
        let first = from + base;
        let first32 = u32::try_from(first).expect("watermark overflows u32");
        let n_new = index.n_users() - first;
        let mut row_len = vec![0usize; n_new];
        for &attr in &self.attrs {
            for &user in index.posting(attr as usize).suffix(first32).users {
                row_len[user as usize - first] += 1;
            }
        }
        let mut at = self.starts[base];
        let mut fill = Vec::with_capacity(n_new);
        for &l in &row_len {
            fill.push(at);
            at += l;
            self.starts.push(at);
        }
        let words = self.words;
        self.slots.resize(at, 0);
        self.weights.resize(at, 0);
        self.masks.resize((base + n_new) * words, 0);
        self.hot_wsums.resize(base + n_new, 0);
        for (slot, &attr) in self.attrs.iter().enumerate() {
            let plist = index.posting(attr as usize).suffix(first32);
            for (&user, &weight) in plist.users.iter().zip(plist.weights) {
                let i = user as usize - first;
                let pos = fill[i];
                fill[i] += 1;
                self.slots[pos] = slot as u32;
                self.weights[pos] = weight;
                let lv = base + i;
                self.masks[lv * words + slot / 64] |= 1u64 << (slot % 64);
                self.hot_wsums[lv] += u64::from(weight);
            }
        }
    }

    /// `true` when the hot set of the whole of `index` (`from = 0`) is
    /// this table's: one pass over the attribute ids.
    fn has_hot_set_of(&self, index: &AttributeIndex) -> bool {
        let threshold = hot_threshold(index.present_from(0).len());
        (0..index.n_attrs())
            .all(|attr| (index.posting(attr).len() >= threshold) == self.slot(attr).is_some())
    }

    /// Number of attributes on the hot path (slots).
    fn n_hot(&self) -> usize {
        self.attrs.len()
    }

    /// Hot slot of `attr`, or `None` when the attribute is rare (or
    /// beyond the indexed range).
    fn slot(&self, attr: usize) -> Option<usize> {
        match self.slot_of.get(attr) {
            Some(&s) if s != u32::MAX => Some(s as usize),
            _ => None,
        }
    }
}

/// The hot-attribute tables of a whole [`AttributeIndex`] (`from = 0`),
/// built once and shared read-only by every [`IndexedScorer`] over that
/// index. They depend only on the index, so a standing auxiliary corpus
/// can build them once per generation instead of once per attack, and
/// carry them across an ingest with [`Self::extend`]. Cloning shares the
/// tables.
///
/// The handle records the user and attribute counts of the index it was
/// built from; [`IndexedScorer::with_hot_attrs`] refuses it for an index
/// of another size.
#[derive(Debug, Clone)]
pub struct AuxHotAttrs {
    hot: Arc<HotAttrs>,
    n_users: usize,
    n_attrs: usize,
}

impl AuxHotAttrs {
    /// Classify `index`'s attributes and transpose its hot posting lists.
    #[must_use]
    pub fn build(index: &AttributeIndex) -> Self {
        Self {
            hot: Arc::new(HotAttrs::build(index, 0)),
            n_users: index.n_users(),
            n_attrs: index.n_attrs(),
        }
    }

    /// Extend the tables to the users appended to their index since they
    /// were built (or last extended): `index` must be that index, grown by
    /// [`AttributeIndex::push_user`]. Returns `false`, and leaves the
    /// tables as they were, when the grown index's hot set is not the
    /// tables' own (a list crossed the threshold, or the threshold moved
    /// past a list); the caller must then drop them.
    ///
    /// Otherwise the extended tables equal [`Self::build`] over `index`,
    /// field for field: appending users leaves every earlier posting in
    /// place, so the same hot set gets the same slots and every earlier
    /// row stays as it is; attributes new to the index are rare; and each
    /// new user's row is transposed by the same code as in a build. A
    /// handle shared with a clone is copied first ([`Arc::make_mut`]), so
    /// the clone keeps the tables it had.
    ///
    /// # Panics
    /// Panics if `index` has fewer users or attributes than the tables
    /// cover.
    #[must_use = "refused tables no longer fit the index and must be dropped"]
    pub fn extend(&mut self, index: &AttributeIndex) -> bool {
        assert!(
            index.n_users() >= self.n_users && index.n_attrs() >= self.n_attrs,
            "attribute index shrank under its hot tables"
        );
        if !self.hot.has_hot_set_of(index) {
            return false;
        }
        let hot = Arc::make_mut(&mut self.hot);
        hot.slot_of.resize(index.n_attrs(), u32::MAX);
        hot.push_rows(index, 0);
        self.n_users = index.n_users();
        self.n_attrs = index.n_attrs();
        true
    }
}

/// Sparse scorer: drives one [`SimilarityEngine`] through an
/// [`AttributeIndex`] instead of the all-pairs sweep.
///
/// `from` anchors the engine's auxiliary id space inside the index: the
/// engine's local auxiliary user `v` is index user `from + v`. An attack
/// uses `from = 0` with an index over the whole auxiliary side (the
/// engine always does, through [`Self::with_hot_attrs`]); scoring only
/// the users appended after a watermark passes that watermark, so only
/// the posting suffixes past it are probed.
#[derive(Debug)]
pub struct IndexedScorer<'e, 'i> {
    sim: &'e SimilarityEngine<'e>,
    index: &'i AttributeIndex,
    /// The per-user tables, resolved out of their (possibly
    /// snapshot-borrowed) [`ArenaView`]s once at construction — the
    /// inner scoring loop touches them per pair and must not pay an
    /// arena dispatch each time.
    attr_counts: &'i [u32],
    weight_sums: &'i [u64],
    present_flags: &'i [u8],
    /// Hot-attribute bitmasks and per-user CSR (see [`HotAttrs`]).
    hot: Arc<HotAttrs>,
    from: usize,
    prune: bool,
    /// `c1·s^d_max + c2·s^s_max`, evaluated with the same association as
    /// the score itself (negative weights contribute their maximum, 0):
    /// the free first check before a pair's own structural ceiling.
    struct_bound: f64,
}

impl<'e, 'i> IndexedScorer<'e, 'i> {
    /// Create a scorer over `sim`'s auxiliary side, which must occupy the
    /// index ids `from..index.n_users()`.
    ///
    /// `prune` enables upper-bound pruning. Disable it when the caller
    /// needs exact [`ScoreBounds`] over *all* present pairs (Algorithm-2
    /// filtering); scoring stays accumulator-driven either way.
    ///
    /// # Panics
    /// Panics if the index tail does not match the engine's auxiliary
    /// population.
    #[must_use]
    pub fn new(
        sim: &'e SimilarityEngine<'e>,
        index: &'i AttributeIndex,
        from: usize,
        prune: bool,
    ) -> Self {
        Self::from_parts(sim, index, from, Arc::new(HotAttrs::build(index, from)), prune)
    }

    /// [`Self::new`] over the whole index (`from = 0`) with its hot
    /// tables already built. Scores are bit-identical to [`Self::new`].
    ///
    /// # Panics
    /// Panics if `hot` was built from an index with another user or
    /// attribute count — a stale handle must not score silently — or as
    /// [`Self::new`].
    #[must_use]
    pub fn with_hot_attrs(
        sim: &'e SimilarityEngine<'e>,
        index: &'i AttributeIndex,
        hot: AuxHotAttrs,
        prune: bool,
    ) -> Self {
        assert!(
            hot.n_users == index.n_users() && hot.n_attrs == index.n_attrs(),
            "hot tables were built for another attribute index"
        );
        Self::from_parts(sim, index, 0, hot.hot, prune)
    }

    /// The construction path of [`Self::new`] and
    /// [`Self::with_hot_attrs`].
    fn from_parts(
        sim: &'e SimilarityEngine<'e>,
        index: &'i AttributeIndex,
        from: usize,
        hot: Arc<HotAttrs>,
        prune: bool,
    ) -> Self {
        assert_eq!(
            index.n_users() - from,
            sim.n_aux(),
            "index tail (from {from}) does not cover the engine's auxiliary side"
        );
        let w = sim.weights();
        let td = if w.c1 >= 0.0 { w.c1 * 3.0 } else { 0.0 };
        let ts = if w.c2 >= 0.0 { w.c2 * 2.0 } else { 0.0 };
        Self {
            sim,
            index,
            attr_counts: index.attr_counts.as_slice(),
            weight_sums: index.weight_sums.as_slice(),
            present_flags: index.present_flags.as_slice(),
            hot,
            from,
            prune,
            struct_bound: td + ts,
        }
    }

    /// `true` if a pair whose weighted attribute term is at most `attr`
    /// is strictly below `floor`, so it cannot enter the Top-K. The
    /// constant `struct_bound` goes first, as the cheapest test; the
    /// pair's own structural ceiling next, computed at most once into
    /// `ceiling` and shared by the pre- and post-merge screens.
    #[inline]
    fn below_floor(
        &self,
        u: usize,
        lv: usize,
        attr: f64,
        floor: f64,
        ceiling: &mut Option<f64>,
    ) -> bool {
        self.struct_bound + attr < floor
            || *ceiling.get_or_insert_with(|| self.sim.structural_ceiling(u, lv)) + attr < floor
    }

    /// Fresh accumulators sized for this scorer's auxiliary range.
    #[must_use]
    pub fn scratch(&self) -> IndexScratch {
        IndexScratch::new(self.index.n_users() - self.from, self.hot.n_hot(), self.hot.words)
    }

    /// Number of attributes on the hot (bitmask) path.
    #[must_use]
    pub fn n_hot_attrs(&self) -> usize {
        self.hot.n_hot()
    }

    /// `true` if upper-bound pruning is enabled.
    #[must_use]
    pub fn prunes(&self) -> bool {
        self.prune
    }

    /// Score anonymized user `u` against every present auxiliary user of
    /// this scorer's range, feeding `top` (candidate ids in *index* id
    /// space) and `bounds` exactly like the dense sweep would — except
    /// that pruned pairs are skipped entirely.
    pub fn score_user(
        &self,
        u: usize,
        scratch: &mut IndexScratch,
        top: &mut BoundedTopK,
        bounds: &mut ScoreBounds,
    ) -> PairTally {
        let w = self.sim.weights();
        let anon_attrs = &self.sim.anon_uda().attributes[u];
        let u_len = anon_attrs.len() as u64;
        let u_wsum = anon_attrs.weight_sum();
        let hot: &HotAttrs = &self.hot;
        let words = hot.words;

        // Split u's attributes: hot ones fill the dense slot table and
        // bitmask, rare ones probe their posting-list suffix, accumulating
        // intersection counts and min-weight sums per touched pair.
        let from32 = u32::try_from(self.from).expect("watermark overflows u32");
        let mut u_hot_wsum = 0u64;
        for &(attr, x) in anon_attrs.as_weights() {
            if let Some(slot) = hot.slot(attr as usize) {
                scratch.u_hot[slot] = x;
                scratch.u_mask[slot / 64] |= 1u64 << (slot % 64);
                scratch.u_slots.push(slot as u32);
                u_hot_wsum += u64::from(x);
                continue;
            }
            let plist = self.index.posting(attr as usize).suffix(from32);
            for (&user, &weight) in plist.users.iter().zip(plist.weights) {
                let lv = user as usize - self.from;
                if scratch.inter[lv] == 0 {
                    scratch.touched.push(lv as u32);
                }
                scratch.inter[lv] += 1;
                scratch.min_sum[lv] += u64::from(x.min(weight));
            }
        }

        let mut tally = PairTally::default();
        // The pre-merge weighted-term bound is only an *upper* bound on
        // the score when its weight is non-negative.
        let c3_bounds_above = w.c3 >= 0.0;

        for &v32 in self.index.present_from(self.from) {
            let lv = v32 as usize - self.from;
            let v = v32 as usize;
            debug_assert!(
                self.present_flags[v] != 0,
                "absent users have no posts, hence no postings"
            );
            // Exact intersection: rare accumulator + hot popcount.
            let inter_hot: u32 = if words == 0 {
                0
            } else {
                let row = &hot.masks[lv * words..lv * words + words];
                scratch.u_mask.iter().zip(row).map(|(&a, &b)| (a & b).count_ones()).sum()
            };
            let inter = u64::from(scratch.inter[lv]) + u64::from(inter_hot);
            let floor = if self.prune { top.floor() } else { None };
            let mut ceiling = None;

            let attr_term = if inter == 0 {
                // Zero-shared pair: the attribute term is exactly 0 (both
                // Jaccard conventions give 0.0 on an empty intersection),
                // matching the dense merge bit for bit with nothing to
                // merge.
                w.c3 * 0.0
            } else {
                let union = u_len + u64::from(self.attr_counts[v]) - inter;
                let rare_min = scratch.min_sum[lv];
                // Pre-merge screen: the Jaccard term is already exact, and
                // the hot merge can add at most `min(u hot mass, v hot
                // mass)` to the min-weight sum. Larger min-sum ⇒ larger
                // ratio (monotone f64 division with a shrinking
                // denominator), so this bounds the weighted term from
                // above and the O(hot row) merge is paid by surviving
                // pairs only.
                if let (Some(floor), true) = (floor, c3_bounds_above) {
                    let min_ub = rare_min + u_hot_wsum.min(hot.hot_wsums[lv]);
                    let wunion_lb = u_wsum + self.weight_sums[v] - min_ub;
                    let s_attr_ub = inter as f64 / union as f64 + min_ub as f64 / wunion_lb as f64;
                    if self.below_floor(u, lv, w.c3 * s_attr_ub, floor, &mut ceiling) {
                        tally.pruned += 1;
                        continue;
                    }
                }
                // Exact hot merge: O(|v's hot row|) against u's dense
                // table. Slots u lacks hold weight 0 and add `min(0, l_v)
                // = 0`, so the loop needs no branch.
                let row = hot.starts[lv]..hot.starts[lv + 1];
                let min_sum = rare_min
                    + hot.slots[row.clone()]
                        .iter()
                        .zip(&hot.weights[row])
                        .map(|(&slot, &wv)| u64::from(scratch.u_hot[slot as usize].min(wv)))
                        .sum::<u64>();
                let wunion = u_wsum + self.weight_sums[v] - min_sum;
                // Same integers, same divisions, same addition order as
                // `UserAttributes::jaccard + weighted_jaccard`.
                w.c3 * (inter as f64 / union as f64 + min_sum as f64 / wunion as f64)
            };

            if let Some(floor) = floor {
                if self.below_floor(u, lv, attr_term, floor, &mut ceiling) {
                    tally.merged += 1;
                    tally.pruned += 1;
                    continue;
                }
            }
            let s = (w.c1 * self.sim.degree_similarity(u, lv)
                + w.c2 * self.sim.distance_similarity(u, lv))
                + attr_term;
            top.insert(v, s);
            bounds.observe(s);
            tally.merged += 1;
            tally.scored += 1;
        }

        // Sparse reset: clear only the touched slots.
        for &lv32 in &scratch.touched {
            let lv = lv32 as usize;
            scratch.inter[lv] = 0;
            scratch.min_sum[lv] = 0;
        }
        scratch.touched.clear();
        for &slot in &scratch.u_slots {
            let slot = slot as usize;
            scratch.u_hot[slot] = 0;
            scratch.u_mask[slot / 64] = 0;
        }
        scratch.u_slots.clear();
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::SimilarityWeights;
    use dehealth_corpus::{Forum, Post};

    fn uda(posts: Vec<Post>, n_users: usize, n_threads: usize) -> UdaGraph {
        UdaGraph::build(&Forum::from_posts(n_users, n_threads, posts))
    }

    fn p(author: usize, thread: usize, text: &str) -> Post {
        Post { author, thread, text: text.into() }
    }

    fn texts() -> Vec<&'static str> {
        vec![
            "I realy hate this migrane pain!",
            "rest helps a lot, the doctor said so.",
            "20 mg twice a day & water",
            "she was SO tired yesterday?!",
            "ok",
            "my doctor prescribed rest and the pain went away after 3 days",
        ]
    }

    /// A pair of UDA graphs with absent users on the auxiliary side.
    fn sides() -> (UdaGraph, UdaGraph) {
        let anon_posts: Vec<Post> =
            texts().iter().enumerate().map(|(i, t)| p(i % 4, i % 3, t)).collect();
        let mut aux_posts: Vec<Post> =
            texts().iter().enumerate().map(|(i, t)| p(i % 5, i % 3, t)).collect();
        aux_posts.push(p(6, 2, "extra words entirely"));
        // Users 5 of 7 has no posts: absent.
        (uda(anon_posts, 4, 3), uda(aux_posts, 7, 3))
    }

    fn dense_topk(sim: &SimilarityEngine<'_>, u: usize, k: usize) -> (Vec<(usize, f64)>, usize) {
        let mut top = BoundedTopK::new(k);
        let mut n = 0;
        for (v, s) in sim.scores_for(u) {
            top.insert(v, s);
            n += 1;
        }
        (top.into_sorted_entries(), n)
    }

    #[test]
    fn index_registers_all_users_and_skips_absent_postings() {
        let (_, aux) = sides();
        let index = AttributeIndex::from_uda(&aux);
        assert_eq!(index.n_users(), 7);
        assert_eq!(index.present_from(0).len(), 6);
        assert!(!index.present_from(0).contains(&5));
        assert!(index.n_postings() > 0);
        // Posting lists are ascending by user id.
        for attr in 0..2048 {
            let plist = index.posting(attr);
            assert!(plist.users.windows(2).all(|w| w[0] < w[1]));
            assert!(plist.iter().all(|p| p.user != 5), "absent user in posting {attr}");
        }
    }

    #[test]
    fn codec_roundtrips_across_backings_and_storages() {
        use dehealth_corpus::snapshot::{SectionTag, SnapshotReader, SnapshotWriter};
        use dehealth_mapped::ByteSource;
        const TAG: SectionTag = SectionTag(*b"AIDX");

        let (_, aux) = sides();
        let dynamic = AttributeIndex::from_uda(&aux); // Dynamic storage
        let mut w = SnapshotWriter::new();
        dynamic.encode(w.section(TAG));
        let bytes = w.finish();

        // Owned decode (no backing).
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(TAG).unwrap();
        let owned = AttributeIndex::decode(&mut s, None).unwrap();
        s.expect_end().unwrap();
        assert!(!owned.is_borrowed());

        // Zero-copy decode over an aligned backing.
        let backing = ByteSource::from_vec(bytes.clone());
        let r = SnapshotReader::parse(backing.bytes()).unwrap();
        let mut s = r.section(TAG).unwrap();
        let mapped = AttributeIndex::decode(&mut s, Some(&backing)).unwrap();
        s.expect_end().unwrap();
        assert!(mapped.is_borrowed());
        let (resident, borrowed) = mapped.arena_bytes();
        assert_eq!(resident, 0, "a mapped index keeps nothing resident");
        assert!(borrowed > 0);

        // All three agree structurally and re-encode identically (CSR
        // storage encodes the same bytes the Dynamic storage wrote).
        for decoded in [&owned, &mapped] {
            assert_eq!(decoded.n_users(), dynamic.n_users());
            assert_eq!(decoded.n_postings(), dynamic.n_postings());
            assert_eq!(decoded.present_from(0), dynamic.present_from(0));
            for attr in 0..dynamic.n_attrs() {
                let (a, b) = (decoded.posting(attr), dynamic.posting(attr));
                assert_eq!(a.users, b.users);
                assert_eq!(a.weights, b.weights);
            }
            let mut w = SnapshotWriter::new();
            decoded.encode(w.section(TAG));
            assert_eq!(w.finish(), bytes);
        }
    }

    #[test]
    fn push_user_promotes_mapped_storage_copy_on_write() {
        use dehealth_corpus::snapshot::{SectionTag, SnapshotReader, SnapshotWriter};
        use dehealth_mapped::ByteSource;
        const TAG: SectionTag = SectionTag(*b"AIDX");

        let (_, aux) = sides();
        let mut reference = AttributeIndex::from_uda(&aux);
        let mut w = SnapshotWriter::new();
        reference.encode(w.section(TAG));
        let backing = ByteSource::from_vec(w.finish());
        let r = SnapshotReader::parse(backing.bytes()).unwrap();
        let mut mapped =
            AttributeIndex::decode(&mut r.section(TAG).unwrap(), Some(&backing)).unwrap();
        assert!(mapped.is_borrowed());

        // Appending the same user to both must agree — and detach the
        // mapped index from its backing.
        let attrs = dehealth_stylometry::UserAttributes::from_weights(vec![(2, 5), (9, 1)]);
        reference.push_user(&attrs, true);
        mapped.push_user(&attrs, true);
        assert!(!mapped.is_borrowed());
        let mut wa = SnapshotWriter::new();
        reference.encode(wa.section(TAG));
        let mut wb = SnapshotWriter::new();
        mapped.encode(wb.section(TAG));
        assert_eq!(wa.finish(), wb.finish());
    }

    #[test]
    fn decode_rejects_corrupt_structures() {
        use dehealth_corpus::snapshot::{SectionTag, SnapshotReader, SnapshotWriter};
        const TAG: SectionTag = SectionTag(*b"AIDX");
        let (_, aux) = sides();
        let index = AttributeIndex::from_uda(&aux);

        // Decode a tampered copy and expect a typed error (patch the
        // present-count to disagree with the flags).
        let mut w = SnapshotWriter::new();
        index.encode(w.section(TAG));
        let bytes = w.finish();
        let parse = |bytes: &[u8]| -> Result<AttributeIndex, SnapshotError> {
            let r = SnapshotReader::parse_with(
                bytes,
                &dehealth_corpus::snapshot::ParseOptions::trusting(),
            )?;
            let mut s = r.section(TAG)?;
            AttributeIndex::decode(&mut s, None)
        };
        assert!(parse(&bytes).is_ok());
        // n_present lives at payload offset 24 (fourth u64) = file 32+24.
        let mut bad = bytes.clone();
        bad[32 + 24..32 + 32].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            parse(&bad),
            Err(SnapshotError::Malformed { .. } | SnapshotError::Truncated { .. })
        ));
        // An absurd posting count must be caught before any allocation.
        let mut bad = bytes.clone();
        bad[32 + 16..32 + 24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            parse(&bad),
            Err(SnapshotError::Malformed { .. } | SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn indexed_matches_dense_bit_for_bit_without_pruning() {
        let (anon, aux) = sides();
        for weights in [
            SimilarityWeights::default(),
            SimilarityWeights { c1: 0.3, c2: 0.3, c3: 0.4 },
            SimilarityWeights { c1: 0.0, c2: 0.0, c3: 1.0 },
        ] {
            let sim = SimilarityEngine::new(&anon, &aux, weights, 3);
            let index = sim.attribute_index();
            let scorer = IndexedScorer::new(&sim, &index, 0, false);
            let mut scratch = scorer.scratch();
            for u in 0..sim.n_anon() {
                let mut top = BoundedTopK::new(4);
                let mut bounds = ScoreBounds::new();
                let tally = scorer.score_user(u, &mut scratch, &mut top, &mut bounds);
                let (dense, n_present) = dense_topk(&sim, u, 4);
                let sparse = top.into_sorted_entries();
                assert_eq!(tally.scored, n_present as u64);
                assert_eq!(tally.merged, tally.scored);
                assert_eq!(tally.pruned, 0);
                assert_eq!(sparse.len(), dense.len());
                for (a, b) in sparse.iter().zip(&dense) {
                    assert_eq!(a.0, b.0, "candidate diverges for u={u}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "score bits diverge for u={u}");
                }
            }
        }
    }

    #[test]
    fn pruning_skips_pairs_but_keeps_the_same_candidates() {
        let (anon, aux) = sides();
        let sim = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 3);
        let index = sim.attribute_index();
        let pruned_scorer = IndexedScorer::new(&sim, &index, 0, true);
        assert!(pruned_scorer.prunes());
        let mut scratch = pruned_scorer.scratch();
        let mut total = PairTally::default();
        for u in 0..sim.n_anon() {
            let mut top = BoundedTopK::new(2);
            let mut bounds = ScoreBounds::new();
            let tally = pruned_scorer.score_user(u, &mut scratch, &mut top, &mut bounds);
            total += tally;
            let (dense, n_present) = dense_topk(&sim, u, 2);
            assert_eq!(tally.scored + tally.pruned, n_present as u64, "every pair accounted");
            assert!(tally.merged >= tally.scored, "every scored pair has its exact term");
            assert!(
                tally.merged - tally.scored <= tally.pruned,
                "merged pairs end scored or pruned"
            );
            let sparse = top.into_sorted_entries();
            for (a, b) in sparse.iter().zip(&dense) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
        assert!(total.scored > 0);
    }

    #[test]
    fn zero_k_heap_prunes_every_pair() {
        let (anon, aux) = sides();
        let sim = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 3);
        let index = sim.attribute_index();
        let scorer = IndexedScorer::new(&sim, &index, 0, true);
        let mut scratch = scorer.scratch();
        let mut top = BoundedTopK::new(0);
        let mut bounds = ScoreBounds::new();
        let tally = scorer.score_user(0, &mut scratch, &mut top, &mut bounds);
        assert_eq!(tally.scored, 0);
        assert!(tally.pruned > 0);
        assert!(bounds.is_empty());
    }

    #[test]
    fn watermark_scores_only_the_posting_suffix() {
        // Global index over 2 + aux users; the engine sees only the tail.
        let (anon, aux) = sides();
        let mut index = AttributeIndex::new();
        index.push_user(&dehealth_stylometry::UserAttributes::from_weights(vec![(1, 9)]), true);
        index.push_user(&dehealth_stylometry::UserAttributes::new(), false);
        let from = index.n_users();
        index.append_uda(&aux);
        let sim = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 3);
        let scorer = IndexedScorer::new(&sim, &index, from, false);
        let mut scratch = scorer.scratch();
        for u in 0..sim.n_anon() {
            let mut top = BoundedTopK::new(10);
            let mut bounds = ScoreBounds::new();
            scorer.score_user(u, &mut scratch, &mut top, &mut bounds);
            let entries = top.into_sorted_entries();
            // Candidate ids live in the global index space, offset by the
            // watermark, and never include pre-watermark users.
            assert!(entries.iter().all(|&(v, _)| v >= from));
            let (dense, _) = dense_topk(&sim, u, 10);
            let expect: Vec<(usize, f64)> = dense.iter().map(|&(v, s)| (v + from, s)).collect();
            assert_eq!(entries.len(), expect.len());
            for (a, b) in entries.iter().zip(&expect) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }

    #[test]
    fn scratch_resets_between_users() {
        let (anon, aux) = sides();
        let sim = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 3);
        let index = sim.attribute_index();
        let scorer = IndexedScorer::new(&sim, &index, 0, false);
        let mut shared = scorer.scratch();
        // Scoring u = 0 twice with the same scratch must give identical
        // results (a dirty scratch would double the accumulators).
        let run = |scratch: &mut IndexScratch| {
            let mut top = BoundedTopK::new(5);
            let mut bounds = ScoreBounds::new();
            scorer.score_user(0, scratch, &mut top, &mut bounds);
            top.into_sorted_entries()
        };
        let first = run(&mut shared);
        let second = run(&mut shared);
        assert_eq!(first, second);
    }

    #[test]
    fn shared_hot_tables_score_like_fresh_ones() {
        // Enough present users that some attributes are hot (lists of at
        // least 16 users), so the shared tables are really exercised.
        let posts: Vec<Post> = (0..40).map(|u| p(u, u % 5, texts()[u % 6])).collect();
        let aux = uda(posts, 40, 5);
        let (anon, _) = sides();
        let sim = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 3);
        let index = sim.attribute_index();
        let hot = AuxHotAttrs::build(&index);
        let fresh = IndexedScorer::new(&sim, &index, 0, true);
        assert!(fresh.n_hot_attrs() > 0, "the corpus has no hot attributes");
        let shared = IndexedScorer::with_hot_attrs(&sim, &index, hot, true);
        assert_eq!(shared.n_hot_attrs(), fresh.n_hot_attrs());
        let (mut a, mut b) = (fresh.scratch(), shared.scratch());
        for u in 0..sim.n_anon() {
            let mut tops = [BoundedTopK::new(3), BoundedTopK::new(3)];
            let mut bounds = [ScoreBounds::new(), ScoreBounds::new()];
            let ta = fresh.score_user(u, &mut a, &mut tops[0], &mut bounds[0]);
            let tb = shared.score_user(u, &mut b, &mut tops[1], &mut bounds[1]);
            assert_eq!(ta, tb);
            let [x, y] = tops.map(BoundedTopK::into_sorted_entries);
            assert_eq!(x.len(), y.len(), "u={u}");
            for (a, b) in x.iter().zip(&y) {
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()), "u={u}");
            }
        }
    }

    /// The hot tables agree field for field.
    fn assert_same_hot(got: &AuxHotAttrs, want: &AuxHotAttrs, what: &str) {
        assert_eq!((got.n_users, got.n_attrs), (want.n_users, want.n_attrs), "{what}: sizes");
        assert_eq!(*got.hot, *want.hot, "{what}: tables");
    }

    /// Append a user holding `attrs` with weights salted by `salt`; an
    /// empty set is an absent user.
    fn push(index: &mut AttributeIndex, attrs: &[u32], salt: u32) {
        let mut ids = attrs.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let weights = ids.iter().map(|&a| (a, 1 + (a + salt) % 4)).collect();
        index.push_user(&UserAttributes::from_weights(weights), !ids.is_empty());
    }

    /// 96 users, six of them absent, so the hot threshold is 16: attributes
    /// 0, 1 and 2 are hot (90, 48 and 24 users), attribute 3 is two users
    /// short of hot (14), and attributes 4..40 are sparse.
    fn hot_base() -> AttributeIndex {
        let mut index = AttributeIndex::new();
        for u in 0..96u32 {
            if u % 16 == 15 {
                push(&mut index, &[], u);
                continue;
            }
            let mut attrs = vec![0, 4 + u % 36, 4 + (u * 7) % 36];
            if u % 2 == 0 {
                attrs.push(1);
            }
            if u % 4 == 0 {
                attrs.push(2);
            }
            if u < 14 {
                attrs.push(3);
            }
            push(&mut index, &attrs, u);
        }
        index
    }

    #[test]
    fn hot_extension_equals_a_fresh_build() {
        let mut index = hot_base();
        let mut hot = AuxHotAttrs::build(&index);
        assert_eq!(hot.hot.attrs, [0, 1, 2]);
        let cohorts: [&[&[u32]]; 4] = [
            // Attribute 3 gains a user and stays rare; 2999..=3001 are new
            // to the index; two declared users are absent.
            &[&[0, 3, 3000, 3001], &[1, 2, 5, 2999], &[], &[0], &[]],
            &[],
            &[&[0, 1, 40], &[0, 1, 41], &[0, 1, 42], &[2, 4000], &[0, 2, 4, 5, 6], &[1]],
            &[&[], &[]],
        ];
        for (i, cohort) in cohorts.iter().enumerate() {
            for (j, attrs) in cohort.iter().enumerate() {
                push(&mut index, attrs, (i * 10 + j) as u32);
            }
            assert!(hot.extend(&index), "cohort {i} moved the hot set");
            assert_same_hot(&hot, &AuxHotAttrs::build(&index), &format!("cohort {i}"));
        }
        assert_eq!(index.n_attrs(), 4001);
    }

    #[test]
    fn hot_extension_refuses_a_cohort_that_moves_the_hot_set() {
        // Attribute 3 reaches the threshold: the hot set grows.
        let mut index = hot_base();
        let mut hot = AuxHotAttrs::build(&index);
        push(&mut index, &[0, 3], 1);
        assert!(hot.extend(&index));
        push(&mut index, &[3], 2);
        let before = hot.clone();
        assert!(!hot.extend(&index));
        assert_same_hot(&hot, &before, "refused cohort");

        // The threshold rises past a list: 200 present users put it at 25,
        // where attribute 1's 25 users are hot; eight more put it at 26.
        let mut index = AttributeIndex::new();
        for u in 0..200u32 {
            let attrs: &[u32] = if u < 25 { &[0, 1] } else { &[0] };
            push(&mut index, attrs, u);
        }
        let mut hot = AuxHotAttrs::build(&index);
        assert_eq!(hot.hot.attrs, [0, 1]);
        for u in 0..7 {
            push(&mut index, &[0], u);
        }
        assert!(hot.extend(&index), "207 present users keep the threshold at 25");
        push(&mut index, &[0], 7);
        assert!(!hot.extend(&index));
    }

    #[test]
    fn hot_extension_grows_unshared_tables_in_place_and_copies_shared_ones() {
        let mut index = hot_base();
        let mut hot = AuxHotAttrs::build(&index);
        let shared = hot.clone();
        push(&mut index, &[0, 1, 77], 5);
        assert!(hot.extend(&index));
        assert!(!Arc::ptr_eq(&hot.hot, &shared.hot), "shared tables are copied");
        assert_same_hot(&shared, &AuxHotAttrs::build(&hot_base()), "the other handle");
        drop(shared);
        let at = Arc::as_ptr(&hot.hot);
        push(&mut index, &[0, 2], 6);
        assert!(hot.extend(&index));
        assert_eq!(Arc::as_ptr(&hot.hot), at, "unshared tables grow in place");
        assert_same_hot(&hot, &AuxHotAttrs::build(&index), "in place");
    }

    #[test]
    #[should_panic(expected = "another attribute index")]
    fn stale_hot_tables_are_rejected() {
        let (anon, aux) = sides();
        let sim = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 3);
        let mut index = sim.attribute_index();
        let stale = AuxHotAttrs::build(&index);
        index.push_user(&dehealth_stylometry::UserAttributes::new(), false);
        let _ = IndexedScorer::with_hot_attrs(&sim, &index, stale, false);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn mismatched_watermark_is_rejected() {
        let (anon, aux) = sides();
        let sim = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 3);
        let index = sim.attribute_index();
        let _ = IndexedScorer::new(&sim, &index, 1, false);
    }
}
