//! The standing auxiliary corpus: built once, persisted as a snapshot,
//! shared read-only by every attack.
//!
//! A [`PreparedCorpus`] bundles everything [`Engine::run_prepared`] needs
//! about the auxiliary side of the attack:
//!
//! - the [`Forum`] (posts with author/thread structure),
//! - the per-post stylometric [`FeatureVector`]s — the product of the
//!   attack's single most expensive preprocessing step,
//! - the [`UdaGraph`] (correlation graph, attributes, profiles),
//! - the [`AttributeIndex`] behind the inverted-index Top-K scorer,
//! - the refined-DA [`RefinedContext`] feature arena,
//! - in memory only, the generation's [`AuxiliaryCache`]: the auxiliary
//!   similarity structure and the index's hot tables, built by the first
//!   attack, read by every later one, and extended by
//!   [`PreparedCorpus::append_users`] (or dropped, when the new users
//!   move the landmarks or the hot set).
//!
//! [`PreparedCorpus::save_streaming`] writes all of it into one snapshot file
//! (container format: [`dehealth_corpus::snapshot`], 8-byte-aligned
//! sections; byte-level layout: ARCHITECTURE.md), and
//! [`PreparedCorpus::load`] restores it without touching any post text —
//! feature extraction is skipped entirely, which is what makes a daemon
//! restart cheaper than a cold corpus build: at 600 users
//! `BENCH_service.json` records the owned load at 13.0% of the cold
//! build (23 ms against 180 ms). Six runs on the same 2-core box ranged
//! from 13.0% to 27.0%: one cold load is page-fault bound, and one of
//! the six missed the benchmark's 25% budget.
//! Round-trips are bit-exact: a loaded corpus re-saves to the identical
//! byte stream (`tests/snapshot_roundtrip.rs`).
//!
//! ## Load modes
//!
//! [`PreparedCorpus::load_with`] takes a [`LoadMode`]:
//!
//! - [`LoadMode::Owned`] — the eager path: map the file, verify every
//!   XXH64 checksum on a helper thread while this thread decodes, copy
//!   every section into owned structures (arenas in bulk), and drop the
//!   mapping.
//! - [`LoadMode::Mapped`] — the zero-copy path: `mmap` the file
//!   ([`dehealth_mapped`]), decode the forum/features sections (owned —
//!   they are pointer-rich structures), and *borrow* the attribute-index
//!   and refined-context arenas straight out of the mapping through
//!   [`ArenaView`](dehealth_core::arena::ArenaView)s. The mapping is
//!   kept alive by the views themselves (`Arc`-shared), so there is no
//!   self-referential state; dropping the corpus unmaps the file. The
//!   checksum sweep is skipped for speed — every structural invariant is
//!   still re-validated, the index and context views on a helper thread
//!   while this thread decodes the forum and features — and reload time
//!   no longer pays for the largest sections at all.
//!
//! Both modes read through a mapping, so both rely on the snapshot
//! contract: a snapshot is replaced by `rename`, never truncated in place
//! while it is loaded ([`PreparedCorpus::save_streaming`] publishes that
//! way).
//!
//! Wire attacks against a mapped corpus are bit-identical to the owned
//! path (`tests/service_parity.rs`); mutation ([`PreparedCorpus::
//! append_users`]) promotes borrowed arenas to owned copy-on-write.
//!
//! ## Ingests
//!
//! An ingest costs what its chunk costs, not what the corpus costs.
//! [`PreparedCorpus::append_users`] is two steps: `PreparedCohort::new`
//! extracts the chunk's features and builds the chunk's own UDA graph,
//! and `PreparedCorpus::append_cohort` appends the chunk's forum rows,
//! features, UDA graph, index postings and refined-context rows in
//! place, and extends the filled [`AuxiliaryCache`] entries by the
//! chunk's rows. Chunks are disjoint cohorts with their own threads, so
//! nothing already in the corpus changes. The daemon runs the first step
//! before it takes any lock and the second under the slot's write lock.

use std::path::Path;
use std::time::Instant;

use dehealth_core::index::AttributeIndex;
use dehealth_core::refined::{ClassifierKind, RefinedContext, Side, N_STRUCT};
use dehealth_core::snapshot::{decode_features, encode_features};
use dehealth_core::uda::{extract_post_features, UdaGraph};
use dehealth_corpus::snapshot::{
    decode_forum, encode_forum, ParseOptions, SectionTag, SnapshotError, SnapshotReader,
    SnapshotStreamer, SnapshotWriter,
};
use dehealth_corpus::Forum;
use dehealth_engine::{AuxiliaryCache, Engine, PreparedAuxiliary};
use dehealth_mapped::{ByteSource, SharedBytes};
use dehealth_stylometry::{FeatureVector, M};

/// Section holding the auxiliary [`Forum`].
pub const SECTION_FORUM: SectionTag = SectionTag(*b"FORM");
/// Section holding the per-post feature vectors.
pub const SECTION_FEATURES: SectionTag = SectionTag(*b"FEAT");
/// Section holding the [`AttributeIndex`].
pub const SECTION_INDEX: SectionTag = SectionTag(*b"AIDX");
/// Section holding the refined-DA [`RefinedContext`].
pub const SECTION_CONTEXT: SectionTag = SectionTag(*b"RCTX");

/// How [`PreparedCorpus::load_with`] materializes a snapshot (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Map, verify every checksum, and copy everything into owned
    /// structures; the mapping is gone when the load returns.
    Owned,
    /// Memory-map the file and borrow the index/context arenas in place.
    #[default]
    Mapped,
}

/// Where a loaded corpus's arena bytes live — the number the `--mmap`
/// CLI flag and the snapshot-load benchmark report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Arena bytes held on the heap (owned index/context storage).
    pub resident_arena_bytes: usize,
    /// Arena bytes borrowed from the snapshot mapping (not resident;
    /// backed by reclaimable, cross-process-shareable page-cache pages).
    pub borrowed_arena_bytes: usize,
}

/// A fully prepared auxiliary corpus (see the [module docs](self)).
///
/// The derived structures are kept consistent with `forum`/`features` by
/// construction: they are only ever produced by [`PreparedCorpus::build`],
/// [`PreparedCorpus::append_users`] or a validated
/// [`PreparedCorpus::load`].
#[derive(Debug, Clone)]
pub struct PreparedCorpus {
    forum: Forum,
    features: Vec<FeatureVector>,
    uda: UdaGraph,
    index: AttributeIndex,
    context: RefinedContext,
    classifier: ClassifierKind,
    /// This generation's auxiliary structure and hot tables, built by the
    /// first attack and extended (or dropped) by [`Self::append_users`];
    /// never saved.
    cache: AuxiliaryCache,
}

/// A chunk of new auxiliary users, prepared for
/// [`PreparedCorpus::append_cohort`]: the chunk with its per-post
/// features and its own UDA graph. All three depend on the chunk alone,
/// so a server prepares them before it takes any lock on the corpus.
#[derive(Debug)]
pub(crate) struct PreparedCohort {
    forum: Forum,
    features: Vec<FeatureVector>,
    uda: UdaGraph,
}

impl PreparedCohort {
    /// Extract the chunk's features and build its UDA graph (chunk-local
    /// ids; the append offsets them).
    #[must_use]
    pub(crate) fn new(chunk: Forum) -> Self {
        let features = extract_post_features(&chunk);
        let uda = UdaGraph::build_with_features(&chunk, &features);
        Self { forum: chunk, features, uda }
    }
}

/// Decode the forum and feature sections and check that they agree.
fn decode_head(reader: &SnapshotReader<'_>) -> Result<(Forum, Vec<FeatureVector>), SnapshotError> {
    let mut s = reader.section(SECTION_FORUM)?;
    let forum = decode_forum(&mut s)?;
    s.expect_end()?;

    let mut s = reader.section(SECTION_FEATURES)?;
    let features = decode_features(&mut s)?;
    s.expect_end()?;
    if features.len() != forum.posts.len() {
        return Err(SnapshotError::Malformed { context: "features/posts count mismatch" });
    }
    Ok((forum, features))
}

/// Decode the index section, borrowing `backing` when given.
fn decode_index(
    reader: &SnapshotReader<'_>,
    backing: Option<&SharedBytes>,
) -> Result<AttributeIndex, SnapshotError> {
    let mut s = reader.section(SECTION_INDEX)?;
    let index = AttributeIndex::decode(&mut s, backing)?;
    s.expect_end()?;
    Ok(index)
}

/// Decode the context section, borrowing `backing` when given.
fn decode_context(
    reader: &SnapshotReader<'_>,
    backing: Option<&SharedBytes>,
) -> Result<RefinedContext, SnapshotError> {
    let mut s = reader.section(SECTION_CONTEXT)?;
    let context = RefinedContext::decode(&mut s, backing)?;
    s.expect_end()?;
    Ok(context)
}

impl PreparedCorpus {
    /// Prepare `forum` from scratch: extract every post's features (the
    /// expensive step a snapshot reload skips), then derive the UDA
    /// graph, attribute index, and the refined-DA context for
    /// `classifier`'s representation.
    #[must_use]
    pub fn build(forum: Forum, classifier: ClassifierKind) -> Self {
        let features = extract_post_features(&forum);
        Self::from_features(forum, features, classifier)
    }

    /// Derive the attack structures from already-extracted features
    /// (shared by [`Self::build`], [`Self::load`] re-validation paths and
    /// tests).
    ///
    /// # Panics
    /// Panics if `features` is not parallel to `forum.posts`.
    #[must_use]
    pub fn from_features(
        forum: Forum,
        features: Vec<FeatureVector>,
        classifier: ClassifierKind,
    ) -> Self {
        assert_eq!(features.len(), forum.posts.len(), "features/posts mismatch");
        let uda = UdaGraph::build_with_features(&forum, &features);
        Self::from_cohort(PreparedCohort { forum, features, uda }, classifier)
    }

    /// A corpus holding one prepared cohort alone: what an ingest into an
    /// empty server starts from. Equal to [`Self::build`] on the cohort's
    /// chunk.
    #[must_use]
    pub(crate) fn from_cohort(cohort: PreparedCohort, classifier: ClassifierKind) -> Self {
        let PreparedCohort { forum, features, uda } = cohort;
        let index = AttributeIndex::from_uda(&uda);
        let context = RefinedContext::build(
            &Side { forum: &forum, uda: &uda, post_features: &features },
            classifier,
        );
        Self { forum, features, uda, index, context, classifier, cache: AuxiliaryCache::default() }
    }

    /// The auxiliary forum.
    #[must_use]
    pub fn forum(&self) -> &Forum {
        &self.forum
    }

    /// Per-post feature vectors, parallel to the forum's posts.
    #[must_use]
    pub fn features(&self) -> &[FeatureVector] {
        &self.features
    }

    /// The forum's UDA graph.
    #[must_use]
    pub fn uda(&self) -> &UdaGraph {
        &self.uda
    }

    /// The attribute index over the forum's users.
    #[must_use]
    pub fn index(&self) -> &AttributeIndex {
        &self.index
    }

    /// The refined-DA feature context.
    #[must_use]
    pub fn context(&self) -> &RefinedContext {
        &self.context
    }

    /// The classifier whose representation [`Self::context`] holds.
    #[must_use]
    pub fn classifier(&self) -> ClassifierKind {
        self.classifier
    }

    /// Number of auxiliary users (present and absent).
    #[must_use]
    pub fn n_users(&self) -> usize {
        self.forum.n_users
    }

    /// Number of auxiliary posts.
    #[must_use]
    pub fn n_posts(&self) -> usize {
        self.forum.posts.len()
    }

    /// The borrowed view [`Engine::run_prepared`] consumes.
    #[must_use]
    pub fn prepared(&self) -> PreparedAuxiliary<'_> {
        PreparedAuxiliary {
            forum: &self.forum,
            features: &self.features,
            uda: &self.uda,
            index: Some(&self.index),
            context: Some(&self.context),
            cache: &self.cache,
        }
    }

    /// Ingest a chunk of **new** auxiliary users: chunk-local user/thread
    /// ids are offset by the totals already in the corpus (chunks are
    /// disjoint user cohorts with their own threads), so the grown corpus
    /// equals one built over the union numbered that way, and so does an
    /// attack on it. This is `PreparedCohort::new` (the chunk's features
    /// and its own UDA graph) followed by an in-place append of the
    /// chunk's rows; its cost grows with the chunk, not with the corpus.
    pub fn append_users(&mut self, chunk: &Forum) {
        self.append_cohort(PreparedCohort::new(chunk.clone()));
    }

    /// Append a prepared cohort in place. The forum rows, features and
    /// UDA graph are appended, and so are the index postings and the
    /// refined-context rows. Under the disjoint-cohort convention no edge
    /// joins old and new users, so every earlier user's attributes,
    /// degrees, profile and post count stay as they were, and appending
    /// the cohort's rows is bit-identical to a fresh union build (asserted
    /// by `append_matches_fresh_build_over_union`), the invariant the
    /// daemon's parity guarantee rests on.
    ///
    /// On a [`LoadMode::Mapped`] corpus this is where copy-on-write
    /// happens: the borrowed arenas are promoted to owned storage before
    /// the first new row lands, and the corpus detaches from its mapping.
    ///
    /// The [`AuxiliaryCache`] comes along ([`AuxiliaryCache::extend`]):
    /// each filled entry grows by the cohort's rows and then equals a
    /// fresh build over the union, unless a cohort user became a landmark
    /// or the cohort moved the hot set, in which case the entry is dropped
    /// and the next attack rebuilds it. Extension adds the cohort's rows
    /// plus one landmark selection and one pass over the attribute ids; it
    /// copies an entry only while a clone of this corpus shares it.
    pub(crate) fn append_cohort(&mut self, cohort: PreparedCohort) {
        let PreparedCohort { forum, features, uda } = cohort;
        let user_offset = self.forum.n_users;
        let post_offset = self.forum.posts.len();
        self.forum.append(forum);
        self.features.extend(features);
        self.uda.append(uda);
        self.index.append_uda_suffix(&self.uda, user_offset);
        self.context.append_rows(
            &Side { forum: &self.forum, uda: &self.uda, post_features: &self.features },
            post_offset,
        );
        self.cache.extend(&self.uda, &self.index);
    }

    /// Serialize into snapshot bytes (sections: forum, features, index,
    /// context — see ARCHITECTURE.md for the exact layout).
    #[must_use]
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        encode_forum(&self.forum, w.section(SECTION_FORUM));
        encode_features(&self.features, w.section(SECTION_FEATURES));
        self.index.encode(w.section(SECTION_INDEX));
        self.context.encode(w.section(SECTION_CONTEXT));
        w.finish()
    }

    /// Write the snapshot to `path` **atomically**: the bytes land in a
    /// temporary sibling file first and are `rename`d over the target.
    /// This is what makes overwriting a snapshot that a live daemon has
    /// memory-mapped safe — the daemon's mapping keeps the old inode
    /// alive untruncated, instead of faulting on in-place truncation.
    ///
    /// The save is **streamed**: each section's bytes go straight to the
    /// file as the codec produces them ([`SnapshotStreamer`]), so peak
    /// memory during a save stays at the corpus itself, with no extra
    /// copy of the serialized stream. At 100k auxiliary users that is the
    /// difference between a save that fits alongside the build and one
    /// that doubles peak RSS. The resulting file is bit-identical to
    /// [`Self::to_snapshot_bytes`] (`streamed_save_matches_materialized_save`).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_streaming(&self, path: &Path) -> Result<(), SnapshotError> {
        let mut w = SnapshotStreamer::create(path)?;
        w.section(SECTION_FORUM, |s| encode_forum(&self.forum, s))?;
        w.section(SECTION_FEATURES, |s| encode_features(&self.features, s))?;
        w.section(SECTION_INDEX, |s| self.index.encode(s))?;
        w.section(SECTION_CONTEXT, |s| self.context.encode(s))?;
        w.finish()
    }

    /// Restore a corpus from snapshot bytes, decoding everything into
    /// owned structures. The UDA graph is
    /// re-derived from the persisted forum and features (a dense
    /// aggregation — no text is re-analyzed); the index and context are
    /// decoded directly and cross-checked against the forum for
    /// consistency.
    ///
    /// Every checksum is verified on a scoped helper thread while this
    /// thread decodes from a trusting parse, and a verification error
    /// wins. So errors keep the order of a verify-then-decode load:
    /// structural and checksum errors in file order, before any decode
    /// error. Meanwhile the decoders see bytes whose checksums are not yet
    /// known, as the mapped load's always do; they never panic on any
    /// bytes (`byte_flips_through_the_trusting_decode_never_panic`).
    ///
    /// # Errors
    /// Any [`SnapshotError`]: bad magic, unsupported version, truncation,
    /// checksum mismatch, bad padding, missing sections, or cross-section
    /// inconsistency. Never panics on malformed input.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        std::thread::scope(|scope| {
            let verify = scope.spawn(|| SnapshotReader::parse(bytes).map(drop));
            let decoded = SnapshotReader::parse_with(bytes, &ParseOptions::trusting())
                .and_then(|reader| Self::decode_sections(&reader, None));
            verify.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
            decoded
        })
    }

    /// Decode every section of a parsed snapshot. With a `backing`
    /// (which must hold the same bytes the reader parsed), the index and
    /// context arenas become zero-copy views borrowing it, decoded on a
    /// scoped helper thread while this thread decodes the forum and
    /// features and derives the UDA graph. Without one they decode into
    /// owned storage on this thread, because the owned load's helper is
    /// verifying checksums. Either way errors are reported in section
    /// order.
    fn decode_sections(
        reader: &SnapshotReader<'_>,
        backing: Option<&SharedBytes>,
    ) -> Result<Self, SnapshotError> {
        let tail = || (decode_index(reader, backing), decode_context(reader, backing));
        std::thread::scope(|scope| {
            let helper = backing.is_some().then(|| scope.spawn(tail));
            let head = decode_head(reader).map(|(forum, features)| {
                let uda = UdaGraph::build_with_features(&forum, &features);
                (forum, features, uda)
            });
            let (index, context) = match helper {
                Some(helper) => {
                    helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }
                None => tail(),
            };
            let (forum, features, uda) = head?;
            Self::assemble(forum, features, uda, index, context)
        })
    }

    /// Cross-check the decoded sections against the forum and assemble
    /// the corpus. The index and context arrive as their decode results,
    /// so each error is reported in section order: an index error, then
    /// an index/forum mismatch, then a context error.
    fn assemble(
        forum: Forum,
        features: Vec<FeatureVector>,
        uda: UdaGraph,
        index: Result<AttributeIndex, SnapshotError>,
        context: Result<RefinedContext, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        let index = index?;
        if index.n_users() != forum.n_users {
            return Err(SnapshotError::Malformed { context: "index/forum user count mismatch" });
        }
        let context = context?;
        if context.n_posts() != forum.posts.len() {
            return Err(SnapshotError::Malformed { context: "context/forum post count mismatch" });
        }
        if context.dim() != M + N_STRUCT {
            return Err(SnapshotError::Malformed { context: "context dimension mismatch" });
        }
        let classifier =
            if context.is_sparse() { ClassifierKind::default() } else { ClassifierKind::Centroid };
        debug_assert!(context.matches_classifier(classifier));
        Ok(Self {
            forum,
            features,
            uda,
            index,
            context,
            classifier,
            cache: AuxiliaryCache::default(),
        })
    }

    /// Read and restore a snapshot file, eagerly and fully owned
    /// ([`LoadMode::Owned`]).
    ///
    /// # Errors
    /// Like [`Self::from_snapshot_bytes`], plus I/O errors.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        Self::load_with(path, LoadMode::Owned)
    }

    /// Read and restore a snapshot file in the requested [`LoadMode`].
    ///
    /// Both modes read the file through a mapping, so both rely on the
    /// snapshot contract: a snapshot is replaced by `rename` (as
    /// [`Self::save_streaming`] does) and never truncated in place while
    /// it is loaded.
    ///
    /// [`LoadMode::Owned`] verifies every checksum
    /// ([`Self::from_snapshot_bytes`]) and copies every section out of the
    /// mapping, which it drops before returning.
    /// [`LoadMode::Mapped`] maps the file, skips the checksum sweep
    /// (structural validation still runs in full), and borrows the
    /// index/context arenas from the mapping — the views keep the
    /// mapping alive, so the returned corpus is self-contained.
    ///
    /// # Errors
    /// Like [`Self::from_snapshot_bytes`], plus I/O errors.
    pub fn load_with(path: &Path, mode: LoadMode) -> Result<Self, SnapshotError> {
        match mode {
            LoadMode::Owned => {
                // Every arena is copied out, and the mapping is dropped on
                // return: the corpus borrows nothing.
                let backing = ByteSource::map(path)?;
                Self::from_snapshot_bytes(backing.bytes())
            }
            LoadMode::Mapped => {
                let backing = ByteSource::map(path)?;
                Self::from_shared_bytes(&backing)
            }
        }
    }

    /// The zero-copy decode over an already-loaded backing — what
    /// [`LoadMode::Mapped`] runs after mapping the file.
    ///
    /// # Errors
    /// Like [`Self::from_snapshot_bytes`].
    pub fn from_shared_bytes(backing: &SharedBytes) -> Result<Self, SnapshotError> {
        let reader = SnapshotReader::parse_with(backing.bytes(), &ParseOptions::trusting())?;
        Self::decode_sections(&reader, Some(backing))
    }

    /// [`Self::load`] with wall-clock timing — the number the service
    /// benchmark compares against a cold [`Self::build`].
    ///
    /// # Errors
    /// Like [`Self::load`].
    pub fn load_timed(path: &Path) -> Result<(Self, f64), SnapshotError> {
        Self::load_timed_with(path, LoadMode::Owned)
    }

    /// [`Self::load_with`] with wall-clock timing.
    ///
    /// # Errors
    /// Like [`Self::load_with`].
    pub fn load_timed_with(path: &Path, mode: LoadMode) -> Result<(Self, f64), SnapshotError> {
        let t0 = Instant::now();
        let corpus = Self::load_with(path, mode)?;
        Ok((corpus, t0.elapsed().as_secs_f64()))
    }

    /// `true` when any index/context arena borrows a snapshot mapping
    /// (i.e. the corpus came from a successful [`LoadMode::Mapped`] load
    /// and has not been mutated since).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.index.is_borrowed() || self.context.is_borrowed()
    }

    /// Where this corpus's index/context arena bytes live (see
    /// [`MemoryStats`]).
    #[must_use]
    pub fn memory_stats(&self) -> MemoryStats {
        let (ir, ib) = self.index.arena_bytes();
        let (cr, cb) = self.context.arena_bytes();
        MemoryStats { resident_arena_bytes: ir + cr, borrowed_arena_bytes: ib + cb }
    }

    /// Run one attack against this corpus through `engine` — convenience
    /// for [`Engine::run_prepared`] on [`Self::prepared`].
    #[must_use]
    pub fn attack(&self, engine: &Engine, anonymized: &Forum) -> dehealth_engine::EngineOutcome {
        engine.run_prepared(&self.prepared(), anonymized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::{closed_world_split, ForumConfig, Post, SplitConfig};
    use dehealth_engine::EngineOutcome;

    fn tiny_corpus() -> PreparedCorpus {
        let forum = Forum::generate(&ForumConfig::tiny(), 42);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 7);
        PreparedCorpus::build(split.auxiliary, ClassifierKind::default())
    }

    #[test]
    fn snapshot_roundtrip_is_bit_exact() {
        let corpus = tiny_corpus();
        let bytes = corpus.to_snapshot_bytes();
        let loaded = PreparedCorpus::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(loaded.n_users(), corpus.n_users());
        assert_eq!(loaded.n_posts(), corpus.n_posts());
        // Re-encoding the loaded corpus reproduces the identical bytes —
        // forum, features, index and context round-trip bit-for-bit.
        assert_eq!(loaded.to_snapshot_bytes(), bytes);
    }

    #[test]
    fn streamed_save_matches_materialized_save() {
        let corpus = tiny_corpus();
        let streamed = std::env::temp_dir().join("dehealth-corpus-save-streamed-test.snap");
        corpus.save_streaming(&streamed).unwrap();
        let a = corpus.to_snapshot_bytes();
        let b = std::fs::read(&streamed).unwrap();
        assert_eq!(a, b, "streamed snapshot differs from materialized snapshot");
        // The streamed file loads through both load modes.
        for mode in [LoadMode::Owned, LoadMode::Mapped] {
            let back = PreparedCorpus::load_with(&streamed, mode).unwrap();
            assert_eq!(back.is_mapped(), mode == LoadMode::Mapped);
            assert_eq!(back.to_snapshot_bytes(), a, "{mode:?} load of the streamed file");
        }
        std::fs::remove_file(&streamed).unwrap();
    }

    #[test]
    fn append_matches_fresh_build_over_union() {
        let forum = Forum::generate(&ForumConfig::tiny(), 3);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 5);
        let aux = split.auxiliary;
        let cut = aux.n_users / 2;
        let chunk_of = |lo: usize, hi: usize| users_of(&aux, lo, hi);
        let mut incremental = PreparedCorpus::build(chunk_of(0, cut), ClassifierKind::default());
        incremental.append_users(&chunk_of(cut, aux.n_users));

        // The merged reference: chunk users/threads offset like the ingest.
        let mut merged_posts = Vec::new();
        for p in chunk_of(0, cut).posts.iter().cloned() {
            merged_posts.push(p);
        }
        for p in &chunk_of(cut, aux.n_users).posts {
            merged_posts.push(Post {
                author: p.author + cut,
                thread: p.thread + aux.n_threads,
                text: p.text.clone(),
            });
        }
        let merged = Forum::from_posts(aux.n_users, aux.n_threads * 2, merged_posts);
        let fresh = PreparedCorpus::build(merged, ClassifierKind::default());
        assert_eq!(incremental.to_snapshot_bytes(), fresh.to_snapshot_bytes());
        assert_same_graph_and_forum(&incremental, &fresh);

        // More cohorts, one at a time: a first chunk whose extra declared
        // users have no posts, a chunk declaring threads no post uses, a
        // chunk of postless users only, an empty chunk and a plain one.
        // After every append the corpus equals a fresh build over the
        // union so far.
        let third = aux.n_users / 3;
        let widen = |chunk: Forum, users: usize, threads: usize| {
            Forum::from_posts(chunk.n_users + users, chunk.n_threads + threads, chunk.posts)
        };
        let mut chunks = vec![widen(chunk_of(0, third), 4, 0)];
        let mut incremental = PreparedCorpus::build(chunks[0].clone(), ClassifierKind::default());
        for chunk in [
            widen(chunk_of(third, 2 * third), 0, 7),
            Forum::from_posts(5, 2, Vec::new()),
            Forum::from_posts(0, 0, Vec::new()),
            chunk_of(2 * third, aux.n_users),
        ] {
            incremental.append_users(&chunk);
            chunks.push(chunk);
            let fresh = PreparedCorpus::build(union_of(&chunks), ClassifierKind::default());
            assert_eq!(incremental.to_snapshot_bytes(), fresh.to_snapshot_bytes());
            assert_same_graph_and_forum(&incremental, &fresh);
        }
    }

    /// `chunks` merged the way consecutive ingests number them: each
    /// chunk's users and threads offset by the totals before it.
    fn union_of(chunks: &[Forum]) -> Forum {
        let (mut users, mut threads, mut posts) = (0, 0, Vec::new());
        for chunk in chunks {
            posts.extend(chunk.posts.iter().map(|p| Post {
                author: p.author + users,
                thread: p.thread + threads,
                text: p.text.clone(),
            }));
            users += chunk.n_users;
            threads += chunk.n_threads;
        }
        Forum::from_posts(users, threads, posts)
    }

    /// The UDA graphs agree field by field (neighbour ids and weight bits,
    /// edge count, attribute sets, profile bits, post counts), and so do
    /// the forums (sizes, thread metadata, per-user post lists). Snapshot
    /// bytes hold neither the graph's edges nor the post lists.
    fn assert_same_graph_and_forum(got: &PreparedCorpus, want: &PreparedCorpus) {
        let (g, w) = (got.uda(), want.uda());
        assert_eq!(g.n_users(), w.n_users());
        assert_eq!(g.graph.node_count(), w.graph.node_count());
        assert_eq!(g.graph.edge_count(), w.graph.edge_count());
        assert_eq!(g.post_counts, w.post_counts);
        let (gf, wf) = (got.forum(), want.forum());
        assert_eq!((gf.n_users, gf.n_threads), (wf.n_users, wf.n_threads));
        assert_eq!((&gf.thread_board, &gf.thread_topic), (&wf.thread_board, &wf.thread_topic));
        let profile_bits =
            |v: &FeatureVector| v.to_dense().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for u in 0..w.n_users() {
            let edges = |uda: &UdaGraph| -> Vec<(u32, u64)> {
                uda.graph.neighbors(u).iter().map(|&(v, x)| (v, x.to_bits())).collect()
            };
            assert_eq!(edges(g), edges(w), "user {u}: neighbours");
            assert_eq!(g.attributes[u], w.attributes[u], "user {u}: attributes");
            assert_eq!(profile_bits(&g.profiles[u]), profile_bits(&w.profiles[u]), "user {u}");
            assert_eq!(gf.user_posts(u), wf.user_posts(u), "user {u}: posts");
        }
    }

    #[test]
    fn dense_context_corpus_roundtrips() {
        let forum = Forum::generate(&ForumConfig::tiny(), 9);
        let corpus = PreparedCorpus::build(forum, ClassifierKind::Centroid);
        assert!(!corpus.context().is_sparse());
        let bytes = corpus.to_snapshot_bytes();
        let loaded = PreparedCorpus::from_snapshot_bytes(&bytes).unwrap();
        assert!(!loaded.context().is_sparse());
        assert_eq!(loaded.to_snapshot_bytes(), bytes);
    }

    #[test]
    fn cross_section_inconsistency_is_rejected() {
        let corpus = tiny_corpus();
        // Rebuild a snapshot whose index section comes from a *different*
        // (smaller) corpus: decodes fine, but must fail the cross-check.
        let other = {
            let mut config = ForumConfig::tiny();
            config.n_users = 17;
            let forum = Forum::generate(&config, 1234);
            PreparedCorpus::build(forum, ClassifierKind::default())
        };
        assert_ne!(other.n_users(), corpus.n_users());
        // The cross-check, not a decode error, must fire.
        let mut w = SnapshotWriter::new();
        encode_forum(corpus.forum(), w.section(SECTION_FORUM));
        encode_features(corpus.features(), w.section(SECTION_FEATURES));
        other.index().encode(w.section(SECTION_INDEX));
        corpus.context().encode(w.section(SECTION_CONTEXT));
        assert!(matches!(
            PreparedCorpus::from_snapshot_bytes(&w.finish()),
            Err(SnapshotError::Malformed { context: "index/forum user count mismatch" })
        ));
    }

    #[test]
    fn mapped_load_borrows_arenas_and_matches_owned() {
        let corpus = tiny_corpus();
        let path = std::env::temp_dir().join("dehealth-corpus-mapped-test.snap");
        corpus.save_streaming(&path).unwrap();
        let owned = PreparedCorpus::load_with(&path, LoadMode::Owned).unwrap();
        let mapped = PreparedCorpus::load_with(&path, LoadMode::Mapped).unwrap();
        assert!(!owned.is_mapped());
        assert!(mapped.is_mapped());
        let stats = mapped.memory_stats();
        assert_eq!(stats.resident_arena_bytes, 0, "mapped corpus keeps no arena bytes resident");
        assert!(stats.borrowed_arena_bytes > 0);
        assert!(owned.memory_stats().borrowed_arena_bytes == 0);
        // Bit-identical state: both re-serialize to the on-disk bytes.
        assert_eq!(mapped.to_snapshot_bytes(), owned.to_snapshot_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    /// The lifecycle tests' engine: a tiny-forum attack with `n_landmarks`
    /// and `top_k`. A Top-K of 30 is wide enough to keep pairs whose
    /// distance similarity depends on the landmarks.
    fn engine(n_landmarks: usize, top_k: usize) -> Engine {
        Engine::new(dehealth_engine::EngineConfig {
            attack: dehealth_core::AttackConfig {
                top_k,
                n_landmarks,
                ..dehealth_core::AttackConfig::default()
            },
            n_threads: 2,
            block_size: 8,
            ..dehealth_engine::EngineConfig::default()
        })
    }

    /// `engine`'s attack on `corpus` with the cache out of the picture.
    fn uncached(corpus: &PreparedCorpus, engine: &Engine, anon: &Forum) -> EngineOutcome {
        let cache = AuxiliaryCache::default();
        engine.run_prepared(&PreparedAuxiliary { cache: &cache, ..corpus.prepared() }, anon)
    }

    /// Candidates, score bits and mappings agree.
    fn assert_same(got: &EngineOutcome, want: &EngineOutcome, what: &str) {
        assert_eq!(got.candidates, want.candidates, "{what}: candidates");
        assert_eq!(got.mapping, want.mapping, "{what}: mapping");
        assert_eq!(got.candidate_scores.len(), want.candidate_scores.len(), "{what}");
        for (a, b) in got.candidate_scores.iter().zip(&want.candidate_scores) {
            let bits = |e: &[(usize, f64)]| -> Vec<(usize, u64)> {
                e.iter().map(|&(v, s)| (v, s.to_bits())).collect()
            };
            assert_eq!(bits(a), bits(b), "{what}: candidate scores");
        }
    }

    /// Auxiliary users whose structure the attack built (the `structure`
    /// stage's items).
    fn built(outcome: &EngineOutcome) -> u64 {
        outcome.report.stage("structure").expect("structure stage recorded").items
    }

    /// An auxiliary forum cut into two disjoint cohorts, their union in
    /// the ingest's id convention, and the anonymized side to attack.
    fn cohorts() -> (Forum, Forum, Forum, Forum) {
        let forum = Forum::generate(&ForumConfig::tiny(), 3);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 5);
        let aux = split.auxiliary;
        let cut = aux.n_users / 2;
        let (first, second) = (users_of(&aux, 0, cut), users_of(&aux, cut, aux.n_users));
        let mut posts = first.posts.clone();
        posts.extend(second.posts.iter().map(|p| Post {
            author: p.author + cut,
            thread: p.thread + aux.n_threads,
            text: p.text.clone(),
        }));
        let union = Forum::from_posts(aux.n_users, aux.n_threads * 2, posts);
        (first, second, union, split.anonymized)
    }

    /// Users `lo..hi` of `forum` with their posts, renumbered from 0; the
    /// thread ids stay as they are.
    fn users_of(forum: &Forum, lo: usize, hi: usize) -> Forum {
        let posts: Vec<Post> = forum
            .posts
            .iter()
            .filter(|p| (lo..hi).contains(&p.author))
            .map(|p| Post { author: p.author - lo, thread: p.thread, text: p.text.clone() })
            .collect();
        Forum::from_posts(hi - lo, forum.n_threads, posts)
    }

    /// `chunk` with its `i`-th post moved into thread `i % n_threads`:
    /// with a thread per post every user is alone (degree 0, so none
    /// outranks a landmark), with one thread every user meets every other.
    fn regroup(chunk: Forum, n_threads: usize) -> Forum {
        let posts = chunk.posts.into_iter().enumerate();
        let posts = posts.map(|(i, p)| Post { thread: i % n_threads, ..p }).collect();
        Forum::from_posts(chunk.n_users, n_threads, posts)
    }

    #[test]
    fn ingests_extend_or_drop_the_auxiliary_cache() {
        let (first, second, _, anon) = cohorts();
        let half = second.n_users / 2;
        // Two short posts bring no attribute near the hot threshold, so that
        // ingest keeps the hot tables as well as the landmarks; the third
        // user is declared but absent.
        let short = |author, text: &str| Post { author, thread: author, text: text.into() };
        let alone = users_of(&second, 0, half);
        let keep = [
            regroup(alone.clone(), alone.posts.len()),
            Forum::from_posts(3, 2, vec![short(0, "ok"), short(1, "the pain")]),
        ];
        let moves = regroup(users_of(&second, half, second.n_users), 1);
        // A Top-K that keeps every pair: each score the cache feeds shows.
        let engine = engine(10, 100);
        let source = PreparedCorpus::build(first.clone(), ClassifierKind::default());
        let path = std::env::temp_dir().join("dehealth-corpus-cache-ingest-test.snap");
        source.save_streaming(&path).unwrap();
        let before = uncached(&source, &engine, &anon);
        assert_eq!(built(&source.attack(&engine, &anon)), source.n_users() as u64);

        for kind in ["owned", "mapped", "clone"] {
            let mut corpus = match kind {
                "owned" => PreparedCorpus::build(first.clone(), ClassifierKind::default()),
                "mapped" => PreparedCorpus::load_with(&path, LoadMode::Mapped).unwrap(),
                _ => source.clone(),
            };
            let filling = corpus.attack(&engine, &anon);
            assert_same(&filling, &before, &format!("{kind}: filling attack"));
            let filled = if kind == "clone" { 0 } else { corpus.n_users() as u64 };
            assert_eq!(built(&filling), filled, "{kind}: a clone shares its source's entries");

            // One ingest that keeps the landmarks, then one that keeps them
            // and one that moves them. Each attack equals an uncached one
            // on a fresh build over the union so far.
            let mut chunks = vec![first.clone()];
            for (step, ingests) in [vec![&keep[0]], vec![&keep[1], &moves]].iter().enumerate() {
                for &chunk in ingests {
                    corpus.append_users(chunk);
                    chunks.push(chunk.clone());
                }
                let out = corpus.attack(&engine, &anon);
                let fresh = PreparedCorpus::build(union_of(&chunks), ClassifierKind::default());
                assert_same(&out, &uncached(&fresh, &engine, &anon), &format!("{kind}, {step}"));
                let rebuilt = if step == 0 { 0 } else { corpus.n_users() as u64 };
                assert_eq!(built(&out), rebuilt, "{kind}: users built after ingest step {step}");
            }
        }

        // The clone's ingests copied the entries they extended: its source
        // still serves from its own, over its own users.
        let out = source.attack(&engine, &anon);
        assert_same(&out, &before, "the clone's source");
        assert_eq!(built(&out), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn other_n_landmarks_build_their_own_structure() {
        let (_, _, union, anon) = cohorts();
        let corpus = PreparedCorpus::build(union, ClassifierKind::default());
        let n = corpus.n_users() as u64;
        let (cached, other) = (engine(4, 30), engine(10, 30));
        // The first attack keys the cache to its `n_landmarks` (4).
        let filling = corpus.attack(&cached, &anon);
        assert_same(&filling, &uncached(&corpus, &cached, &anon), "filling attack");
        assert_eq!(built(&filling), n);
        // Another value builds its own structure on every attack and never
        // evicts the cached one.
        for round in 0..2 {
            let out = corpus.attack(&other, &anon);
            assert_same(&out, &uncached(&corpus, &other, &anon), "other n_landmarks");
            assert_eq!(built(&out), n, "round {round}");
            let hit = corpus.attack(&cached, &anon);
            assert_same(&hit, &filling, "cached n_landmarks");
            assert_eq!(built(&hit), 0, "round {round}");
        }
        // The two values really score differently.
        assert_ne!(
            format!("{:?}", corpus.attack(&other, &anon).candidate_scores),
            format!("{:?}", filling.candidate_scores)
        );
    }

    #[test]
    fn owned_and_mapped_loads_fill_their_own_caches() {
        let corpus = tiny_corpus();
        let split = closed_world_split(
            &Forum::generate(&ForumConfig::tiny(), 42),
            &SplitConfig::fraction(0.5),
            7,
        );
        let engine = engine(10, 30);
        let want = uncached(&corpus, &engine, &split.anonymized);
        let path = std::env::temp_dir().join("dehealth-corpus-cache-load-test.snap");
        corpus.save_streaming(&path).unwrap();
        for mode in [LoadMode::Owned, LoadMode::Mapped] {
            let loaded = PreparedCorpus::load_with(&path, mode).unwrap();
            let filling = loaded.attack(&engine, &split.anonymized);
            assert_same(&filling, &want, &format!("{mode:?} load, filling attack"));
            assert_eq!(built(&filling), loaded.n_users() as u64);
            let hit = loaded.attack(&engine, &split.anonymized);
            assert_same(&hit, &want, &format!("{mode:?} load, cached attack"));
            assert_eq!(built(&hit), 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn racing_first_attacks_share_one_build() {
        let (_, _, union, anon) = cohorts();
        let corpus = PreparedCorpus::build(union, ClassifierKind::default());
        let engine = engine(10, 30);
        let want = uncached(&corpus, &engine, &anon);
        let start = std::sync::Barrier::new(2);
        let outcomes: Vec<EngineOutcome> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        corpus.attack(&engine, &anon)
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().expect("attack thread panicked")).collect()
        });
        for out in &outcomes {
            assert_same(out, &want, "racing attack");
        }
        let mut builds: Vec<u64> = outcomes.iter().map(built).collect();
        builds.sort_unstable();
        assert_eq!(builds, [0, corpus.n_users() as u64], "exactly one racer builds");
    }

    #[test]
    fn mapped_append_promotes_and_matches_owned_append() {
        let forum = Forum::generate(&ForumConfig::tiny(), 3);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 5);
        let chunk = Forum::generate(&ForumConfig::tiny(), 11);
        let corpus = PreparedCorpus::build(split.auxiliary, ClassifierKind::default());
        let path = std::env::temp_dir().join("dehealth-corpus-mapped-append-test.snap");
        corpus.save_streaming(&path).unwrap();

        let mut owned = PreparedCorpus::load_with(&path, LoadMode::Owned).unwrap();
        let mut mapped = PreparedCorpus::load_with(&path, LoadMode::Mapped).unwrap();
        owned.append_users(&chunk);
        mapped.append_users(&chunk);
        // Copy-on-write: the mutation detached the mapped corpus.
        assert!(!mapped.is_mapped());
        assert_eq!(mapped.memory_stats().borrowed_arena_bytes, 0);
        assert_eq!(mapped.to_snapshot_bytes(), owned.to_snapshot_bytes());
        std::fs::remove_file(&path).unwrap();
    }
}
