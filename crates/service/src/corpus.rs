//! The standing auxiliary corpus: built once, persisted as a snapshot,
//! shared read-only by every attack session.
//!
//! A [`PreparedCorpus`] bundles everything [`Engine::run_prepared`] needs
//! about the auxiliary side of the attack:
//!
//! - the [`Forum`] (posts with author/thread structure),
//! - the per-post stylometric [`FeatureVector`]s — the product of the
//!   attack's single most expensive preprocessing step,
//! - the [`UdaGraph`] (correlation graph, attributes, profiles),
//! - the [`AttributeIndex`] behind the inverted-index Top-K scorer,
//! - the refined-DA [`RefinedContext`] feature arena.
//!
//! [`PreparedCorpus::save`] writes all of it into one snapshot file
//! (container format: [`dehealth_corpus::snapshot`], 8-byte-aligned
//! sections; byte-level layout: ARCHITECTURE.md), and
//! [`PreparedCorpus::load`] restores it without touching any post text —
//! feature extraction is skipped entirely, which is what makes a daemon
//! restart orders of magnitude cheaper than a cold corpus build.
//! Round-trips are bit-exact: a loaded corpus re-saves to the identical
//! byte stream (`tests/snapshot_roundtrip.rs`).
//!
//! ## Load modes
//!
//! [`PreparedCorpus::load_with`] takes a [`LoadMode`]:
//!
//! - [`LoadMode::Owned`] — the eager path: read the file, verify every
//!   checksum, decode every section into owned structures.
//! - [`LoadMode::Mapped`] — the zero-copy path: `mmap` the file
//!   ([`dehealth_mapped`]), decode the forum/features sections (owned —
//!   they are pointer-rich structures), and *borrow* the attribute-index
//!   and refined-context arenas straight out of the mapping through
//!   [`ArenaView`](dehealth_core::arena::ArenaView)s. The mapping is
//!   kept alive by the views themselves (`Arc`-shared), so there is no
//!   self-referential state; dropping the corpus unmaps the file. The
//!   FNV checksum sweep is skipped for speed — every structural
//!   invariant is still re-validated — and reload time no longer pays
//!   for the largest sections at all.
//!
//! Wire attacks against a mapped corpus are bit-identical to the owned
//! path (`tests/service_parity.rs`); mutation ([`PreparedCorpus::
//! append_users`]) promotes borrowed arenas to owned copy-on-write.

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
use dehealth_corpus::{Forum, Post};
use dehealth_engine::{Engine, PreparedAuxiliary};
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
    /// Read + verify + decode everything into owned structures.
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
        let index = AttributeIndex::from_uda(&uda);
        let context = RefinedContext::build(
            &Side { forum: &forum, uda: &uda, post_features: &features },
            classifier,
        );
        Self { forum, features, uda, index, context, classifier }
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
        }
    }

    /// Ingest a chunk of **new** auxiliary users, mirroring
    /// `EngineSession::add_auxiliary_users`'s streaming convention:
    /// chunk-local user/thread ids are offset by the totals already in
    /// the corpus (chunks are disjoint user cohorts with their own
    /// threads). Only the chunk's posts run feature extraction; the UDA
    /// graph is re-derived over the merged corpus from cached features,
    /// while the index and refined context are **appended to in place**
    /// — under the disjoint-cohort convention earlier users' structural
    /// features are unchanged, so appending the new users'/posts' rows is
    /// bit-identical to a fresh union build (asserted by
    /// `append_matches_fresh_build_over_union`), the invariant the
    /// daemon's parity guarantee rests on.
    ///
    /// On a [`LoadMode::Mapped`] corpus this is where copy-on-write
    /// happens: the borrowed arenas are promoted to owned storage before
    /// the first new row lands, and the corpus detaches from its mapping.
    pub fn append_users(&mut self, chunk: &Forum) {
        let user_offset = self.forum.n_users;
        let thread_offset = self.forum.n_threads;
        let post_offset = self.forum.posts.len();
        let chunk_features = extract_post_features(chunk);

        let mut posts = std::mem::take(&mut self.forum.posts);
        posts.reserve(chunk.posts.len());
        for post in &chunk.posts {
            posts.push(Post {
                author: post.author + user_offset,
                thread: post.thread + thread_offset,
                text: post.text.clone(),
            });
        }
        let merged =
            Forum::from_posts(user_offset + chunk.n_users, thread_offset + chunk.n_threads, posts);
        let mut features = std::mem::take(&mut self.features);
        features.extend(chunk_features);

        // The merged UDA graph is rebuilt (it feeds every attack's
        // similarity engine); the index and context only append — chunks
        // are disjoint user cohorts with disjoint threads, so the first
        // `user_offset` users' attributes, degrees and post counts are
        // bit-identical to what the existing rows were built from.
        let uda = UdaGraph::build_with_features(&merged, &features);
        self.index.append_uda_suffix(&uda, user_offset);
        self.context.append_rows(
            &Side { forum: &merged, uda: &uda, post_features: &features },
            post_offset,
        );
        self.forum = merged;
        self.features = features;
        self.uda = uda;
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
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_snapshot_bytes())?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Write the snapshot to `path` atomically like [`Self::save`], but
    /// **streamed**: each section's bytes go straight to the file as the
    /// codec produces them ([`SnapshotStreamer`]), so peak memory during
    /// a save stays at the corpus itself instead of corpus + two extra
    /// copies of the serialized stream. At 100k auxiliary users that is
    /// the difference between a save that fits alongside the build and
    /// one that doubles peak RSS. The resulting file is bit-identical to
    /// [`Self::save`]'s (`streamed_save_matches_materialized_save`).
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
    /// re-derived from the persisted forum and features (a cheap merge —
    /// no text is re-analyzed); the index and context are decoded
    /// directly and cross-checked against the forum for consistency.
    ///
    /// # Errors
    /// Any [`SnapshotError`]: bad magic, unsupported version, truncation,
    /// checksum mismatch, bad padding, missing sections, or cross-section
    /// inconsistency. Never panics on malformed input.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let reader = SnapshotReader::parse(bytes)?;
        Self::decode_sections(&reader, None)
    }

    /// Decode every section of a parsed snapshot. With a `backing`
    /// (which must hold the same bytes the reader parsed), the index and
    /// context arenas become zero-copy views borrowing it; without one
    /// they decode into owned storage.
    fn decode_sections(
        reader: &SnapshotReader<'_>,
        backing: Option<&SharedBytes>,
    ) -> Result<Self, SnapshotError> {
        let mut s = reader.section(SECTION_FORUM)?;
        let forum = decode_forum(&mut s)?;
        s.expect_end()?;

        let mut s = reader.section(SECTION_FEATURES)?;
        let features = decode_features(&mut s)?;
        s.expect_end()?;
        if features.len() != forum.posts.len() {
            return Err(SnapshotError::Malformed { context: "features/posts count mismatch" });
        }

        let mut s = reader.section(SECTION_INDEX)?;
        let index = AttributeIndex::decode(&mut s, backing)?;
        s.expect_end()?;
        if index.n_users() != forum.n_users {
            return Err(SnapshotError::Malformed { context: "index/forum user count mismatch" });
        }

        let mut s = reader.section(SECTION_CONTEXT)?;
        let context = RefinedContext::decode(&mut s, backing)?;
        s.expect_end()?;
        if context.n_posts() != forum.posts.len() {
            return Err(SnapshotError::Malformed { context: "context/forum post count mismatch" });
        }
        if context.dim() != M + N_STRUCT {
            return Err(SnapshotError::Malformed { context: "context dimension mismatch" });
        }

        let uda = UdaGraph::build_with_features(&forum, &features);
        let classifier =
            if context.is_sparse() { ClassifierKind::default() } else { ClassifierKind::Centroid };
        debug_assert!(context.matches_classifier(classifier));
        Ok(Self { forum, features, uda, index, context, classifier })
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
                let bytes = std::fs::read(path)?;
                Self::from_snapshot_bytes(&bytes)
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

    /// Run a coalesced batch of attacks against this corpus in one
    /// fused engine pass
    /// ([`Engine::run_prepared_batch`](dehealth_engine::Engine::run_prepared_batch)):
    /// the prepared index and refined context are shared across every
    /// request, while each request's results stay bit-identical to a
    /// solo [`PreparedCorpus::attack`].
    pub fn attack_batch(
        &self,
        engine: &Engine,
        requests: &[dehealth_engine::BatchRequest<'_>],
    ) -> Vec<dehealth_engine::EngineOutcome> {
        engine.run_prepared_batch(&self.prepared(), requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::{closed_world_split, ForumConfig, SplitConfig};

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
        let dir = std::env::temp_dir();
        let materialized = dir.join("dehealth-corpus-save-materialized-test.snap");
        let streamed = dir.join("dehealth-corpus-save-streamed-test.snap");
        corpus.save(&materialized).unwrap();
        corpus.save_streaming(&streamed).unwrap();
        let a = std::fs::read(&materialized).unwrap();
        let b = std::fs::read(&streamed).unwrap();
        std::fs::remove_file(&materialized).unwrap();
        std::fs::remove_file(&streamed).unwrap();
        assert_eq!(a, b, "streamed snapshot differs from materialized snapshot");
        // The streamed file loads through both load modes.
        let back = PreparedCorpus::from_snapshot_bytes(&b).unwrap();
        assert_eq!(back.to_snapshot_bytes(), a);
    }

    #[test]
    fn append_matches_fresh_build_over_union() {
        let forum = Forum::generate(&ForumConfig::tiny(), 3);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 5);
        let aux = split.auxiliary;
        let cut = aux.n_users / 2;
        let chunk_of = |lo: usize, hi: usize| {
            let posts: Vec<Post> = aux
                .posts
                .iter()
                .filter(|p| (lo..hi).contains(&p.author))
                .map(|p| Post { author: p.author - lo, thread: p.thread, text: p.text.clone() })
                .collect();
            Forum::from_posts(hi - lo, aux.n_threads, posts)
        };
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
        corpus.save(&path).unwrap();
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

    #[test]
    fn mapped_append_promotes_and_matches_owned_append() {
        let forum = Forum::generate(&ForumConfig::tiny(), 3);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 5);
        let chunk = Forum::generate(&ForumConfig::tiny(), 11);
        let corpus = PreparedCorpus::build(split.auxiliary, ClassifierKind::default());
        let path = std::env::temp_dir().join("dehealth-corpus-mapped-append-test.snap");
        corpus.save(&path).unwrap();

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
