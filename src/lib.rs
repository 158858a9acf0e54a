//! # De-Health
//!
//! A from-scratch Rust reproduction of *"De-Health: All Your Online Health
//! Information Are Belong to Us"* (Ji et al., ICDE 2020).
//!
//! De-Health is a two-phase user-level de-anonymization (DA) attack on
//! online health-forum data:
//!
//! 1. **Top-K DA** — build a User-Data-Attribute (UDA) graph from thread
//!    co-discussion relations and binary stylometric attributes, compute a
//!    structural similarity between every anonymized and auxiliary user,
//!    and select a Top-K candidate set per anonymized user.
//! 2. **Refined DA** — train a per-user classifier (KNN / SMO-SVM / RLSC)
//!    on stylometric + structural features over the candidate set and map
//!    each anonymized user to one candidate (or reject it as absent).
//!
//! This facade crate re-exports the workspace members; see each crate for
//! detailed documentation:
//!
//! - [`text`] — NLP substrate (tokenizer, POS tagger, lexicons).
//! - [`corpus`] — synthetic health-forum generator and dataset splits
//!   (substitute for the paper's WebMD / HealthBoards crawls).
//! - [`stylometry`] — Table-I stylometric feature extraction.
//! - [`graph`] — correlation / UDA graphs, communities, bipartite matching.
//! - [`mapped`] — read-only file mapping (raw `mmap`) and
//!   alignment-checked little-endian slice casts: the confined-`unsafe`
//!   shim behind zero-copy snapshot loading.
//! - [`ml`] — benchmark classifiers (KNN, SMO-SVM, RLSC, nearest-centroid).
//! - [`core`] — the De-Health attack itself plus the Stylometry baseline.
//! - [`engine`] — the parallel sharded execution engine: blockwise Top-K
//!   DA over bounded candidate heaps (no dense similarity matrix),
//!   fan-out Refined DA, run against a prepared (or standing) auxiliary
//!   side.
//! - [`service`] — the serving layer: persistent corpus snapshots and the
//!   long-lived attack daemon (newline-delimited JSON over TCP).
//! - [`telemetry`] — in-tree observability: lock-free counters/gauges,
//!   log-bucketed latency histograms, a named-metric registry with
//!   Prometheus text exposition, and the structured-logging facade.
//! - [`theory`] — re-identifiability bounds (Theorems 1-4) and Monte-Carlo
//!   validation.
//! - [`linkage`] — the NameLink / AvatarLink linkage-attack simulation.
//! - [`anonymize`] — style-obfuscation and structure-unlinking defenses
//!   (the paper's Section-VII future work), for measuring attack
//!   degradation.
//!
//! ## Quickstart
//!
//! ```
//! use de_health::corpus::{ForumConfig, Forum};
//! use de_health::corpus::split::{closed_world_split, SplitConfig};
//! use de_health::core::{AttackConfig, DeHealth};
//!
//! // Generate a small synthetic forum and run a closed-world attack.
//! let forum = Forum::generate(&ForumConfig::tiny(), 42);
//! let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 7);
//! let attack = DeHealth::new(AttackConfig::default());
//! let outcome = attack.run(&split.auxiliary, &split.anonymized);
//! let eval = outcome.evaluate(&split.oracle);
//! assert!(eval.top_k_success_rate(outcome.config().top_k) >= 0.0);
//! ```

pub use dehealth_anonymize as anonymize;
pub use dehealth_core as core;
pub use dehealth_corpus as corpus;
pub use dehealth_engine as engine;
pub use dehealth_graph as graph;
pub use dehealth_linkage as linkage;
pub use dehealth_mapped as mapped;
pub use dehealth_ml as ml;
pub use dehealth_service as service;
pub use dehealth_stylometry as stylometry;
pub use dehealth_telemetry as telemetry;
pub use dehealth_text as text;
pub use dehealth_theory as theory;
