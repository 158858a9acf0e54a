#![warn(missing_docs)]
//! # dehealth-core
//!
//! The De-Health attack itself — the primary contribution of the paper.
//!
//! De-Health de-anonymizes online health data in two phases:
//!
//! 1. **Top-K DA** ([`similarity`], [`index`], [`topk`], [`filter`]): build
//!    [`uda::UdaGraph`]s for the anonymized and auxiliary datasets, score
//!    every (anonymized, auxiliary) pair with the structural similarity
//!    `s_uv = c1·s^d + c2·s^s + c3·s^a`, select a Top-K candidate set per
//!    anonymized user (direct or graph-matching selection), and optionally
//!    filter it with the Algorithm-2 threshold vector.
//! 2. **Refined DA** ([`refined`]): train a benchmark classifier (KNN,
//!    SMO-SVM, RLSC or nearest-centroid from `dehealth-ml`) on the
//!    candidates' posts and map each anonymized user to one candidate or
//!    to `⊥`, with the open-world *false addition* and *mean-verification*
//!    schemes.
//!
//! [`attack::DeHealth`] wires the phases together;
//! [`attack::stylometry_baseline`] is the paper's comparison baseline
//! (refined DA without the Top-K phase); [`attack::Evaluation`] computes
//! the paper's metrics (Top-K success CDF, accuracy `Y_c/Y`, FP rate).

pub mod arena;
pub mod attack;
pub mod filter;
pub mod index;
pub mod refined;
pub mod similarity;
pub mod snapshot;
pub mod topk;
pub mod uda;

pub use arena::{ArenaCastError, ArenaView};
pub use attack::{stylometry_baseline, AttackConfig, AttackOutcome, DeHealth, Evaluation};
pub use filter::{FilterConfig, Filtered, ScoreBounds};
pub use index::{AttributeIndex, AuxHotAttrs, IndexScratch, IndexedScorer, PairTally, PostingsRef};
pub use refined::{
    refine_user, refine_user_shared, ClassifierKind, RefinedConfig, RefinedContext, RefinedScratch,
    Side, Verification,
};
pub use similarity::{AuxStructure, SimilarityEngine, SimilarityWeights};
pub use topk::{BoundedTopK, Selection};
pub use uda::UdaGraph;
