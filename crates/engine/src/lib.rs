#![warn(missing_docs)]
//! # dehealth-engine
//!
//! The parallel, sharded execution engine for the De-Health attack.
//!
//! The serial [`DeHealth::run`](dehealth_core::DeHealth::run) materializes
//! the dense `|V1| × |V2|` similarity matrix and refines candidates one
//! user at a time — fine for reproducing the paper's figures, a dead end
//! for production-scale populations. This crate wraps `dehealth-core`
//! with an execution layer that:
//!
//! - **shards the Top-K DA phase**: anonymized users are partitioned into
//!   blocks, workers steal blocks from a shared queue, and each user keeps
//!   only a [`BoundedTopK`](dehealth_core::topk::BoundedTopK) heap of its
//!   `K` best candidates — `O(|V1| · K)` state instead of `O(|V1| · |V2|)`;
//! - **scores pairs through an inverted index** by default
//!   ([`ScoringMode::Indexed`]): workers probe the posting lists of each
//!   anonymized user's attributes
//!   ([`AttributeIndex`](dehealth_core::index::AttributeIndex)), compute
//!   the dominant attribute term exactly from intersection accumulators,
//!   and prune pairs whose score upper bound cannot beat the user's
//!   running Top-K floor — the dense all-pairs sweep stays available as
//!   the differential-test oracle ([`ScoringMode::Dense`]);
//! - **fans out the Refined-DA phase**: per-user classifier training and
//!   verification run on the same worker pool, with dynamic block stealing
//!   absorbing the highly variable per-user cost;
//! - **ingests auxiliary data incrementally**:
//!   [`EngineSession::add_auxiliary_users`] scores only the
//!   `|V1| × |chunk|` block of new pairs and merges it into the existing
//!   heaps — previously scored pairs are never recomputed (the streaming
//!   auxiliary-data scenario);
//! - **accounts for every stage**: an [`EngineReport`] with per-stage
//!   wall-clock and throughput counters, feeding the daemon's metrics and
//!   the scale sweep in `dehealth-bench`.
//!
//! With [`Selection::Direct`](dehealth_core::topk::Selection) the engine's
//! candidate sets and final mapping are **bit-identical** to the serial
//! attack at any thread count (`tests/engine_parity.rs` in the facade
//! crate asserts this for 1, 2 and 8 workers).
//!
//! ## Architecture
//!
//! ```text
//!                        anonymized forum            auxiliary chunks
//!                              │                       │  │  │
//!                              ▼                       ▼  ▼  ▼
//!                      ┌──────────────┐  per chunk ┌──────────────┐
//!  prepare             │ anon UDA +   │◄───────────│ chunk UDA +  │
//!  (parallel extract)  │ post features│            │ post features│
//!                      └──────┬───────┘            └──────┬───────┘
//!                             └──────────┬────────────────┘
//!                                        ▼
//!                      ┌─────────────────────────────────┐
//!  topk                │ IndexedScorer (default) or the  │
//!  (sharded, no dense  │ dense scores_for sweep (oracle) │
//!   matrix)            │ ┌───────┐ ┌───────┐   ┌───────┐ │
//!                      │ │block 0│ │block 1│ … │block B│ │ ← work stealing
//!                      │ └───┬───┘ └───┬───┘   └───┬───┘ │
//!                      └─────┼─────────┼───────────┼─────┘
//!                            ▼         ▼           ▼
//!                      per-user BoundedTopK heaps (K entries each)
//!                            │  + merged ScoreBounds (for Algorithm 2)
//!  filter (optional)         ▼
//!                      threshold_vector + filter_user per user
//!                            │
//!  refined                   ▼
//!  (fan-out, same pool) refine_user(u) per user: train classifier on
//!                       candidates' posts, verify, map u → v or u → ⊥
//!                            │
//!                            ▼
//!                      EngineOutcome { candidates, mapping, report }
//! ```

pub mod engine;
pub mod pool;
pub mod report;

pub use engine::{
    BatchRequest, Engine, EngineConfig, EngineOutcome, EngineSession, PreparedAuxiliary,
    RefinedMode, ScoringMode,
};
pub use report::{EngineReport, StageStats, TopkPairs};
