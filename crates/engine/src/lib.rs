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
//! - **scores pairs through an inverted index**: workers probe the
//!   posting lists of each anonymized user's attributes
//!   ([`AttributeIndex`](dehealth_core::index::AttributeIndex)), compute
//!   the dominant attribute term exactly from intersection accumulators,
//!   and prune pairs whose score upper bound cannot beat the user's
//!   running Top-K floor;
//! - **fans out the Refined-DA phase**: per-user classifier training and
//!   verification run on the same worker pool, with dynamic block stealing
//!   absorbing the highly variable per-user cost;
//! - **attacks a prepared auxiliary side**: [`Engine::run_prepared`] takes
//!   the auxiliary forum with its features, UDA graph and optionally its
//!   index, refined context and [`AuxiliaryCache`], so a standing corpus
//!   (the daemon's, grown in place by disjoint cohorts) is prepared once
//!   for many attacks; the one-shot [`Engine::run`] prepares the
//!   auxiliary side and makes the same call;
//! - **accounts for every stage**: an [`EngineReport`] with per-stage
//!   wall-clock and throughput counters, feeding the daemon's metrics and
//!   the scale sweep in `dehealth-bench`.
//!
//! With [`Selection::Direct`](dehealth_core::topk::Selection) the engine's
//! candidate sets, their score bits and the final mapping are
//! **bit-identical** to the serial attack at any thread count
//! (`tests/engine_parity.rs` and `tests/index_parity.rs` in the facade
//! crate assert this for 1, 2 and 8 workers).
//!
//! ## Architecture
//!
//! ```text
//!                      anonymized forum        auxiliary forum (Engine::run)
//!                            │                       │  or a PreparedAuxiliary
//!                            ▼                       ▼  (Engine::run_prepared)
//!                    ┌──────────────┐        ┌──────────────┐
//!  prepare           │ anon UDA +   │        │ aux UDA +    │ ← Engine::run
//!  (parallel extract)│ post features│        │ post features│   only
//!                    └──────┬───────┘        └──────┬───────┘
//!                           └──────────┬────────────┘
//!                                      ▼
//!  structure           similarity engine + IndexedScorer (landmarks,
//!  (cached per corpus) hot tables: AuxiliaryCache)
//!                                      │
//!                      ┌───────────────▼─────────────────┐
//!  topk                │ IndexedScorer over posting lists│
//!  (sharded, no dense  │ ┌───────┐ ┌───────┐   ┌───────┐ │
//!   matrix)            │ │block 0│ │block 1│ … │block B│ │ ← work stealing
//!                      │ └───┬───┘ └───┬───┘   └───┬───┘ │
//!                      └─────┼─────────┼───────────┼─────┘
//!                            ▼         ▼           ▼
//!                      per-user BoundedTopK heaps (K entries each)
//!                            │  + merged ScoreBounds (for Algorithm 2)
//!  budget, filter            ▼
//!  (optional)          candidate budget, threshold_vector + filter_user
//!                            │
//!  refined                   ▼
//!  (fan-out, same pool) refine_user_shared(u) per user: train classifier
//!                       on candidates' posts, verify, map u → v or u → ⊥
//!                            │
//!                            ▼
//!                      EngineOutcome { candidates, mapping, report }
//! ```

pub mod engine;
pub mod pool;
pub mod report;

pub use engine::{AuxiliaryCache, Engine, EngineConfig, EngineOutcome, PreparedAuxiliary};
pub use report::{EngineReport, StageStats, TopkPairs};
