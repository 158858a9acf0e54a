#![warn(missing_docs)]
//! # dehealth-service
//!
//! The serving layer that turns the De-Health attack from a batch process
//! into a long-lived daemon. Three pieces:
//!
//! - [`corpus::PreparedCorpus`] — the standing auxiliary corpus: forum,
//!   per-post stylometric features, UDA graph, attribute index, and the
//!   refined-DA feature arena, persisted to a versioned, checksummed
//!   binary **snapshot** ([`dehealth_corpus::snapshot`] container). A
//!   snapshot reload skips feature extraction entirely — restart cost
//!   drops from a full corpus build to a file read plus cheap merges.
//! - [`daemon::Daemon`] — a TCP server speaking one wire encoding,
//!   newline-delimited JSON ([`protocol`]; the [`json`] module is the
//!   in-tree parser/emitter, in the pattern of the `crates/rand` /
//!   `crates/criterion` shims): every request and every reply is one
//!   JSON line. One readiness-driven front thread (`dehealth-netpoll`: epoll /
//!   `poll(2)`, a tick backend off unix) multiplexes every connection
//!   and does *framing only* — request parsing, execution, and reply
//!   serialization are all billed to a bounded worker pool (per-request
//!   `daemon_parse/queue/engine/emit_seconds` stage timers prove it);
//!   each attack runs alone, as soon as a worker has parsed it
//!   ([`PreparedCorpus::attack`](corpus::PreparedCorpus::attack)).
//!   Requests: `load_snapshot`, `add_auxiliary_users` (incremental
//!   streaming ingest), `attack` (batch of anonymized users → Top-K
//!   candidates + refined mappings + per-stage report), `stats`, and
//!   `shutdown`. Concurrent sessions share the immutable corpus via
//!   `Arc` (copy-on-write updates).
//! - [`client::ServiceClient`] — a blocking client for the protocol,
//!   with optional connect/read timeouts ([`client::ClientTimeouts`])
//!   surfacing as typed [`client::ServiceError::Timeout`] errors.
//! - [`metrics`] — exposition of the daemon's `dehealth-telemetry`
//!   registry: the `metrics` command's JSON encoding
//!   ([`registry_to_json`]) and the optional Prometheus scrape endpoint
//!   ([`MetricsServer`], `repro serve --metrics-addr`).
//!
//! ## Parity guarantee
//!
//! A wire `attack` against a snapshot-loaded corpus produces mappings and
//! candidate sets **bit-identical** to the serial `DeHealth::run` on the
//! freshly built corpus, at any thread count — the same differential
//! contract every other fast path in this workspace carries
//! (`tests/service_parity.rs` asserts it at 1 and 8 threads).
//!
//! ## Quickstart
//!
//! ```
//! use dehealth_corpus::{Forum, ForumConfig};
//! use dehealth_corpus::split::{closed_world_split, SplitConfig};
//! use dehealth_service::corpus::PreparedCorpus;
//! use dehealth_service::daemon::{default_config, Daemon};
//! use dehealth_service::client::ServiceClient;
//! use dehealth_service::protocol::AttackOptions;
//!
//! // Prepare a corpus and serve it on an ephemeral local port.
//! let forum = Forum::generate(&ForumConfig::tiny(), 42);
//! let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 7);
//! let corpus = PreparedCorpus::build(split.auxiliary, Default::default());
//! let daemon = Daemon::bind_with_corpus("127.0.0.1:0", default_config(), Some(corpus)).unwrap();
//!
//! // Attack over the wire.
//! let mut client = ServiceClient::connect(daemon.addr()).unwrap();
//! let options = AttackOptions { top_k: Some(5), n_landmarks: Some(10), ..Default::default() };
//! let reply = client.attack(&split.anonymized, &options).unwrap();
//! assert_eq!(reply.mapping.len(), split.anonymized.n_users);
//!
//! client.shutdown().unwrap();
//! daemon.join();
//! ```

pub mod client;
pub mod corpus;
pub mod daemon;
pub mod frame;
pub mod json;
pub mod metrics;
pub mod protocol;

pub use client::{AttackReply, ClientTimeouts, ServiceClient, ServiceError};
pub use corpus::{LoadMode, MemoryStats, PreparedCorpus};
pub use daemon::{Daemon, DaemonLimits, DaemonStats};
pub use json::Json;
pub use metrics::{registry_to_json, MetricsServer};
pub use protocol::AttackOptions;
