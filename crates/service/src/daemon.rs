//! The long-lived attack daemon: a readiness-driven TCP server speaking
//! the newline-delimited JSON [`protocol`](crate::protocol) plus
//! length-prefixed binary [`frame`]s for the bulk
//! commands, auto-detected per message by first byte.
//!
//! ## Architecture
//!
//! One [`Daemon`] owns a single **front thread** plus a small pool of
//! **dispatch workers** ([`DaemonLimits::workers`]). The front thread
//! does **framing only** — it never parses a bulk request or serializes
//! a reply; both are billed to the workers:
//!
//! ```text
//!            ┌───────────────────────────────────────────────┐
//!  clients ──▶ front thread: netpoll Poller over nonblocking │
//!            │ listener + every connection; FRAMING ONLY     │
//!            │ (line / binary-frame extraction, cap + magic  │
//!            │ + checksum checks, batch-key byte scan),      │
//!            │ outbox writes, hardening, fast commands       │
//!            │ (stats / metrics / shutdown) served inline    │
//!            └──────┬───────────────────────────▲────────────┘
//!       parse jobs  │   ┌───────────────┐       │ completions
//!       (raw bytes) ├──▶│ batcher:      │       │ (finished
//!                   │   │ group by      │       │  outbox BYTES,
//!                   │   │ corpus Arc ×  │       │  demuxed per
//!                   │   │ thread count, │       │  request)
//!                   │   │ flush after   │       │  + a wake of
//!                   │   │ batch_window  │       │  the poll)
//!                   │   └──────┬────────┘       │
//!                   ▼          ▼                │
//!            ┌───────────────────────────────────────────────┐
//!            │ worker pool: parse / validate raw requests,   │
//!            │ load_snapshot / add_auxiliary / attack batches│
//!            │ via Engine::run_prepared_batch, then emit the │
//!            │ reply JSON into finished outbox bytes         │
//!            └───────────────────────────────────────────────┘
//! ```
//!
//! The front thread multiplexes any number of idle connections over one
//! [`Poller`] (epoll on Linux, `poll(2)` elsewhere on unix, a timed
//! tick fallback otherwise) — no thread per connection. Cheap commands
//! (`stats`, `metrics`, `shutdown`, protocol errors) are answered
//! inline on the front thread, so a scrape never queues behind a
//! multi-second attack. Bulk commands (`attack`,
//! `add_auxiliary_users`, `load_snapshot`) travel to the worker pool as
//! **raw bytes** (`RawRequest`): a worker parses and validates the
//! request, runs it, serializes the reply, and hands the front thread a
//! finished byte buffer to splice into the connection's outbox.
//! Responses come back through a completion queue and are written in
//! per-connection request order.
//!
//! A worker that pushes a finished reply or a parsed attack (bound for
//! its coalescing group) wakes the front thread's poll through the
//! poller's [`Waker`], so neither waits for a timer. The front thread's
//! poll timeout, `POLL_INTERVAL` (25 ms), only limits how long shutdown
//! and read-deadline checks can wait.
//!
//! The front thread's per-request cost is linear in the bytes received,
//! independent of forum size: each connection's inbox and outbox are
//! consumed by offset and compacted only once half their bytes are
//! spent, and the newline search resumes where the previous one
//! stopped. A client that pipelines thousands of requests into one write
//! costs each request only its own bytes.
//!
//! ## Wire encodings
//!
//! Each inbound message picks its encoding by first byte:
//!
//! - any byte other than `0xDE` starts a newline-delimited JSON request
//!   line — the full legacy protocol, every command;
//! - `0xDE` (never a legal first byte of JSON text) starts a binary
//!   frame: magic, command tag, little-endian payload length (so the
//!   total claim is validated against [`DaemonLimits::max_request_bytes`]
//!   from the fixed 8-byte header, **before** any payload is buffered),
//!   payload in the snapshot codec's layout, and an FNV-1a checksum
//!   trailer. Only the bulk payload commands have binary forms
//!   (`attack`, `add_auxiliary_users`); replies are always JSON lines.
//!   See [`frame`] for the exact byte layout.
//!
//! Both encodings of the same request are **bit-identical** on the
//! reply side and coalesce into the same batches
//! (`tests/service_parity.rs` pins both).
//!
//! For batching, the front thread needs one fact from each `attack`
//! request before a worker has parsed it: the effective thread count
//! (part of the group key). A byte scanner
//! ([`frame::scan_top_level`]) extracts it from JSON without building a
//! tree, and [`frame::peek_attack_threads`] reads it from a frame's
//! fixed-offset options block; a request whose scanned key turns out
//! wrong after the full parse is simply re-filed under its actual key.
//!
//! ## Server-side attack batching
//!
//! `attack` requests that arrive within one coalescing window
//! ([`DaemonLimits::batch_window`]) against the **same corpus
//! generation** (grouped by `Arc` identity, so a `load_snapshot`
//! landing mid-window closes the old group) and the same effective
//! thread count are merged into a single
//! [`Engine::run_prepared_batch`](dehealth_engine::Engine::run_prepared_batch)
//! pass: one attribute-index build, one worker-pool schedule, one fused
//! sweep over all requests' users — then demuxed back into per-request
//! replies that are **bit-identical** to running each request alone
//! (the engine keeps every request's numeric state separate; see
//! `tests/service_parity.rs`). On a machine where N concurrent attacks
//! would otherwise time-slice N engine pools, coalescing turns them
//! into one saturated pass. A `batch_window` of zero disables
//! coalescing: every request runs the classic solo
//! [`run_prepared`](dehealth_engine::Engine::run_prepared) path.
//!
//! Corpus state is shared copy-on-write, exactly as before the
//! readiness rewrite:
//!
//! - `attack` requests capture the corpus `Arc` when they are accepted
//!   off the wire and run against that **immutable** snapshot;
//! - `load_snapshot` / `add_auxiliary_users` build the replacement
//!   corpus *outside* the lock and swap the slot afterwards — in-flight
//!   attacks keep the version they started with, and the old version is
//!   freed when the last of them drops its `Arc`.
//!
//! Shutdown is cooperative: the `shutdown` command (or
//! [`Daemon::request_shutdown`]) raises a flag; the front thread stops
//! accepting, drains in-flight jobs and outgoing responses, reaps the
//! workers, and exits. [`Daemon::join`] then reaps the front thread.
//!
//! ## Telemetry
//!
//! Every daemon owns a [`Registry`] ([`Daemon::registry`]): per-command
//! request counters and end-to-end latency histograms (spanning queue
//! wait, coalescing window and execution), error counters by kind,
//! connection gauges, corpus residency and generation gauges, and —
//! after every attack — the engine's per-stage timings
//! ([`EngineReport::record_into`](dehealth_engine::EngineReport::record_into)).
//! The batching layer adds three families: `daemon_batch_size` (a
//! unitless histogram of requests per flushed batch),
//! `daemon_batch_window_seconds` (how long each batch coalesced before
//! flushing) and `daemon_queue_depth` (jobs waiting for a worker).
//! Four per-request **stage timers** split every bulk request's wall
//! time along the worker pipeline — `daemon_parse_seconds` (raw bytes →
//! validated request, on a worker), `daemon_queue_seconds` (waiting for
//! a worker plus any coalescing window), `daemon_engine_seconds`
//! (execution), `daemon_emit_seconds` (reply → outbox bytes, on a
//! worker) — proving parse and emit are billed to the pool, not the
//! front thread. `daemon_encoding_requests_total{encoding=json|binary}`
//! counts how each served request arrived on the wire, and
//! `daemon_attack_seconds` records each attack's latency from wire
//! arrival to engine completion.
//! The whole registry is served by the `metrics` wire command (JSON,
//! [`registry_to_json`]) and by the optional Prometheus scrape endpoint
//! ([`MetricsServer`](crate::metrics::MetricsServer)). [`DaemonStats`]
//! and the `stats` command read the same lock-free counters. Requests
//! slower than [`DaemonLimits::slow_request_threshold`] additionally
//! emit a structured `warn!` log line with the command, corpus
//! generation, user counts, and the per-stage breakdown.
//!
//! ## Hardening against untrusted peers
//!
//! Three [`DaemonLimits`] protect the daemon from misbehaving clients,
//! each answered with a **typed protocol error** (an `"ok": false`
//! response line) instead of a hang or a silent drop:
//!
//! - a per-request byte-size cap (a request line exceeding it is
//!   rejected and the connection closed before the daemon buffers
//!   unbounded data; a binary frame is rejected from its 8-byte header
//!   the moment the declared length exceeds the cap — a header claiming
//!   2 GiB costs the daemon 8 buffered bytes),
//! - a read deadline on half-open connections (a peer that starts a
//!   request and stalls mid-line is timed out and closed), and
//! - a max-connections cap (connections beyond it receive an error line
//!   and are closed immediately, so established sessions keep their
//!   slots).
//!
//! Malformed frames — bad magic, unknown tag, nonzero reserved byte,
//! checksum mismatch (including a JSON line injected inside a frame's
//! declared extent) — get the same treatment: one typed error line
//! counted under its [`ERROR_KINDS`] label, then a closed connection.
//!
//! Backpressure is per connection: while a connection has a request in
//! flight the front thread stops reading its socket, so a pipelining
//! client is bounded by the kernel's TCP buffers, exactly like the
//! thread-per-connection design it replaces.
//!
//! `tests/service_parity.rs` pins the wire schema, the counter
//! semantics, the hardening and malformed-frame behaviors, and
//! batched/unbatched/serial bit-parity across both encodings.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dehealth_core::AttackConfig;
use dehealth_corpus::Forum;
use dehealth_engine::{BatchRequest, Engine, EngineConfig, EngineOutcome};
use dehealth_netpoll::{Event, Interest, Poller, Waker};
use dehealth_telemetry::{info, warn, Counter, Gauge, Histogram, Registry, SpanTimer};

use crate::corpus::{LoadMode, PreparedCorpus};
use crate::frame::{
    self, FrameError, FrameTag, FRAME_HEADER_BYTES, FRAME_MAGIC, FRAME_TRAILER_BYTES,
};
use crate::json::Json;
use crate::metrics::registry_to_json;
use crate::protocol::{error_response, forum_from_json, ok_response, report_to_json};

/// Ceiling on one poll wait: how often the front thread and the workers
/// re-check the shutdown flag and read deadlines even when no socket
/// turns ready. Completions and parsed attacks do not wait for it: the
/// worker that hands one back wakes the front thread.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The front thread's token for the listening socket; connections get
/// tokens counting up from 1 (never reused, so a late event for a
/// closed connection cannot alias a new one).
const LISTENER_TOKEN: usize = 0;

/// Every `cmd` label of the per-command metric families
/// (`daemon_command_requests_total`, `daemon_command_seconds`), all
/// pre-registered at bind time so the first scrape already shows the
/// full label space. `"invalid"` covers unparseable requests and
/// requests without a `cmd`; `"unknown"` covers unrecognized commands.
pub const COMMANDS: [&str; 8] = [
    "add_auxiliary_users",
    "attack",
    "invalid",
    "load_snapshot",
    "metrics",
    "shutdown",
    "stats",
    "unknown",
];

/// Every `kind` label of `daemon_error_kind_total`, pre-registered at
/// bind time. Most classify error *responses*; `connection_cap`,
/// `read_deadline`, `oversize_request` and the two frame kinds
/// (`bad_frame`, `frame_checksum`) classify rejected or dropped
/// *connections* (which also answer with an error line but are not
/// counted as served requests).
pub const ERROR_KINDS: [&str; 11] = [
    "bad_frame",
    "connection_cap",
    "frame_checksum",
    "invalid_argument",
    "invalid_json",
    "missing_cmd",
    "no_corpus",
    "oversize_request",
    "read_deadline",
    "snapshot_load",
    "unknown_cmd",
];

/// Every `encoding` label of `daemon_encoding_requests_total`,
/// pre-registered at bind time: how each served request arrived on the
/// wire — a newline-JSON line or a length-prefixed binary frame.
pub const ENCODINGS: [&str; 2] = ["binary", "json"];

/// Protocol-hardening and dispatch knobs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonLimits {
    /// Maximum bytes one request line may occupy (including pipelined
    /// but not-yet-dispatched bytes buffered for the connection).
    pub max_request_bytes: usize,
    /// How long a connection may sit on an incomplete request line
    /// before it is timed out as half-open.
    pub read_deadline: Duration,
    /// Maximum concurrently served connections; further connections are
    /// rejected with an error line.
    pub max_connections: usize,
    /// Requests taking longer than this emit a structured slow-request
    /// log line (`warn!` level) with a per-stage breakdown.
    pub slow_request_threshold: Duration,
    /// How long an `attack` request may wait for more attack requests
    /// against the same corpus generation to coalesce into one fused
    /// engine pass. Zero disables batching: every attack runs the solo
    /// `run_prepared` path immediately.
    pub batch_window: Duration,
    /// Dispatch worker threads executing attack batches and corpus
    /// updates (clamped to at least 1). Two by default: one long attack
    /// batch cannot starve a corpus update or a second batch.
    pub workers: usize,
}

impl Default for DaemonLimits {
    fn default() -> Self {
        Self {
            max_request_bytes: 64 * 1024 * 1024,
            read_deadline: Duration::from_secs(30),
            max_connections: 64,
            slow_request_threshold: Duration::from_secs(30),
            batch_window: Duration::from_millis(10),
            workers: 2,
        }
    }
}

/// Request/served-work counters exposed by the `stats` command.
///
/// Since the telemetry layer landed this is a *view*: the daemon keeps
/// these counts in lock-free registry counters and materializes a
/// `DaemonStats` on demand ([`Daemon::stats`], the `stats` command), so
/// the struct and the wire response are unchanged from the mutex era
/// while the storage can no longer be poisoned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Total requests handled (including failed ones).
    pub requests: u64,
    /// Requests that returned an error response.
    pub errors: u64,
    /// `attack` requests served.
    pub attacks: u64,
    /// Anonymized users processed across all attacks.
    pub attacked_users: u64,
    /// Users mapped to some auxiliary identity (not `⊥`).
    pub mapped_users: u64,
    /// `load_snapshot` + `add_auxiliary_users` requests served.
    pub corpus_updates: u64,
    /// Connections rejected by the max-connections cap.
    pub rejected_connections: u64,
    /// Connections dropped for violating a request limit (oversize
    /// request line or half-open read deadline).
    pub dropped_connections: u64,
}

/// The daemon's registry plus cached handles for every hot-path counter.
///
/// Handle lookups by label (`command_requests`, `error_kind`) go through
/// the registry's read lock — cheap, and poison-immune by construction.
struct DaemonMetrics {
    registry: Arc<Registry>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    attacks: Arc<Counter>,
    attacked_users: Arc<Counter>,
    mapped_users: Arc<Counter>,
    corpus_updates: Arc<Counter>,
    rejected_connections: Arc<Counter>,
    dropped_connections: Arc<Counter>,
    connections_live: Arc<Gauge>,
    corpus_users: Arc<Gauge>,
    corpus_posts: Arc<Gauge>,
    corpus_generation: Arc<Gauge>,
    corpus_resident_arena_bytes: Arc<Gauge>,
    corpus_borrowed_arena_bytes: Arc<Gauge>,
    /// Requests per flushed attack batch — a **unitless** histogram
    /// (the bucket bounds read as counts, not seconds).
    batch_size: Arc<Histogram>,
    /// How long each flushed batch coalesced (first enqueue → flush).
    batch_window_seconds: Arc<Histogram>,
    /// Jobs waiting for a dispatch worker.
    queue_depth: Arc<Gauge>,
    /// Attack latency, wire arrival → engine completion.
    attack_seconds: Arc<Histogram>,
    /// Per-request stage timers, all billed on dispatch workers: time
    /// decoding the request (JSON parse + validation, or binary frame
    /// decode)…
    parse_seconds: Arc<Histogram>,
    /// …time between coming off the wire and execution start, minus the
    /// parse itself (coalescing window + job-queue wait)…
    queue_seconds: Arc<Histogram>,
    /// …time executing the command (the engine pass, or the corpus
    /// rebuild for updates)…
    engine_seconds: Arc<Histogram>,
    /// …and time serializing the finished reply into outbox bytes.
    emit_seconds: Arc<Histogram>,
    /// Served requests that arrived as newline-JSON lines.
    encoding_json: Arc<Counter>,
    /// Served requests that arrived as binary frames.
    encoding_binary: Arc<Counter>,
}

impl DaemonMetrics {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        for cmd in COMMANDS {
            let _ = registry.counter_with("daemon_command_requests_total", &[("cmd", cmd)]);
            let _ = registry.histogram_with("daemon_command_seconds", &[("cmd", cmd)]);
        }
        for kind in ERROR_KINDS {
            let _ = registry.counter_with("daemon_error_kind_total", &[("kind", kind)]);
        }
        Self {
            requests: registry.counter("daemon_requests_total"),
            errors: registry.counter("daemon_errors_total"),
            attacks: registry.counter("daemon_attacks_total"),
            attacked_users: registry.counter("daemon_attacked_users_total"),
            mapped_users: registry.counter("daemon_mapped_users_total"),
            corpus_updates: registry.counter("daemon_corpus_updates_total"),
            rejected_connections: registry.counter("daemon_rejected_connections_total"),
            dropped_connections: registry.counter("daemon_dropped_connections_total"),
            connections_live: registry.gauge("daemon_connections_live"),
            corpus_users: registry.gauge("corpus_users"),
            corpus_posts: registry.gauge("corpus_posts"),
            corpus_generation: registry.gauge("corpus_generation"),
            corpus_resident_arena_bytes: registry.gauge("corpus_resident_arena_bytes"),
            corpus_borrowed_arena_bytes: registry.gauge("corpus_borrowed_arena_bytes"),
            batch_size: registry.histogram("daemon_batch_size"),
            batch_window_seconds: registry.histogram("daemon_batch_window_seconds"),
            queue_depth: registry.gauge("daemon_queue_depth"),
            attack_seconds: registry.histogram("daemon_attack_seconds"),
            parse_seconds: registry.histogram("daemon_parse_seconds"),
            queue_seconds: registry.histogram("daemon_queue_seconds"),
            engine_seconds: registry.histogram("daemon_engine_seconds"),
            emit_seconds: registry.histogram("daemon_emit_seconds"),
            encoding_json: registry
                .counter_with("daemon_encoding_requests_total", &[("encoding", "json")]),
            encoding_binary: registry
                .counter_with("daemon_encoding_requests_total", &[("encoding", "binary")]),
            registry,
        }
    }

    fn command_requests(&self, cmd: &str) -> Arc<Counter> {
        self.registry.counter_with("daemon_command_requests_total", &[("cmd", cmd)])
    }

    fn command_seconds(&self, cmd: &str) -> Arc<Histogram> {
        self.registry.histogram_with("daemon_command_seconds", &[("cmd", cmd)])
    }

    fn error_kind(&self, kind: &'static str) -> Arc<Counter> {
        self.registry.counter_with("daemon_error_kind_total", &[("kind", kind)])
    }

    /// Refresh the corpus gauges after a swap (or the initial load) and
    /// bump the generation.
    fn observe_corpus(&self, corpus: &PreparedCorpus) {
        let memory = corpus.memory_stats();
        self.corpus_users.set(corpus.n_users() as i64);
        self.corpus_posts.set(corpus.n_posts() as i64);
        self.corpus_resident_arena_bytes.set(memory.resident_arena_bytes as i64);
        self.corpus_borrowed_arena_bytes.set(memory.borrowed_arena_bytes as i64);
        self.corpus_generation.inc();
    }

    /// Materialize the classic [`DaemonStats`] view from the counters.
    fn stats(&self) -> DaemonStats {
        DaemonStats {
            requests: self.requests.get(),
            errors: self.errors.get(),
            attacks: self.attacks.get(),
            attacked_users: self.attacked_users.get(),
            mapped_users: self.mapped_users.get(),
            corpus_updates: self.corpus_updates.get(),
            rejected_connections: self.rejected_connections.get(),
            dropped_connections: self.dropped_connections.get(),
        }
    }
}

/// One complete request as the front thread extracted it — raw bytes,
/// never parsed on the front.
enum RawRequest {
    /// A trimmed newline-JSON request line.
    JsonLine(String),
    /// The checksum-verified payload of a binary `attack` frame.
    AttackFrame(Vec<u8>),
    /// The checksum-verified payload of a binary `add_auxiliary_users`
    /// frame.
    AddUsersFrame(Vec<u8>),
}

/// An `attack` request a worker parsed and validated, headed back to
/// the front thread's coalescing groups (or run solo when batching is
/// off).
struct ReadyAttack {
    conn: usize,
    /// When the request came off the wire — the latency clock.
    received: Instant,
    /// Worker time spent decoding + validating the request.
    parse_seconds: f64,
    /// The actual effective thread count the full parse produced.
    threads: usize,
    attack: AttackConfig,
    forum: Forum,
    corpus: Arc<PreparedCorpus>,
}

/// Work for the dispatch pool.
enum Job {
    /// Parse + validate one raw request; corpus updates run to
    /// completion in the same job, attacks either run solo immediately
    /// (`solo`, when batching is off) or return to the front as a
    /// [`ReadyAttack`].
    Parse {
        conn: usize,
        received: Instant,
        raw: RawRequest,
        /// The front's zero-parse classification: `"attack"`,
        /// `"add_auxiliary_users"` or `"load_snapshot"`.
        label: &'static str,
        /// For attacks: the corpus `Arc` captured when the request came
        /// off the wire (`None` answers `no_corpus` *after* the parse,
        /// preserving the invalid_json > no_corpus precedence).
        corpus: Option<Arc<PreparedCorpus>>,
        /// Run the attack in this job instead of returning it (batch
        /// window zero).
        solo: bool,
    },
    /// A flushed batch: every item captured the same corpus `Arc` and
    /// the same effective thread count.
    Attack { corpus: Arc<PreparedCorpus>, threads: usize, items: Vec<ReadyAttack> },
}

/// A finished request headed back to the front thread: the response
/// line, fully serialized (trailing newline included) by the worker so
/// the front merely splices it into the outbox. `None` means the
/// handler panicked: close the connection without a response, like a
/// died per-connection thread in the old design.
struct Completion {
    conn: usize,
    bytes: Option<Vec<u8>>,
}

struct DaemonState {
    config: EngineConfig,
    limits: DaemonLimits,
    corpus: RwLock<Option<Arc<PreparedCorpus>>>,
    /// Serializes corpus *updates* (`load_snapshot`, `add_auxiliary_users`)
    /// end to end. The copy-on-write rebuild happens outside the `corpus`
    /// lock so attacks never block on it — but without this mutex two
    /// concurrent updates would both clone the same base and the second
    /// swap would silently discard the first one's ingest.
    update: Mutex<()>,
    /// Jobs for the dispatch pool, drained FIFO.
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    /// Finished responses headed back to the front thread.
    completions: Mutex<Vec<Completion>>,
    /// Parsed attacks headed back to the front thread's coalescing
    /// groups (batching on only).
    parsed: Mutex<Vec<ReadyAttack>>,
    /// Ends the front thread's poll wait once a worker has pushed to
    /// `completions` or `parsed`.
    waker: Waker,
    /// Requests in flight anywhere in the pipeline: incremented when a
    /// `Parse` job is enqueued, decremented when the request's
    /// completion is pushed. Workers must not exit while nonzero — a
    /// parsed attack waiting in a coalescing group still needs a worker
    /// for its batch job.
    dispatched: AtomicUsize,
    metrics: DaemonMetrics,
    started: Instant,
    shutting_down: AtomicBool,
}

impl DaemonState {
    /// Clone the current corpus `Arc` (poison-immune: the slot only ever
    /// holds a fully built corpus, swapped in as the last step of an
    /// update, so the value is coherent even after a panicked writer).
    fn corpus(&self) -> Option<Arc<PreparedCorpus>> {
        self.corpus.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    fn swap_corpus(&self, next: PreparedCorpus) {
        let next = Arc::new(next);
        *self.corpus.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&next));
        // Gauges refreshed strictly *after* the swap: a scrape racing an
        // update must never describe a corpus newer than the one attacks
        // can actually observe in the slot.
        self.metrics.observe_corpus(&next);
    }

    fn push_completion(&self, conn: usize, bytes: Option<Vec<u8>>) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Completion { conn, bytes });
        // Saturating: the panic fence pushes a completion for *every*
        // conn its job touched, which can double-complete an item that
        // already answered before the panic.
        let _ =
            self.dispatched.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1));
        self.waker.wake();
    }

    /// Enqueue a request's `Parse` job and count it in flight.
    fn dispatch_request(&self, job: Job) {
        self.dispatched.fetch_add(1, Ordering::SeqCst);
        self.enqueue_job(job);
    }

    fn enqueue_job(&self, job: Job) {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        jobs.push_back(job);
        self.metrics.queue_depth.set(jobs.len() as i64);
        drop(jobs);
        self.jobs_cv.notify_one();
    }
}

/// A running attack service (see the [module docs](self)).
///
/// Dropping the handle does **not** stop the daemon; call
/// [`Daemon::request_shutdown`] (or send the `shutdown` command) and then
/// [`Daemon::join`].
pub struct Daemon {
    addr: SocketAddr,
    state: Arc<DaemonState>,
    front_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl Daemon {
    /// Bind `addr` (e.g. `"127.0.0.1:7699"`, or port 0 for an ephemeral
    /// port — see [`Daemon::addr`]) and start serving with no corpus
    /// loaded; clients must `load_snapshot` or `add_auxiliary_users`
    /// before attacking. `config` supplies the default attack parameters
    /// and worker-pool shape; requests may override `top_k`,
    /// `n_landmarks`, `threads` and `seed` per call.
    ///
    /// # Errors
    /// Propagates socket errors (bind/listen).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: EngineConfig) -> std::io::Result<Self> {
        Self::bind_with_corpus(addr, config, None)
    }

    /// [`Daemon::bind`] with a corpus pre-loaded (the `repro serve` path:
    /// load the snapshot before accepting traffic).
    ///
    /// # Errors
    /// Propagates socket errors (bind/listen).
    pub fn bind_with_corpus<A: ToSocketAddrs>(
        addr: A,
        config: EngineConfig,
        corpus: Option<PreparedCorpus>,
    ) -> std::io::Result<Self> {
        Self::bind_with(addr, config, corpus, DaemonLimits::default())
    }

    /// [`Daemon::bind_with_corpus`] with explicit [`DaemonLimits`]
    /// (protocol hardening, coalescing window, worker count).
    ///
    /// # Errors
    /// Propagates socket errors (bind/listen).
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        config: EngineConfig,
        corpus: Option<PreparedCorpus>,
        limits: DaemonLimits,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut poller = Poller::new().unwrap_or_else(|_| Poller::tick());
        if poller.register(&listener, LISTENER_TOKEN, Interest::READ).is_err() {
            // The tick backend's register cannot fail; fall back so the
            // daemon still serves (inefficiently) instead of dying.
            poller = Poller::tick();
            let _ = poller.register(&listener, LISTENER_TOKEN, Interest::READ);
        }
        let waker = poller.waker()?;
        let metrics = DaemonMetrics::new();
        if let Some(corpus) = &corpus {
            metrics.observe_corpus(corpus);
        }
        let state = Arc::new(DaemonState {
            config,
            limits,
            corpus: RwLock::new(corpus.map(Arc::new)),
            update: Mutex::new(()),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            parsed: Mutex::new(Vec::new()),
            waker,
            dispatched: AtomicUsize::new(0),
            metrics,
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
        });
        info!(
            "daemon listening",
            addr = addr,
            corpus_users = state.metrics.corpus_users.get(),
            max_connections = limits.max_connections
        );
        let workers: Vec<JoinHandle<()>> = (0..limits.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        let front_state = Arc::clone(&state);
        let front_thread =
            std::thread::spawn(move || front_loop(listener, poller, &front_state, workers));
        Ok(Self { addr, state, front_thread: Some(front_thread) })
    }

    /// The bound address (with the actual port when bound to port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once shutdown has been requested (by a client or locally).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down.load(Ordering::SeqCst)
    }

    /// Raise the shutdown flag locally (equivalent to a client sending
    /// the `shutdown` command).
    pub fn request_shutdown(&self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
    }

    /// A copy of the served-work counters.
    #[must_use]
    pub fn stats(&self) -> DaemonStats {
        self.state.metrics.stats()
    }

    /// The daemon's metric registry — shared with the `metrics` wire
    /// command and any [`MetricsServer`](crate::metrics::MetricsServer)
    /// scrape endpoint; still readable after [`Daemon::join`] consumed
    /// the daemon (grab the `Arc` first).
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.state.metrics.registry)
    }

    /// Block until the daemon has shut down (flag raised, jobs drained,
    /// every connection closed), then reap its threads.
    ///
    /// # Panics
    /// Panics if the front loop itself panicked.
    pub fn join(mut self) {
        if let Some(h) = self.front_thread.take() {
            h.join().expect("daemon front loop panicked");
        }
    }
}

/// One accepted connection as the front thread tracks it.
struct Conn {
    stream: TcpStream,
    token: usize,
    /// Raw bytes read but not yet consumed as request lines.
    inbox: ByteQueue,
    /// Response bytes not yet accepted by the socket.
    outbox: ByteQueue,
    /// Set while `inbox` holds an incomplete request line — the clock
    /// the half-open read deadline runs on.
    partial_since: Option<Instant>,
    /// A request from this connection is queued or executing; the front
    /// thread neither reads the socket nor dispatches further lines
    /// until the completion arrives (per-connection request order, TCP
    /// backpressure on pipelining clients).
    in_flight: bool,
    /// The peer half-closed (EOF on read).
    peer_closed: bool,
    /// Close as soon as the outbox drains (shutdown, drop, EOF).
    closing: bool,
    /// Currently registered poller interest.
    interest: Interest,
}

/// A byte FIFO for a connection's inbox or outbox: bytes append at the
/// back and are consumed from the front by moving an offset. Consumed
/// bytes are dropped only once they make up half the buffer, so each
/// byte is moved at most once on average, and a newline search resumes
/// where the last one stopped. Together these keep the front thread's
/// work linear in the bytes a connection sends and receives, however
/// many requests it pipelines into one read.
#[derive(Default)]
struct ByteQueue {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    head: usize,
    /// Unconsumed bytes already searched and known to hold no `\n`.
    scanned: usize,
}

impl ByteQueue {
    /// The unconsumed bytes.
    fn bytes(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Drop the first `n` unconsumed bytes.
    fn consume(&mut self, n: usize) {
        self.head += n;
        self.scanned = self.scanned.saturating_sub(n);
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Offset of the first `\n` in the unconsumed bytes, searching only
    /// bytes no earlier call has searched.
    fn find_newline(&mut self) -> Option<usize> {
        let rest = &self.bytes()[self.scanned..];
        match rest.iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.scanned += i;
                Some(self.scanned)
            }
            None => {
                self.scanned += rest.len();
                None
            }
        }
    }
}

/// One open coalescing group: attacks captured against the same corpus
/// `Arc` with the same effective thread count, waiting for the window to
/// elapse — and for every member's worker-side parse to land.
struct BatchGroup {
    corpus: Arc<PreparedCorpus>,
    threads: usize,
    opened: Instant,
    /// Connections whose attack is still being parsed on a worker. The
    /// group never flushes while nonempty: the parses were dispatched
    /// inside the window, so their requests belong in this batch.
    pending: Vec<usize>,
    /// Parsed, validated members awaiting the flush.
    ready: Vec<ReadyAttack>,
}

/// The front thread: accept, read, extract lines, answer fast commands
/// inline, feed slow ones to the batcher/worker pool, write responses —
/// all multiplexed over one [`Poller`].
fn front_loop(
    listener: TcpListener,
    mut poller: Poller,
    state: &Arc<DaemonState>,
    workers: Vec<JoinHandle<()>>,
) {
    let mut listener = Some(listener);
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut groups: Vec<BatchGroup> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut next_token: usize = LISTENER_TOKEN + 1;
    loop {
        let timeout = wait_timeout(&groups, state.limits.batch_window);
        let _ = poller.wait(&mut events, Some(timeout));

        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                if let Some(l) = &listener {
                    accept_ready(state, l, &mut poller, &mut conns, &mut next_token);
                }
                continue;
            }
            if let Some(conn) = conns.get_mut(&ev.token) {
                if ev.readable && !conn.in_flight && !conn.closing {
                    read_ready(state, &mut groups, conn);
                }
            }
            settle_conn(state, &mut poller, &mut conns, ev.token);
        }

        // File worker-parsed attacks into their coalescing groups (the
        // scanned key's pending entry resolves; a mismatching parse
        // re-files under the actual thread count).
        let ready: Vec<ReadyAttack> =
            std::mem::take(&mut *state.parsed.lock().unwrap_or_else(PoisonError::into_inner));
        for r in ready {
            file_parsed(&mut groups, r);
        }

        // Demux finished jobs back onto their connections, preserving
        // per-connection request order (in_flight gated the next line).
        let done: Vec<Completion> =
            std::mem::take(&mut *state.completions.lock().unwrap_or_else(PoisonError::into_inner));
        for c in done {
            // A completion for a conn still pending in a group means its
            // parse failed (or panicked): the batch must not wait for it.
            for g in &mut groups {
                g.pending.retain(|&t| t != c.conn);
            }
            if let Some(conn) = conns.get_mut(&c.conn) {
                conn.in_flight = false;
                match c.bytes {
                    Some(bytes) => conn.outbox.extend(&bytes),
                    None => conn.closing = true,
                }
                pump(state, &mut groups, conn);
            }
            settle_conn(state, &mut poller, &mut conns, c.conn);
        }

        let shutting = state.shutting_down.load(Ordering::SeqCst);
        flush_groups(state, &mut groups, shutting);

        // Half-open read deadline: a peer that started a request and
        // stalled gets a typed error, not an immortal connection slot.
        let deadline = state.limits.read_deadline;
        let expired: Vec<usize> = conns
            .values()
            .filter(|c| {
                !c.in_flight
                    && !c.closing
                    && c.partial_since.is_some_and(|since| since.elapsed() > deadline)
            })
            .map(|c| c.token)
            .collect();
        for token in expired {
            if let Some(conn) = conns.get_mut(&token) {
                drop_conn_with_error(
                    state,
                    conn,
                    "read_deadline",
                    &format!(
                        "read deadline exceeded with a partial request ({:.1}s)",
                        deadline.as_secs_f64()
                    ),
                );
            }
            settle_conn(state, &mut poller, &mut conns, token);
        }

        if shutting {
            if let Some(l) = listener.take() {
                let _ = poller.deregister(&l, LISTENER_TOKEN);
                // Dropping the listener refuses new connections while
                // the drain below completes.
            }
            let idle: Vec<usize> = conns
                .values_mut()
                .filter_map(|c| {
                    (!c.in_flight && !head_message_complete(&mut c.inbox)).then_some(c.token)
                })
                .collect();
            for token in idle {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.closing = true;
                }
                settle_conn(state, &mut poller, &mut conns, token);
            }
            // `dispatched` covers parses still on a worker and parsed
            // attacks not yet flushed: breaking earlier would strand a
            // ReadyAttack the workers are waiting on and hang `join`.
            if conns.is_empty() && groups.is_empty() && state.dispatched.load(Ordering::SeqCst) == 0
            {
                break;
            }
        }
    }
    // Workers drain the job queue (orphaned jobs for already-closed
    // connections included) and exit on the shutdown flag.
    for w in workers {
        let _ = w.join();
    }
}

/// Next poll wait: the poll interval, shortened to the nearest batch
/// deadline so a coalescing window never overshoots by a full tick.
/// Groups still waiting on a worker-side parse keep the full interval —
/// their flush is gated on the parse landing, not on the clock.
fn wait_timeout(groups: &[BatchGroup], window: Duration) -> Duration {
    let mut timeout = POLL_INTERVAL;
    for g in groups {
        if g.pending.is_empty() {
            timeout = timeout.min(window.saturating_sub(g.opened.elapsed()));
        }
    }
    timeout
}

/// Whether the head of a connection's inbox is one complete request —
/// a full newline-terminated line, or a full binary frame. (A frame
/// with a malformed or oversized header counts as complete: pumping it
/// produces its error reply rather than waiting for more bytes.)
fn head_message_complete(inbox: &mut ByteQueue) -> bool {
    let bytes = inbox.bytes();
    match bytes.first() {
        None => false,
        Some(&b) if b == FRAME_MAGIC[0] => {
            if bytes.len() < FRAME_HEADER_BYTES {
                return false;
            }
            let header: [u8; FRAME_HEADER_BYTES] =
                bytes[..FRAME_HEADER_BYTES].try_into().expect("8 header bytes");
            match frame::parse_header(&header, usize::MAX) {
                Ok(h) => bytes.len() >= h.frame_len(),
                Err(_) => true,
            }
        }
        Some(_) => inbox.find_newline().is_some(),
    }
}

/// Accept every pending connection (the listener is level-triggered but
/// nonblocking, so drain until `WouldBlock`).
fn accept_ready(
    state: &Arc<DaemonState>,
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Max-connections cap: answer over-cap peers with a typed
                // protocol error and close, instead of either queueing
                // them invisibly or starving established sessions.
                if conns.len() >= state.limits.max_connections {
                    state.metrics.rejected_connections.inc();
                    state.metrics.error_kind("connection_cap").inc();
                    reject_connection(stream, state.limits.max_connections);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                if poller.register(&stream, token, Interest::READ).is_err() {
                    continue;
                }
                state.metrics.connections_live.inc();
                conns.insert(
                    token,
                    Conn {
                        stream,
                        token,
                        inbox: ByteQueue::default(),
                        outbox: ByteQueue::default(),
                        partial_since: None,
                        in_flight: false,
                        peer_closed: false,
                        closing: false,
                        interest: Interest::READ,
                    },
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Send one error line to an over-cap connection and drop it. Bounded by
/// a short write timeout so a peer that never reads cannot stall the
/// front thread.
fn reject_connection(stream: TcpStream, cap: usize) {
    let _ = stream.set_write_timeout(Some(POLL_INTERVAL));
    let mut stream = stream;
    let response = error_response(&format!("connection limit reached ({cap})"));
    let _ = stream.write_all(response.emit().as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

/// Drain the socket into the connection's inbox (until `WouldBlock`,
/// EOF, or the inbox exceeds the request-size cap), then serve what
/// arrived.
fn read_ready(state: &Arc<DaemonState>, groups: &mut Vec<BatchGroup>, conn: &mut Conn) {
    let mut chunk = [0u8; 16 * 1024];
    while !conn.peer_closed && conn.inbox.len() <= state.limits.max_request_bytes {
        match conn.stream.read(&mut chunk) {
            Ok(0) => conn.peer_closed = true,
            Ok(n) => conn.inbox.extend(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => conn.peer_closed = true,
        }
    }
    pump(state, groups, conn);
}

/// Serve every complete request the connection has buffered — binary
/// frames and JSON lines freely interleaved, detected per message by
/// the first byte — stopping at the first request that goes in flight
/// (per-connection request order; clients may pipeline, responses keep
/// request order). Then update the half-open bookkeeping on whatever
/// incomplete tail remains.
///
/// This is the whole of the front thread's per-request work: framing
/// and classification over raw bytes. Parsing, execution and reply
/// serialization all happen on dispatch workers.
fn pump(state: &Arc<DaemonState>, groups: &mut Vec<BatchGroup>, conn: &mut Conn) {
    while !conn.in_flight && !conn.closing {
        if conn.inbox.bytes().first() == Some(&FRAME_MAGIC[0]) {
            if !pump_frame(state, groups, conn) {
                break;
            }
            continue;
        }
        let Some(pos) = conn.inbox.find_newline() else { break };
        let line = String::from_utf8_lossy(&conn.inbox.bytes()[..pos]).into_owned();
        conn.inbox.consume(pos + 1);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        state.metrics.encoding_json.inc();
        handle_line(state, groups, conn, line);
    }
    if conn.inbox.is_empty() || head_message_complete(&mut conn.inbox) {
        conn.partial_since = None;
    } else {
        // A request line larger than the cap can never complete —
        // reject it now instead of buffering without bound. (Binary
        // frames never reach this: their cap is enforced from the
        // 8-byte header in `pump_frame`.)
        if !conn.in_flight && !conn.closing && conn.inbox.len() > state.limits.max_request_bytes {
            drop_conn_with_error(
                state,
                conn,
                "oversize_request",
                &format!("request exceeds {} byte limit", state.limits.max_request_bytes),
            );
            return;
        }
        // The deadline clock pauses while a request is in flight (the
        // tail cannot grow: the front stops reading the socket).
        if !conn.in_flight {
            conn.partial_since.get_or_insert_with(Instant::now);
        }
    }
}

/// Try to consume one binary frame from the head of the inbox. Returns
/// `false` when the frame is incomplete (wait for more bytes). A
/// malformed or oversized header is answered from the first 8 bytes —
/// before the payload is buffered, let alone allocated — and a checksum
/// mismatch (including JSON bytes injected inside a frame's declared
/// extent) closes the connection with a typed error.
fn pump_frame(state: &Arc<DaemonState>, groups: &mut Vec<BatchGroup>, conn: &mut Conn) -> bool {
    if conn.inbox.len() < FRAME_HEADER_BYTES {
        return false;
    }
    let header: [u8; FRAME_HEADER_BYTES] =
        conn.inbox.bytes()[..FRAME_HEADER_BYTES].try_into().expect("8 header bytes");
    let parsed = match frame::parse_header(&header, state.limits.max_request_bytes) {
        Ok(h) => h,
        Err(e) => {
            drop_frame_error(state, conn, &e);
            return false;
        }
    };
    let total = parsed.frame_len();
    if conn.inbox.len() < total {
        return false;
    }
    let frame_bytes = &conn.inbox.bytes()[..total];
    let payload = frame_bytes[FRAME_HEADER_BYTES..total - FRAME_TRAILER_BYTES].to_vec();
    let trailer: [u8; FRAME_TRAILER_BYTES] =
        frame_bytes[total - FRAME_TRAILER_BYTES..].try_into().expect("8 trailer bytes");
    conn.inbox.consume(total);
    if let Err(e) = frame::verify_checksum(&payload, &trailer) {
        drop_frame_error(state, conn, &e);
        return false;
    }
    state.metrics.encoding_binary.inc();
    let received = Instant::now();
    match parsed.tag {
        FrameTag::Attack => {
            let scanned_threads =
                frame::peek_attack_threads(&payload).unwrap_or(state.config.n_threads);
            dispatch_attack(
                state,
                groups,
                conn,
                received,
                RawRequest::AttackFrame(payload),
                scanned_threads,
            );
        }
        FrameTag::AddAuxiliaryUsers => {
            conn.in_flight = true;
            state.dispatch_request(Job::Parse {
                conn: conn.token,
                received,
                raw: RawRequest::AddUsersFrame(payload),
                label: "add_auxiliary_users",
                corpus: None,
                solo: false,
            });
        }
    }
    true
}

/// Terminate a connection over a malformed frame: typed error line,
/// counted under the frame error's kind, closed once the line drains.
fn drop_frame_error(state: &Arc<DaemonState>, conn: &mut Conn, e: &FrameError) {
    drop_conn_with_error(state, conn, e.kind(), &e.to_string());
}

/// Classify one request line from its raw bytes and route it: bulk
/// commands (`attack`, `add_auxiliary_users`, `load_snapshot`) go to a
/// dispatch worker unparsed; everything else falls through to the
/// inline fast path.
fn handle_line(
    state: &Arc<DaemonState>,
    groups: &mut Vec<BatchGroup>,
    conn: &mut Conn,
    line: &str,
) {
    let received = Instant::now();
    // Zero-parse classification: a byte scan for the top-level "cmd"
    // key. Lines it cannot follow (escape-laden keys, no simple value)
    // fall through to the inline path's authoritative full parse.
    match frame::scan_top_level(line.as_bytes(), "cmd").as_deref() {
        Some("attack") => {
            let scanned_threads = frame::scan_top_level(line.as_bytes(), "threads")
                .and_then(|t| t.parse::<usize>().ok())
                .unwrap_or(state.config.n_threads);
            dispatch_attack(
                state,
                groups,
                conn,
                received,
                RawRequest::JsonLine(line.to_string()),
                scanned_threads,
            );
        }
        Some(bulk @ ("add_auxiliary_users" | "load_snapshot")) => {
            let label: &'static str =
                if bulk == "load_snapshot" { "load_snapshot" } else { "add_auxiliary_users" };
            conn.in_flight = true;
            state.dispatch_request(Job::Parse {
                conn: conn.token,
                received,
                raw: RawRequest::JsonLine(line.to_string()),
                label,
                corpus: None,
                solo: false,
            });
        }
        _ => handle_control_line(state, groups, conn, received, line),
    }
}

/// The inline path: full-parse the line on the front thread and answer
/// fast commands (`stats`, `metrics`, `shutdown`, protocol errors)
/// immediately, so a stats probe or a scrape never queues behind an
/// attack. Bulk commands land here only when the byte scanner could not
/// classify the line (pathological but legal JSON) — they are handed to
/// a worker like any other bulk request.
fn handle_control_line(
    state: &Arc<DaemonState>,
    groups: &mut Vec<BatchGroup>,
    conn: &mut Conn,
    received: Instant,
    line: &str,
) {
    let parsed = Json::parse(line);
    let (label, shutdown): (&'static str, bool) = match &parsed {
        Err(_) => ("invalid", false),
        Ok(request) => match request.get("cmd").and_then(Json::as_str) {
            None => ("invalid", false),
            Some("load_snapshot") => ("load_snapshot", false),
            Some("add_auxiliary_users") => ("add_auxiliary_users", false),
            Some("attack") => ("attack", false),
            Some("stats") => ("stats", false),
            Some("metrics") => ("metrics", false),
            Some("shutdown") => ("shutdown", true),
            Some(_) => ("unknown", false),
        },
    };
    match label {
        "load_snapshot" | "add_auxiliary_users" => {
            conn.in_flight = true;
            state.dispatch_request(Job::Parse {
                conn: conn.token,
                received,
                raw: RawRequest::JsonLine(line.to_string()),
                label,
                corpus: None,
                solo: false,
            });
        }
        "attack" => {
            let request = parsed.expect("label implies the request parsed");
            let scanned_threads =
                request.get("threads").and_then(Json::as_usize).unwrap_or(state.config.n_threads);
            dispatch_attack(
                state,
                groups,
                conn,
                received,
                RawRequest::JsonLine(line.to_string()),
                scanned_threads,
            );
        }
        _ => {
            let result: Result<Vec<(String, Json)>, CmdError> = match &parsed {
                Err(e) => Err(CmdError::new("invalid_json", format!("invalid JSON: {e}"))),
                Ok(request) => match label {
                    "invalid" => Err(CmdError::new("missing_cmd", "missing cmd")),
                    "stats" => cmd_stats(state),
                    "metrics" => {
                        Ok(vec![("metrics".into(), registry_to_json(&state.metrics.registry))])
                    }
                    "shutdown" => Ok(Vec::new()),
                    _unknown => {
                        let cmd = request.get("cmd").and_then(Json::as_str).unwrap_or_default();
                        Err(CmdError::new("unknown_cmd", format!("unknown cmd {cmd:?}")))
                    }
                },
            };
            let response = finalize_response(state, label, received, result);
            queue_response(conn, &response);
            if shutdown {
                state.shutting_down.store(true, Ordering::SeqCst);
                conn.closing = true;
            }
        }
    }
}

/// Put one raw `attack` request in flight: capture the corpus `Arc`
/// (a swap landing later affects later requests, not this one — and
/// batches group by this `Arc`, so a swap mid-window closes the old
/// group), file the connection into the coalescing group for the
/// *scanned* batch key, and dispatch the parse to a worker. With
/// batching off the worker runs the attack in the same job; with no
/// corpus loaded the worker answers `no_corpus` after its parse (so
/// invalid JSON still outranks it, exactly like the fully inline era).
fn dispatch_attack(
    state: &Arc<DaemonState>,
    groups: &mut Vec<BatchGroup>,
    conn: &mut Conn,
    received: Instant,
    raw: RawRequest,
    scanned_threads: usize,
) {
    let corpus = state.corpus();
    let solo = state.limits.batch_window.is_zero();
    conn.in_flight = true;
    if let (Some(corpus), false) = (&corpus, solo) {
        file_pending(groups, corpus, scanned_threads, conn.token);
    }
    state.dispatch_request(Job::Parse {
        conn: conn.token,
        received,
        raw,
        label: "attack",
        corpus,
        solo,
    });
}

/// File a connection's in-flight parse into the coalescing group for
/// its (corpus, scanned threads) key, opening a new group (and its
/// window clock) if none matches.
fn file_pending(
    groups: &mut Vec<BatchGroup>,
    corpus: &Arc<PreparedCorpus>,
    threads: usize,
    token: usize,
) {
    if let Some(group) =
        groups.iter_mut().find(|g| g.threads == threads && Arc::ptr_eq(&g.corpus, corpus))
    {
        group.pending.push(token);
        return;
    }
    groups.push(BatchGroup {
        corpus: Arc::clone(corpus),
        threads,
        opened: Instant::now(),
        pending: vec![token],
        ready: Vec::new(),
    });
}

/// File one worker-parsed attack: resolve its pending entry (the token
/// is unique to this in-flight request, so it is cleared from every
/// group), then place it by its *actual* thread count — re-filing into
/// (or opening) the right group when the byte scan and the full parse
/// disagree.
fn file_parsed(groups: &mut Vec<BatchGroup>, r: ReadyAttack) {
    for g in groups.iter_mut() {
        g.pending.retain(|&t| t != r.conn);
    }
    if let Some(g) =
        groups.iter_mut().find(|g| g.threads == r.threads && Arc::ptr_eq(&g.corpus, &r.corpus))
    {
        g.ready.push(r);
        return;
    }
    groups.push(BatchGroup {
        corpus: Arc::clone(&r.corpus),
        threads: r.threads,
        opened: Instant::now(),
        pending: Vec::new(),
        ready: vec![r],
    });
}

/// Hand every expired group (all of them when `force` — shutdown) to
/// the worker pool as one fused batch job. A group whose members are
/// still being parsed holds until every parse lands (the requests were
/// framed inside the window; sequential parsing must not fragment the
/// batch), then flushes on the next tick.
fn flush_groups(state: &Arc<DaemonState>, groups: &mut Vec<BatchGroup>, force: bool) {
    let window = state.limits.batch_window;
    let mut i = 0;
    while i < groups.len() {
        let expired = force || window.is_zero() || groups[i].opened.elapsed() >= window;
        if expired && groups[i].pending.is_empty() {
            let group = groups.swap_remove(i);
            if group.ready.is_empty() {
                // Every member's parse failed — nothing ran, no batch.
                continue;
            }
            state.metrics.batch_size.record_secs(group.ready.len() as f64);
            state.metrics.batch_window_seconds.record(group.opened.elapsed());
            state.enqueue_job(Job::Attack {
                corpus: group.corpus,
                threads: group.threads,
                items: group.ready,
            });
        } else {
            i += 1;
        }
    }
}

/// Append one response line to the connection's outbox.
fn queue_response(conn: &mut Conn, response: &Json) {
    conn.outbox.extend(response.emit().as_bytes());
    conn.outbox.extend(b"\n");
}

/// Terminate a misbehaving connection: best-effort error line, counted
/// in the stats, closed once the line drains.
fn drop_conn_with_error(
    state: &Arc<DaemonState>,
    conn: &mut Conn,
    kind: &'static str,
    message: &str,
) {
    state.metrics.dropped_connections.inc();
    state.metrics.error_kind(kind).inc();
    queue_response(conn, &error_response(message));
    conn.closing = true;
}

/// Flush, close and re-arm one connection after any activity: write as
/// much of the outbox as the socket accepts, drop the connection when
/// it is finished (or its socket died), and sync the poller interest to
/// what it is actually waiting for.
fn settle_conn(
    state: &Arc<DaemonState>,
    poller: &mut Poller,
    conns: &mut HashMap<usize, Conn>,
    token: usize,
) {
    let Some(conn) = conns.get_mut(&token) else { return };
    let alive = flush_outbox(conn);
    let drained_eof =
        conn.peer_closed && !conn.in_flight && !head_message_complete(&mut conn.inbox);
    if !alive || ((conn.closing || drained_eof) && conn.outbox.is_empty()) {
        let conn = conns.remove(&token).expect("connection was just looked up");
        let _ = poller.deregister(&conn.stream, token);
        state.metrics.connections_live.dec();
        return;
    }
    // Steady state: read only when this connection may dispatch another
    // line; write only while response bytes are queued.
    let desired = Interest {
        readable: !conn.in_flight && !conn.peer_closed && !conn.closing,
        writable: !conn.outbox.is_empty(),
    };
    if desired != conn.interest && poller.modify(&conn.stream, token, desired).is_ok() {
        conn.interest = desired;
    }
}

/// Write as much of the outbox as the socket accepts right now.
/// Returns `false` when the socket is dead.
fn flush_outbox(conn: &mut Conn) -> bool {
    while !conn.outbox.is_empty() {
        match conn.stream.write(conn.outbox.bytes()) {
            Ok(0) => return false,
            Ok(n) => conn.outbox.consume(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// A dispatch worker: pop jobs until shutdown, executing each with a
/// panic fence so one poisoned request cannot take the pool down.
fn worker_loop(state: &Arc<DaemonState>) {
    loop {
        let job = {
            let mut jobs = state.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = jobs.pop_front() {
                    state.metrics.queue_depth.set(jobs.len() as i64);
                    break Some(job);
                }
                // Exit only when nothing is in flight anywhere in the
                // pipeline: a parsed attack waiting in a coalescing
                // group still becomes a batch job for this pool.
                if state.shutting_down.load(Ordering::SeqCst)
                    && state.dispatched.load(Ordering::SeqCst) == 0
                {
                    break None;
                }
                let (guard, _) = state
                    .jobs_cv
                    .wait_timeout(jobs, POLL_INTERVAL)
                    .unwrap_or_else(PoisonError::into_inner);
                jobs = guard;
            }
        };
        let Some(job) = job else { return };
        run_job(state, job);
    }
}

/// Execute one job; a panicking handler closes its connection(s)
/// without a response — the moral equivalent of a died
/// thread-per-connection handler — instead of wedging the front loop on
/// a completion that never comes.
fn run_job(state: &Arc<DaemonState>, job: Job) {
    let conns: Vec<usize> = match &job {
        Job::Attack { items, .. } => items.iter().map(|i| i.conn).collect(),
        Job::Parse { conn, .. } => vec![*conn],
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match job {
        Job::Parse { conn, received, raw, label, corpus, solo } => {
            run_parse_job(state, conn, received, raw, label, corpus, solo);
        }
        Job::Attack { corpus, threads, items } => run_attack_job(state, &corpus, threads, items),
    }));
    if outcome.is_err() {
        for conn in conns {
            state.push_completion(conn, None);
        }
    }
}

/// Serialize a finished response into its wire line (the emit billed to
/// `daemon_emit_seconds`) and hand it back to the front thread.
fn respond(
    state: &Arc<DaemonState>,
    conn: usize,
    label: &str,
    received: Instant,
    result: Result<Vec<(String, Json)>, CmdError>,
) {
    let response = finalize_response(state, label, received, result);
    let timer = SpanTimer::new(Arc::clone(&state.metrics.emit_seconds));
    let mut bytes = response.emit().into_bytes();
    bytes.push(b'\n');
    timer.stop();
    state.push_completion(conn, Some(bytes));
}

/// Record the queue stage for one request: wire arrival → execution
/// start, minus the parse itself.
fn record_queue(state: &Arc<DaemonState>, received: Instant, parse_seconds: f64) {
    state
        .metrics
        .queue_seconds
        .record_secs((received.elapsed().as_secs_f64() - parse_seconds).max(0.0));
}

/// Parse + validate one raw request on a worker. Corpus updates run to
/// completion here; a valid attack either runs solo (batching off) or
/// returns to the front as a [`ReadyAttack`] for its coalescing group.
#[allow(clippy::too_many_arguments)]
fn run_parse_job(
    state: &Arc<DaemonState>,
    conn: usize,
    received: Instant,
    raw: RawRequest,
    label: &'static str,
    corpus: Option<Arc<PreparedCorpus>>,
    solo: bool,
) {
    let parse_timer = SpanTimer::new(Arc::clone(&state.metrics.parse_seconds));
    // Decode the raw bytes into (attack, forum, threads) for attacks, a
    // Forum for ingests, or the parsed request for load_snapshot — any
    // error ends the request right here with the same kind, message and
    // command label the fully inline era produced.
    match raw {
        RawRequest::JsonLine(line) => {
            let request = match Json::parse(&line) {
                Ok(request) => request,
                Err(e) => {
                    let parse_seconds = parse_timer.stop().as_secs_f64();
                    record_queue(state, received, parse_seconds);
                    // Unparseable lines are billed to the "invalid"
                    // command, exactly like the front-thread era.
                    return respond(
                        state,
                        conn,
                        "invalid",
                        received,
                        Err(CmdError::new("invalid_json", format!("invalid JSON: {e}"))),
                    );
                }
            };
            match label {
                "attack" => {
                    let parsed = parse_attack_request(state, &request);
                    finish_attack_parse(state, conn, received, parse_timer, corpus, solo, parsed);
                }
                "add_auxiliary_users" => {
                    let chunk = request
                        .get("forum")
                        .ok_or("missing forum")
                        .and_then(|v| forum_from_json(v).map_err(|_| "invalid forum"));
                    let parse_seconds = parse_timer.stop().as_secs_f64();
                    record_queue(state, received, parse_seconds);
                    let result = match chunk {
                        Ok(chunk) => {
                            let timer = SpanTimer::new(Arc::clone(&state.metrics.engine_seconds));
                            let result = cmd_add_auxiliary_users(state, chunk);
                            timer.stop();
                            result
                        }
                        Err(e) => Err(CmdError::new("invalid_argument", e)),
                    };
                    respond(state, conn, label, received, result);
                }
                _ => {
                    let parse_seconds = parse_timer.stop().as_secs_f64();
                    record_queue(state, received, parse_seconds);
                    let timer = SpanTimer::new(Arc::clone(&state.metrics.engine_seconds));
                    let result = cmd_load_snapshot(state, &request);
                    timer.stop();
                    respond(state, conn, label, received, result);
                }
            }
        }
        RawRequest::AttackFrame(payload) => {
            let parsed = frame::decode_attack_payload(&payload)
                .map(|p| {
                    let mut attack = state.config.attack.clone();
                    if let Some(k) = p.options.top_k {
                        attack.top_k = k;
                    }
                    if let Some(h) = p.options.n_landmarks {
                        attack.n_landmarks = h;
                    }
                    if let Some(s) = p.options.seed {
                        attack.seed = s;
                    }
                    let threads = p.options.threads.unwrap_or(state.config.n_threads);
                    (attack, p.forum, threads)
                })
                .map_err(|e| CmdError::new("invalid_argument", e));
            finish_attack_parse(state, conn, received, parse_timer, corpus, solo, parsed);
        }
        RawRequest::AddUsersFrame(payload) => {
            let chunk = frame::decode_add_users_payload(&payload);
            let parse_seconds = parse_timer.stop().as_secs_f64();
            record_queue(state, received, parse_seconds);
            let result = match chunk {
                Ok(chunk) => {
                    let timer = SpanTimer::new(Arc::clone(&state.metrics.engine_seconds));
                    let result = cmd_add_auxiliary_users(state, chunk);
                    timer.stop();
                    result
                }
                Err(e) => Err(CmdError::new("invalid_argument", e)),
            };
            respond(state, conn, "add_auxiliary_users", received, result);
        }
    }
}

/// Close out an attack's parse phase: an error answers immediately (the
/// front unblocks its coalescing group on the completion), `no_corpus`
/// is answered after the parse (invalid requests outrank it), and a
/// valid request runs solo or returns to the front for batching.
#[allow(clippy::too_many_arguments)]
fn finish_attack_parse(
    state: &Arc<DaemonState>,
    conn: usize,
    received: Instant,
    parse_timer: SpanTimer,
    corpus: Option<Arc<PreparedCorpus>>,
    solo: bool,
    parsed: Result<(AttackConfig, Forum, usize), CmdError>,
) {
    let parse_seconds = parse_timer.stop().as_secs_f64();
    // `no_corpus` outranks per-field validation (`invalid_argument`),
    // matching the inline era where the corpus slot was checked before
    // the request body — while invalid JSON / a bad frame still outrank
    // both (answered before this function runs).
    let Some(corpus) = corpus else {
        record_queue(state, received, parse_seconds);
        return respond(
            state,
            conn,
            "attack",
            received,
            Err(CmdError::new(
                "no_corpus",
                "no corpus loaded (send load_snapshot or add_auxiliary_users)",
            )),
        );
    };
    let (attack, forum, threads) = match parsed {
        Ok(parts) => parts,
        Err(e) => {
            record_queue(state, received, parse_seconds);
            return respond(state, conn, "attack", received, Err(e));
        }
    };
    let ready = ReadyAttack { conn, received, parse_seconds, threads, attack, forum, corpus };
    if solo {
        let corpus = Arc::clone(&ready.corpus);
        let threads = ready.threads;
        run_attack_job(state, &corpus, threads, vec![ready]);
    } else {
        state.parsed.lock().unwrap_or_else(PoisonError::into_inner).push(ready);
        state.waker.wake();
    }
}

/// Execute and demux one attack batch of parsed, validated requests.
/// Single-item batches (always the case with `batch_window == 0`) take
/// the classic solo `run_prepared` path; larger ones run the fused
/// `run_prepared_batch` — both bit-identical per request.
fn run_attack_job(
    state: &Arc<DaemonState>,
    corpus: &Arc<PreparedCorpus>,
    threads: usize,
    items: Vec<ReadyAttack>,
) {
    if items.is_empty() {
        return;
    }
    for item in &items {
        record_queue(state, item.received, item.parse_seconds);
    }
    let engine_start = Instant::now();
    let outcomes: Vec<EngineOutcome> = if items.len() == 1 {
        let item = &items[0];
        let engine = Engine::new(EngineConfig {
            n_threads: threads,
            attack: item.attack.clone(),
            ..state.config.clone()
        });
        vec![corpus.attack(&engine, &item.forum)]
    } else {
        let engine = Engine::new(EngineConfig { n_threads: threads, ..state.config.clone() });
        let requests: Vec<BatchRequest<'_>> = items
            .iter()
            .map(|item| BatchRequest { attack: item.attack.clone(), anonymized: &item.forum })
            .collect();
        corpus.attack_batch(&engine, &requests)
    };
    // Each request experienced the whole fused pass — the engine stage
    // is the batch's wall time, recorded per request like
    // `daemon_command_seconds`.
    let engine_elapsed = engine_start.elapsed();
    for (item, outcome) in items.iter().zip(outcomes) {
        state.metrics.engine_seconds.record(engine_elapsed);
        state.metrics.attack_seconds.record(item.received.elapsed());
        state.metrics.attacks.inc();
        state.metrics.attacked_users.add(item.forum.n_users as u64);
        state
            .metrics
            .mapped_users
            .add(outcome.mapping.iter().filter(|m| m.is_some()).count() as u64);
        // Per-stage latency histograms across requests — the engine
        // report flows into the daemon's registry.
        outcome.report.record_into(&state.metrics.registry);
        let mapping = outcome.mapping.iter().map(|m| m.map_or(Json::Null, Json::int)).collect();
        let candidates = outcome
            .candidates
            .iter()
            .map(|c| Json::Arr(c.iter().map(|&v| Json::int(v)).collect()))
            .collect();
        let fields = vec![
            ("mapping".into(), Json::Arr(mapping)),
            ("candidates".into(), Json::Arr(candidates)),
            ("report".into(), report_to_json(&outcome.report)),
        ];
        respond(state, item.conn, "attack", item.received, Ok(fields));
    }
}

/// Resolve one attack request's forum, per-request overrides and
/// effective thread count against the daemon's defaults (same field
/// order — and therefore the same first error — as the pre-batching
/// daemon).
fn parse_attack_request(
    state: &Arc<DaemonState>,
    request: &Json,
) -> Result<(AttackConfig, Forum, usize), CmdError> {
    let anonymized = match request
        .get("forum")
        .ok_or_else(|| "missing forum".to_string())
        .and_then(forum_from_json)
    {
        Ok(f) => f,
        Err(e) => return Err(CmdError::new("invalid_argument", e)),
    };
    let mut attack = state.config.attack.clone();
    if let Some(k) = request.get("top_k") {
        match k.as_usize() {
            Some(k) => attack.top_k = k,
            None => return Err(CmdError::new("invalid_argument", "invalid top_k")),
        }
    }
    if let Some(h) = request.get("n_landmarks") {
        match h.as_usize() {
            Some(h) => attack.n_landmarks = h,
            None => return Err(CmdError::new("invalid_argument", "invalid n_landmarks")),
        }
    }
    if let Some(s) = request.get("seed") {
        match s.as_usize() {
            Some(s) => attack.seed = s as u64,
            None => return Err(CmdError::new("invalid_argument", "invalid seed")),
        }
    }
    let threads = match request.get("threads") {
        None => state.config.n_threads,
        Some(t) => match t.as_usize() {
            Some(t) => t,
            None => return Err(CmdError::new("invalid_argument", "invalid threads")),
        },
    };
    Ok((attack, anonymized, threads))
}

/// A failed command: the error-kind label for
/// `daemon_error_kind_total` plus the wire message.
struct CmdError {
    kind: &'static str,
    message: String,
}

impl CmdError {
    fn new(kind: &'static str, message: impl Into<String>) -> Self {
        Self { kind, message: message.into() }
    }
}

/// Turn a handler result into the wire response and account for it:
/// latency sample (from wire arrival through queueing and execution),
/// per-command and error-kind counters, the slow-request log line, and
/// the served-request totals. Counted after the handler, before the
/// response is written — a `stats` response reports the requests
/// *before* it, not itself.
fn finalize_response(
    state: &Arc<DaemonState>,
    label: &str,
    received: Instant,
    result: Result<Vec<(String, Json)>, CmdError>,
) -> Json {
    let timer = SpanTimer::starting_at(state.metrics.command_seconds(label), received);
    let response = match result {
        Ok(fields) => ok_response(fields),
        Err(e) => {
            state.metrics.error_kind(e.kind).inc();
            error_response(&e.message)
        }
    };
    state.metrics.command_requests(label).inc();
    let elapsed = timer.stop();
    if elapsed >= state.limits.slow_request_threshold {
        warn!(
            "slow request",
            cmd = label,
            seconds = format!("{:.3}", elapsed.as_secs_f64()),
            corpus_generation = state.metrics.corpus_generation.get(),
            corpus_users = state.metrics.corpus_users.get(),
            request_users =
                response.get("mapping").and_then(Json::as_array).map_or(0, <[Json]>::len),
            stages = stage_breakdown(&response)
        );
    }
    state.metrics.requests.inc();
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        state.metrics.errors.inc();
    }
    response
}

/// Compact `stage=secs` breakdown from a response's embedded report, for
/// the slow-request log line (`"-"` when the response carries none).
fn stage_breakdown(response: &Json) -> String {
    let Some(stages) =
        response.get("report").and_then(|r| r.get("stages")).and_then(Json::as_array)
    else {
        return "-".into();
    };
    let parts: Vec<String> = stages
        .iter()
        .filter_map(|s| {
            let name = s.get("stage").and_then(Json::as_str)?;
            let seconds = s.get("seconds").and_then(Json::as_f64)?;
            Some(format!("{name}={seconds:.3}s"))
        })
        .collect();
    if parts.is_empty() {
        "-".into()
    } else {
        parts.join(" ")
    }
}

fn cmd_load_snapshot(
    state: &Arc<DaemonState>,
    request: &Json,
) -> Result<Vec<(String, Json)>, CmdError> {
    let Some(path) = request.get("path").and_then(Json::as_str) else {
        return Err(CmdError::new("invalid_argument", "missing path"));
    };
    // Optional `"mode": "mmap" | "owned"` — default zero-copy.
    let mode = match request.get("mode").and_then(Json::as_str) {
        None | Some("mmap") => LoadMode::Mapped,
        Some("owned") => LoadMode::Owned,
        Some(other) => {
            return Err(CmdError::new(
                "invalid_argument",
                format!("invalid load mode {other:?} (mmap or owned)"),
            ))
        }
    };
    let _updating = state.update.lock().unwrap_or_else(PoisonError::into_inner);
    match PreparedCorpus::load_timed_with(Path::new(path), mode) {
        Ok((corpus, seconds)) => {
            let users = corpus.n_users();
            let posts = corpus.n_posts();
            let memory = corpus.memory_stats();
            let mapped = corpus.is_mapped();
            state.swap_corpus(corpus);
            state.metrics.corpus_updates.inc();
            info!(
                "corpus loaded",
                path = path,
                users = users,
                posts = posts,
                generation = state.metrics.corpus_generation.get()
            );
            Ok(vec![
                ("users".into(), Json::int(users)),
                ("posts".into(), Json::int(posts)),
                ("seconds".into(), Json::Num(seconds)),
                ("mapped".into(), Json::Bool(mapped)),
                ("resident_arena_bytes".into(), Json::int(memory.resident_arena_bytes)),
                ("borrowed_arena_bytes".into(), Json::int(memory.borrowed_arena_bytes)),
            ])
        }
        Err(e) => Err(CmdError::new("snapshot_load", format!("snapshot load failed: {e}"))),
    }
}

/// Ingest one auxiliary-user chunk. The forum arrives already decoded —
/// the worker bills its parse (JSON or binary frame) to
/// `daemon_parse_seconds` before this runs.
fn cmd_add_auxiliary_users(
    state: &Arc<DaemonState>,
    chunk: Forum,
) -> Result<Vec<(String, Json)>, CmdError> {
    // Copy-on-write under the update lock: clone the current corpus (or
    // bootstrap from the chunk alone), extend it outside the `corpus`
    // lock so attacks stay unblocked, then swap the slot. The update
    // lock makes concurrent ingests append sequentially instead of both
    // building on the same base and losing one chunk at the swap.
    let _updating = state.update.lock().unwrap_or_else(PoisonError::into_inner);
    let current = state.corpus();
    let next = match current {
        Some(corpus) => {
            let mut next = (*corpus).clone();
            next.append_users(&chunk);
            next
        }
        None => PreparedCorpus::build(chunk, state.config.attack.classifier),
    };
    let users = next.n_users();
    let posts = next.n_posts();
    state.swap_corpus(next);
    state.metrics.corpus_updates.inc();
    Ok(vec![("users".into(), Json::int(users)), ("posts".into(), Json::int(posts))])
}

fn cmd_stats(state: &Arc<DaemonState>) -> Result<Vec<(String, Json)>, CmdError> {
    let stats = state.metrics.stats();
    let (users, posts) = state.corpus().map_or((0, 0), |c| (c.n_users(), c.n_posts()));
    Ok(vec![
        ("corpus_users".into(), Json::int(users)),
        ("corpus_posts".into(), Json::int(posts)),
        ("requests".into(), Json::Num(stats.requests as f64)),
        ("errors".into(), Json::Num(stats.errors as f64)),
        ("attacks".into(), Json::Num(stats.attacks as f64)),
        ("attacked_users".into(), Json::Num(stats.attacked_users as f64)),
        ("mapped_users".into(), Json::Num(stats.mapped_users as f64)),
        ("corpus_updates".into(), Json::Num(stats.corpus_updates as f64)),
        ("rejected_connections".into(), Json::Num(stats.rejected_connections as f64)),
        ("dropped_connections".into(), Json::Num(stats.dropped_connections as f64)),
        ("uptime_seconds".into(), Json::Num(state.started.elapsed().as_secs_f64())),
    ])
}

/// Default engine configuration for a daemon: the paper-default attack
/// with machine parallelism (`n_threads = 0`).
#[must_use]
pub fn default_config() -> EngineConfig {
    EngineConfig { attack: AttackConfig::default(), ..EngineConfig::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::{Forum, ForumConfig};
    use std::thread;

    /// Pins the `swap_corpus` ordering fix: the slot is swapped *before*
    /// the gauges are refreshed, so a scrape racing an update may see a
    /// stale (smaller) gauge, but never a gauge describing a corpus newer
    /// than the one attacks can observe. With the old order (gauges
    /// first) a strictly-growing sequence of swaps makes the inverted
    /// window directly observable: `gauge_users > slot_users`.
    #[test]
    fn corpus_gauges_never_lead_the_slot_during_swaps() {
        let base = Forum::generate(&ForumConfig::tiny(), 42);
        let chunk = Forum::generate(&ForumConfig::tiny(), 77);
        let mut corpora = Vec::new();
        let mut corpus = PreparedCorpus::build(base, Default::default());
        for _ in 0..16 {
            corpus.append_users(&chunk);
            corpora.push(corpus.clone());
        }

        let state = Arc::new(DaemonState {
            config: default_config(),
            limits: DaemonLimits::default(),
            corpus: RwLock::new(None),
            update: Mutex::new(()),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            parsed: Mutex::new(Vec::new()),
            waker: Waker::default(),
            dispatched: AtomicUsize::new(0),
            metrics: DaemonMetrics::new(),
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
        });

        let swapper = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                for corpus in corpora {
                    state.swap_corpus(corpus);
                }
            })
        };
        while !swapper.is_finished() {
            // Sample gauge first, slot second: if the implementation ever
            // publishes gauges before the swap, the gauge can describe a
            // corpus the slot does not hold yet and this inverts.
            let gauge_users = state.metrics.corpus_users.get();
            let slot_users = state.corpus().map_or(0, |c| c.n_users() as i64);
            assert!(
                slot_users >= gauge_users,
                "corpus_users gauge ({gauge_users}) leads the corpus slot ({slot_users})"
            );
        }
        swapper.join().unwrap();
        assert_eq!(state.metrics.corpus_users.get(), state.corpus().unwrap().n_users() as i64);
    }

    /// `mode` and `margin` once selected an approximate attack tier.
    /// They are unknown fields now, which the JSON path ignores: every
    /// such request gets the exact answer.
    #[test]
    fn retired_mode_and_margin_fields_get_the_exact_answer() {
        use crate::client::ServiceClient;
        use crate::protocol::forum_to_json;
        use dehealth_corpus::{closed_world_split, SplitConfig};

        let forum = Forum::generate(&ForumConfig::tiny(), 42);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 7);
        let corpus = PreparedCorpus::build(split.auxiliary, Default::default());
        let daemon =
            Daemon::bind_with_corpus("127.0.0.1:0", default_config(), Some(corpus)).unwrap();
        let mut client = ServiceClient::connect(daemon.addr()).unwrap();
        let mut attack = |extra: Vec<(String, Json)>| {
            let mut fields = vec![
                ("cmd".into(), Json::Str("attack".into())),
                ("forum".into(), forum_to_json(&split.anonymized)),
            ];
            fields.extend(extra);
            let reply = client.request(&Json::Obj(fields)).unwrap();
            ["mapping", "candidates"].map(|key| reply.get(key).map(Json::emit))
        };
        let exact = attack(Vec::new());
        assert!(exact.iter().all(Option::is_some));
        for extra in [
            vec![("mode".into(), Json::Str("exact".into()))],
            vec![("mode".into(), Json::Str("approx".into()))],
            vec![("mode".into(), Json::Str("approx".into())), ("margin".into(), Json::Num(0.5))],
            vec![("margin".into(), Json::Num(-1.0))],
        ] {
            assert_eq!(attack(extra), exact);
        }
        client.shutdown().unwrap();
        daemon.join();
    }
}
