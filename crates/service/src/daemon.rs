//! The long-lived attack daemon: a readiness-driven TCP server speaking
//! the newline-delimited JSON [`protocol`](crate::protocol). Every
//! request is one JSON line and every reply is one JSON line.
//!
//! ## Architecture
//!
//! One [`Daemon`] owns a single **front thread** plus a small pool of
//! **dispatch workers** ([`DaemonLimits::workers`]). The front thread
//! does **line splitting only** — it never parses a bulk request or
//! serializes a reply; both are billed to the workers:
//!
//! ```text
//!            ┌───────────────────────────────────────────────┐
//!  clients ──▶ front thread: netpoll Poller over nonblocking │
//!            │ listener + every connection; LINES ONLY       │
//!            │ (newline split, byte cap, `cmd` byte scan),   │
//!            │ outbox writes, hardening, fast commands       │
//!            │ (stats / metrics / shutdown) served inline    │
//!            └──────┬───────────────────────────▲────────────┘
//!       jobs        │                           │ completions
//!       (raw lines) │                           │ (finished outbox
//!                   │                           │  BYTES, plus a
//!                   ▼                           │  wake of the poll)
//!            ┌──────────────────────────────────┴────────────┐
//!            │ worker pool: parse / validate raw requests,   │
//!            │ load_snapshot / add_auxiliary / attack (one   │
//!            │ PreparedCorpus::attack per request), then     │
//!            │ emit the reply JSON into finished outbox bytes│
//!            └───────────────────────────────────────────────┘
//! ```
//!
//! The front thread multiplexes any number of idle connections over one
//! [`Poller`] (epoll on Linux, `poll(2)` elsewhere on unix, the portable
//! tick backend off unix) — no thread per connection. A poller that
//! cannot be created, or cannot register the listener, fails
//! [`Daemon::bind_with`]. Cheap commands (`stats`, `metrics`,
//! `shutdown`, protocol errors) are answered inline on the front
//! thread, so a scrape never queues behind a multi-second attack. Bulk
//! commands (`attack`, `add_auxiliary_users`, `load_snapshot`) travel
//! to the worker pool as the **raw request line**: a worker parses
//! and validates the request, runs it, serializes the reply, and hands
//! the front thread a finished byte buffer to splice into the
//! connection's outbox.
//! Responses come back through a completion queue and are written in
//! per-connection request order.
//!
//! A worker that pushes a finished reply wakes the front thread's poll
//! through the poller's [`Waker`], so no reply waits for a timer. The
//! front thread's poll timeout, `POLL_INTERVAL` (25 ms), only limits how
//! long shutdown and read-deadline checks can wait.
//!
//! The front thread's per-request cost is linear in the bytes received,
//! independent of forum size: each connection's inbox and outbox are
//! consumed by offset and compacted only once half their bytes are
//! spent, and the newline search resumes where the previous one
//! stopped. A client that pipelines thousands of requests into one write
//! costs each request only its own bytes.
//!
//! ## Wire encoding
//!
//! There is one: every request, whatever its first byte, is the bytes up
//! to the next `\n`, decoded as UTF-8 (lossily), trimmed and parsed as
//! JSON. A line that is not JSON gets an `invalid_json` reply, and the
//! connection stays open for the next line.
//!
//! ## Attack execution
//!
//! Every `attack` runs alone, as soon as a worker has parsed it: the
//! worker builds an [`Engine`] from the daemon's defaults and the
//! request's overrides (`top_k`, `n_landmarks`, `seed`, `threads`) and
//! calls [`PreparedCorpus::attack`] on the generation the request
//! captured off the wire. Concurrent attacks run side by side on
//! different workers and share that generation's auxiliary cache, so
//! its structure and hot tables are built once, by whichever attack
//! comes first.
//!
//! Corpus state is shared by `Arc`, and a generation never changes
//! under a request that holds it:
//!
//! - `attack` requests capture the corpus `Arc` when they are accepted
//!   off the wire and run against that **immutable** generation; every
//!   job drops its handles before its reply is queued;
//! - `load_snapshot` loads the replacement *outside* the slot's lock and
//!   swaps it in; the replaced generation is freed after the lock is
//!   released, or when the last in-flight attack drops its `Arc`;
//! - `add_auxiliary_users` prepares the chunk's features and UDA graph
//!   outside every lock. When the slot holds the generation's only
//!   handle, it then appends the chunk's rows **in place** under the
//!   slot's write lock, which covers the appends alone (plus, once per
//!   mapped load, the promotion of the borrowed arenas). When an
//!   in-flight request still holds the generation, it copies the corpus
//!   outside the lock, appends to the copy and swaps it in
//!   (`daemon_corpus_copies_total` counts these). Either way the ingest
//!   starts a new generation with an empty auxiliary cache.
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
//! wait and execution), error counters by kind, connection gauges,
//! corpus residency and generation gauges, `daemon_queue_depth` (jobs
//! waiting for a worker), and — after every attack — the engine's
//! per-stage timings
//! ([`EngineReport::record_into`](dehealth_engine::EngineReport::record_into)).
//! Four per-request **stage timers** split every bulk request's wall
//! time along the worker pipeline — `daemon_parse_seconds` (raw line →
//! validated request, on a worker), `daemon_queue_seconds` (waiting for
//! a worker), `daemon_engine_seconds` (execution), `daemon_emit_seconds`
//! (reply → outbox bytes, on a worker) — proving parse and emit are
//! billed to the pool, not the front thread. `daemon_attack_seconds`
//! records each attack's latency from wire arrival to engine
//! completion. `daemon_corpus_copies_total` counts the
//! ingests that had to copy a generation an in-flight request held, and
//! `daemon_corpus_lock_seconds` records how long each corpus update held
//! the slot's write lock, the time the front thread could not dispatch.
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
//!   unbounded data),
//! - a read deadline on half-open connections (a peer that starts a
//!   request and stalls mid-line is timed out and closed), and
//! - a max-connections cap (connections beyond it receive an error line
//!   and are closed immediately, so established sessions keep their
//!   slots).
//!
//! Backpressure is per connection: while a connection has a request in
//! flight the front thread stops reading its socket, so a pipelining
//! client is bounded by the kernel's TCP buffers, exactly like the
//! thread-per-connection design it replaces.
//!
//! `tests/service_parity.rs` pins the wire schema, the counter
//! semantics, the hardening behaviors, and concurrent/serial bit-parity.

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
use dehealth_engine::{Engine, EngineConfig};
use dehealth_netpoll::{Event, Interest, Poller, Waker};
use dehealth_telemetry::{info, warn, Counter, Gauge, Histogram, Registry, SpanTimer};

use crate::corpus::{LoadMode, MemoryStats, PreparedCohort, PreparedCorpus};
use crate::json::Json;
use crate::metrics::registry_to_json;
use crate::protocol::{error_response, forum_from_request, ok_response, report_to_json};

/// Ceiling on one poll wait: how often the front thread and the workers
/// re-check the shutdown flag and read deadlines even when no socket
/// turns ready. Completions do not wait for it: the worker that pushes
/// one wakes the front thread.
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
/// `read_deadline` and `oversize_request` classify rejected or dropped
/// *connections* (which also answer with an error line but are not
/// counted as served requests).
pub const ERROR_KINDS: [&str; 9] = [
    "connection_cap",
    "invalid_argument",
    "invalid_json",
    "missing_cmd",
    "no_corpus",
    "oversize_request",
    "read_deadline",
    "snapshot_load",
    "unknown_cmd",
];

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
    /// Dispatch worker threads executing attacks and corpus updates
    /// (clamped to at least 1). Two by default: one long attack cannot
    /// starve a corpus update or a second attack.
    pub workers: usize,
}

impl Default for DaemonLimits {
    fn default() -> Self {
        Self {
            max_request_bytes: 64 * 1024 * 1024,
            read_deadline: Duration::from_secs(30),
            max_connections: 64,
            slow_request_threshold: Duration::from_secs(30),
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
    /// Ingests that copied the generation because an in-flight request
    /// still held it (the rest grew it in place).
    corpus_copies: Arc<Counter>,
    /// How long each corpus update held the slot's write lock, during
    /// which the front thread cannot dispatch an attack.
    corpus_lock_seconds: Arc<Histogram>,
    rejected_connections: Arc<Counter>,
    dropped_connections: Arc<Counter>,
    connections_live: Arc<Gauge>,
    corpus_users: Arc<Gauge>,
    corpus_posts: Arc<Gauge>,
    corpus_generation: Arc<Gauge>,
    corpus_resident_arena_bytes: Arc<Gauge>,
    corpus_borrowed_arena_bytes: Arc<Gauge>,
    /// Jobs waiting for a dispatch worker.
    queue_depth: Arc<Gauge>,
    /// Attack latency, wire arrival → engine completion.
    attack_seconds: Arc<Histogram>,
    /// Per-request stage timers, all billed on dispatch workers: time
    /// decoding the request (JSON parse + validation)…
    parse_seconds: Arc<Histogram>,
    /// …time between coming off the wire and execution start, minus the
    /// parse itself (the wait for a worker)…
    queue_seconds: Arc<Histogram>,
    /// …time executing the command (the engine pass, or the corpus
    /// load or append for updates)…
    engine_seconds: Arc<Histogram>,
    /// …and time serializing the finished reply into outbox bytes.
    emit_seconds: Arc<Histogram>,
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
            corpus_copies: registry.counter("daemon_corpus_copies_total"),
            corpus_lock_seconds: registry.histogram("daemon_corpus_lock_seconds"),
            rejected_connections: registry.counter("daemon_rejected_connections_total"),
            dropped_connections: registry.counter("daemon_dropped_connections_total"),
            connections_live: registry.gauge("daemon_connections_live"),
            corpus_users: registry.gauge("corpus_users"),
            corpus_posts: registry.gauge("corpus_posts"),
            corpus_generation: registry.gauge("corpus_generation"),
            corpus_resident_arena_bytes: registry.gauge("corpus_resident_arena_bytes"),
            corpus_borrowed_arena_bytes: registry.gauge("corpus_borrowed_arena_bytes"),
            queue_depth: registry.gauge("daemon_queue_depth"),
            attack_seconds: registry.histogram("daemon_attack_seconds"),
            parse_seconds: registry.histogram("daemon_parse_seconds"),
            queue_seconds: registry.histogram("daemon_queue_seconds"),
            engine_seconds: registry.histogram("daemon_engine_seconds"),
            emit_seconds: registry.histogram("daemon_emit_seconds"),
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

    /// Refresh the corpus gauges after an update (or the initial load)
    /// and bump the generation.
    fn observe_corpus(&self, gauges: CorpusGauges) {
        self.corpus_users.set(gauges.users as i64);
        self.corpus_posts.set(gauges.posts as i64);
        self.corpus_resident_arena_bytes.set(gauges.memory.resident_arena_bytes as i64);
        self.corpus_borrowed_arena_bytes.set(gauges.memory.borrowed_arena_bytes as i64);
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

/// A corpus generation's gauge values, read while the slot's write lock
/// is held and published after it is released.
#[derive(Debug, Clone, Copy, Default)]
struct CorpusGauges {
    users: usize,
    posts: usize,
    memory: MemoryStats,
}

impl CorpusGauges {
    fn of(corpus: &PreparedCorpus) -> Self {
        Self { users: corpus.n_users(), posts: corpus.n_posts(), memory: corpus.memory_stats() }
    }
}

/// One bulk request for the dispatch pool: a worker parses and
/// validates it, runs it to completion and queues its reply.
struct Job {
    conn: usize,
    /// When the request came off the wire — the latency clock.
    received: Instant,
    /// The trimmed request line, never parsed on the front thread.
    line: String,
    /// The front's zero-parse classification: `"attack"`,
    /// `"add_auxiliary_users"` or `"load_snapshot"`.
    label: &'static str,
    /// For attacks: the corpus `Arc` captured when the request came off
    /// the wire (`None` answers `no_corpus` *after* the parse, preserving
    /// the invalid_json > no_corpus precedence).
    corpus: Option<Arc<PreparedCorpus>>,
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
    /// The served generation. Its write lock is held only to swap the
    /// slot or to append an ingest's rows in place, never across a
    /// snapshot load, a corpus copy or a feature extraction.
    corpus: RwLock<Option<Arc<PreparedCorpus>>>,
    /// Serializes corpus *updates* (`load_snapshot`, `add_auxiliary_users`)
    /// end to end. Loads and copies happen outside the `corpus` lock so
    /// attacks never block on them — but without this mutex two
    /// concurrent updates would both build on the same base and the
    /// second swap would silently discard the first one's ingest.
    update: Mutex<()>,
    /// Jobs for the dispatch pool, drained FIFO.
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    /// Finished responses headed back to the front thread.
    completions: Mutex<Vec<Completion>>,
    /// Ends the front thread's poll wait once a worker has pushed to
    /// `completions`.
    waker: Waker,
    /// Requests in flight anywhere in the pipeline: incremented when a
    /// job is enqueued, decremented when the request's completion is
    /// pushed. Workers must not exit while nonzero: a completion can
    /// release a request pipelined behind it on the same connection,
    /// which still needs a worker.
    dispatched: AtomicUsize,
    metrics: DaemonMetrics,
    started: Instant,
    shutting_down: AtomicBool,
}

impl DaemonState {
    /// Clone the current corpus `Arc` (poison-immune: the slot only ever
    /// holds a fully built corpus, swapped in or grown to completion
    /// under the write lock, and an in-place append that panics empties
    /// the slot, so the value is coherent even after a panicked writer).
    fn corpus(&self) -> Option<Arc<PreparedCorpus>> {
        self.corpus.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Publish `next` in the slot and return the gauges published for it.
    /// The replaced generation is taken out under the write lock and
    /// freed after it is released, so the front thread never waits on the
    /// deallocation.
    fn swap_corpus(&self, next: PreparedCorpus) -> CorpusGauges {
        let gauges = CorpusGauges::of(&next);
        let next = Arc::new(next);
        let mut slot = self.corpus.write().unwrap_or_else(PoisonError::into_inner);
        let locked = Instant::now();
        let replaced = slot.replace(next);
        drop(slot);
        self.metrics.corpus_lock_seconds.record(locked.elapsed());
        // Gauges refreshed strictly *after* the swap: a scrape racing an
        // update must never describe a corpus newer than the one attacks
        // can actually observe in the slot.
        self.metrics.observe_corpus(gauges);
        drop(replaced);
        gauges
    }

    fn push_completion(&self, conn: usize, bytes: Option<Vec<u8>>) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Completion { conn, bytes });
        // Saturating: should the panic fence ever complete a request that
        // had already replied, the count must not wrap.
        let _ =
            self.dispatched.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1));
        self.waker.wake();
    }

    /// Enqueue a request's job and count it in flight.
    fn dispatch_request(&self, job: Job) {
        self.dispatched.fetch_add(1, Ordering::SeqCst);
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
    /// Like [`Daemon::bind_with`].
    pub fn bind<A: ToSocketAddrs>(addr: A, config: EngineConfig) -> std::io::Result<Self> {
        Self::bind_with_corpus(addr, config, None)
    }

    /// [`Daemon::bind`] with a corpus pre-loaded (the `repro serve` path:
    /// load the snapshot before accepting traffic).
    ///
    /// # Errors
    /// Like [`Daemon::bind_with`].
    pub fn bind_with_corpus<A: ToSocketAddrs>(
        addr: A,
        config: EngineConfig,
        corpus: Option<PreparedCorpus>,
    ) -> std::io::Result<Self> {
        Self::bind_with(addr, config, corpus, DaemonLimits::default())
    }

    /// [`Daemon::bind_with_corpus`] with explicit [`DaemonLimits`]
    /// (protocol hardening, worker count).
    ///
    /// # Errors
    /// Propagates socket errors (bind/listen) and poller errors (creating
    /// the readiness queue, registering the listener or the waker).
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        config: EngineConfig,
        corpus: Option<PreparedCorpus>,
        limits: DaemonLimits,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut poller = Poller::new()?;
        poller.register(&listener, LISTENER_TOKEN, Interest::READ)?;
        let waker = poller.waker()?;
        let metrics = DaemonMetrics::new();
        if let Some(corpus) = &corpus {
            metrics.observe_corpus(CorpusGauges::of(corpus));
        }
        let state = Arc::new(DaemonState {
            config,
            limits,
            corpus: RwLock::new(corpus.map(Arc::new)),
            update: Mutex::new(()),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
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

/// The front thread: accept, read, extract lines, answer fast commands
/// inline, feed slow ones to the worker pool, write responses — all
/// multiplexed over one [`Poller`].
fn front_loop(
    listener: TcpListener,
    mut poller: Poller,
    state: &Arc<DaemonState>,
    workers: Vec<JoinHandle<()>>,
) {
    let mut listener = Some(listener);
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut next_token: usize = LISTENER_TOKEN + 1;
    loop {
        let _ = poller.wait(&mut events, Some(POLL_INTERVAL));

        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                if let Some(l) = &listener {
                    accept_ready(state, l, &mut poller, &mut conns, &mut next_token);
                }
                continue;
            }
            if let Some(conn) = conns.get_mut(&ev.token) {
                if ev.readable && !conn.in_flight && !conn.closing {
                    read_ready(state, conn);
                }
            }
            settle_conn(state, &mut poller, &mut conns, ev.token);
        }

        // Demux finished jobs back onto their connections, preserving
        // per-connection request order (in_flight gated the next line).
        let done: Vec<Completion> =
            std::mem::take(&mut *state.completions.lock().unwrap_or_else(PoisonError::into_inner));
        for c in done {
            if let Some(conn) = conns.get_mut(&c.conn) {
                conn.in_flight = false;
                match c.bytes {
                    Some(bytes) => conn.outbox.extend(&bytes),
                    None => conn.closing = true,
                }
                pump(state, conn);
            }
            settle_conn(state, &mut poller, &mut conns, c.conn);
        }

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

        if state.shutting_down.load(Ordering::SeqCst) {
            if let Some(l) = listener.take() {
                let _ = poller.deregister(&l, LISTENER_TOKEN);
                // Dropping the listener refuses new connections while
                // the drain below completes.
            }
            let idle: Vec<usize> = conns
                .values_mut()
                .filter_map(|c| {
                    (!c.in_flight && c.inbox.find_newline().is_none()).then_some(c.token)
                })
                .collect();
            for token in idle {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.closing = true;
                }
                settle_conn(state, &mut poller, &mut conns, token);
            }
            if conns.is_empty() && state.dispatched.load(Ordering::SeqCst) == 0 {
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
fn read_ready(state: &Arc<DaemonState>, conn: &mut Conn) {
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
    pump(state, conn);
}

/// Serve every complete request line the connection has buffered,
/// stopping at the first request that goes in flight (per-connection
/// request order; clients may pipeline, responses keep request order).
/// Then update the half-open bookkeeping on whatever incomplete tail
/// remains.
///
/// This is the whole of the front thread's per-request work: line
/// splitting and classification over raw bytes. Parsing, execution and
/// reply serialization all happen on dispatch workers.
fn pump(state: &Arc<DaemonState>, conn: &mut Conn) {
    while !conn.in_flight && !conn.closing {
        let Some(pos) = conn.inbox.find_newline() else { break };
        let line = String::from_utf8_lossy(&conn.inbox.bytes()[..pos]).into_owned();
        conn.inbox.consume(pos + 1);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        handle_line(state, conn, line);
    }
    if conn.inbox.is_empty() || conn.inbox.find_newline().is_some() {
        conn.partial_since = None;
    } else {
        // A request line larger than the cap can never complete —
        // reject it now instead of buffering without bound.
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

/// Classify one request line from its raw bytes and route it: bulk
/// commands (`attack`, `add_auxiliary_users`, `load_snapshot`) go to a
/// dispatch worker unparsed; everything else falls through to the
/// inline fast path.
fn handle_line(state: &Arc<DaemonState>, conn: &mut Conn, line: &str) {
    let received = Instant::now();
    // Zero-parse classification: a byte scan for the top-level "cmd"
    // key. Lines it cannot follow (escape-laden keys, no simple value)
    // fall through to the inline path's authoritative full parse.
    let label: &'static str = match scan_top_level(line.as_bytes(), "cmd").as_deref() {
        Some("attack") => "attack",
        Some("add_auxiliary_users") => "add_auxiliary_users",
        Some("load_snapshot") => "load_snapshot",
        _ => return handle_control_line(state, conn, received, line),
    };
    dispatch(state, conn, received, line, label);
}

/// Scan a JSON request line for the string value of a top-level key,
/// without building a parse tree — the front thread's classification
/// primitive (`"cmd"`).
///
/// The scanner tracks object/array depth and string escapes, so a
/// matching key inside a nested object (`forum.n_threads`) or inside a
/// post's text can never false-positive. It returns the key's raw value
/// slice only for simple (escape-free) string and number values; on
/// anything else — or on text the scanner cannot follow — it returns
/// `None` and the caller falls back to a full parse. The scanner may
/// accept lines a strict parser rejects; the authoritative parse (and
/// its error reply) happens on a worker either way.
fn scan_top_level(line: &[u8], key: &str) -> Option<String> {
    let n = line.len();
    let mut i = 0;
    while i < n && line[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= n || line[i] != b'{' {
        return None;
    }
    i += 1;
    let mut depth = 1usize;
    let mut expecting_key = true;
    while i < n {
        match line[i] {
            b'"' => {
                let start = i + 1;
                i += 1;
                let mut escaped = false;
                let mut end = None;
                while i < n {
                    let c = line[i];
                    if escaped {
                        escaped = false;
                    } else if c == b'\\' {
                        escaped = true;
                    } else if c == b'"' {
                        end = Some(i);
                        break;
                    }
                    i += 1;
                }
                let end = end?;
                i = end + 1;
                if depth == 1 && expecting_key && &line[start..end] == key.as_bytes() {
                    return scan_value(line, i);
                }
            }
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                if depth == 1 {
                    return None;
                }
                depth -= 1;
                i += 1;
            }
            b':' => {
                if depth == 1 {
                    expecting_key = false;
                }
                i += 1;
            }
            b',' => {
                if depth == 1 {
                    expecting_key = true;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Read the simple value following a matched key: skip the colon, then
/// return an escape-free string's contents or a bare number/keyword
/// token verbatim.
fn scan_value(line: &[u8], mut i: usize) -> Option<String> {
    let n = line.len();
    while i < n && line[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= n || line[i] != b':' {
        return None;
    }
    i += 1;
    while i < n && line[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= n {
        return None;
    }
    if line[i] == b'"' {
        let start = i + 1;
        i += 1;
        while i < n {
            match line[i] {
                // No known command or simple value contains escapes; a
                // full parse will classify this line authoritatively.
                b'\\' => return None,
                b'"' => return String::from_utf8(line[start..i].to_vec()).ok(),
                _ => i += 1,
            }
        }
        return None;
    }
    let start = i;
    while i < n && !matches!(line[i], b',' | b'}' | b']') && !line[i].is_ascii_whitespace() {
        i += 1;
    }
    if i == start {
        return None;
    }
    String::from_utf8(line[start..i].to_vec()).ok()
}

/// The inline path: full-parse the line on the front thread and answer
/// fast commands (`stats`, `metrics`, `shutdown`, protocol errors)
/// immediately, so a stats probe or a scrape never queues behind an
/// attack. Bulk commands land here only when the byte scanner could not
/// classify the line (pathological but legal JSON) — they are handed to
/// a worker like any other bulk request.
fn handle_control_line(state: &Arc<DaemonState>, conn: &mut Conn, received: Instant, line: &str) {
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
        "load_snapshot" | "add_auxiliary_users" | "attack" => {
            dispatch(state, conn, received, line, label);
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

/// Put one bulk request in flight on a dispatch worker, unparsed. An
/// `attack` captures the corpus `Arc` here, as it comes off the wire: a
/// swap landing later affects later requests, not this one. With no
/// corpus loaded the worker answers `no_corpus` after its parse, so
/// invalid JSON still outranks it.
fn dispatch(
    state: &Arc<DaemonState>,
    conn: &mut Conn,
    received: Instant,
    line: &str,
    label: &'static str,
) {
    let corpus = if label == "attack" { state.corpus() } else { None };
    conn.in_flight = true;
    let line = line.to_string();
    state.dispatch_request(Job { conn: conn.token, received, line, label, corpus });
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
    let drained_eof = conn.peer_closed && !conn.in_flight && conn.inbox.find_newline().is_none();
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
                // pipeline (see `DaemonState::dispatched`).
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

/// Execute one job; a panicking handler closes its connection without a
/// response — the moral equivalent of a died thread-per-connection
/// handler — instead of wedging the front loop on a completion that
/// never comes.
fn run_job(state: &Arc<DaemonState>, job: Job) {
    let conn = job.conn;
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_request(state, job)));
    if outcome.is_err() {
        state.push_completion(conn, None);
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

/// Stop a request's parse timer and record its queue stage: wire arrival
/// → execution start, minus the parse itself.
fn end_parse(state: &Arc<DaemonState>, received: Instant, parse_timer: SpanTimer) {
    let parse_seconds = parse_timer.stop().as_secs_f64();
    state
        .metrics
        .queue_seconds
        .record_secs((received.elapsed().as_secs_f64() - parse_seconds).max(0.0));
}

/// Parse, validate and run one request line on a worker, then queue its
/// reply. An attack runs as soon as its parse lands.
fn run_request(state: &Arc<DaemonState>, job: Job) {
    let Job { conn, received, line, label, corpus } = job;
    let parse_timer = SpanTimer::new(Arc::clone(&state.metrics.parse_seconds));
    let request = match Json::parse(&line) {
        Ok(request) => request,
        Err(e) => {
            end_parse(state, received, parse_timer);
            drop(corpus);
            // Billed to the "invalid" command, like an unparseable line
            // the front thread answers inline.
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
            let parsed = parse_attack_request(state, &request, line.len());
            run_attack(state, conn, received, parse_timer, corpus, parsed);
        }
        "add_auxiliary_users" => {
            let chunk = request
                .get("forum")
                .ok_or("missing forum")
                .and_then(|v| forum_from_request(v, line.len()).map_err(|_| "invalid forum"));
            run_ingest(state, conn, received, parse_timer, chunk.map_err(String::from));
        }
        _ => {
            end_parse(state, received, parse_timer);
            let timer = SpanTimer::new(Arc::clone(&state.metrics.engine_seconds));
            let result = cmd_load_snapshot(state, &request);
            timer.stop();
            respond(state, conn, label, received, result);
        }
    }
}

/// Finish an attack on its worker: an error answers at once, `no_corpus`
/// is answered after the parse (invalid requests outrank it), and a
/// valid request runs against the generation it captured off the wire.
fn run_attack(
    state: &Arc<DaemonState>,
    conn: usize,
    received: Instant,
    parse_timer: SpanTimer,
    corpus: Option<Arc<PreparedCorpus>>,
    parsed: Result<(AttackConfig, Forum, usize), CmdError>,
) {
    end_parse(state, received, parse_timer);
    // `no_corpus` outranks per-field validation (`invalid_argument`),
    // matching the inline era where the corpus slot was checked before
    // the request body — while invalid JSON still outranks both
    // (answered before this function runs).
    let Some(corpus) = corpus else {
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
            drop(corpus);
            return respond(state, conn, "attack", received, Err(e));
        }
    };
    let timer = SpanTimer::new(Arc::clone(&state.metrics.engine_seconds));
    let engine = Engine::new(EngineConfig { n_threads: threads, attack, ..state.config.clone() });
    let outcome = corpus.attack(&engine, &forum);
    timer.stop();
    // Every handle on the generation goes before the reply is queued: a
    // client that follows its reply with an ingest then finds the slot's
    // handle alone, and the ingest appends in place.
    drop(corpus);
    state.metrics.attack_seconds.record(received.elapsed());
    state.metrics.attacks.inc();
    state.metrics.attacked_users.add(forum.n_users as u64);
    state.metrics.mapped_users.add(outcome.mapping.iter().filter(|m| m.is_some()).count() as u64);
    // Per-stage latency histograms across requests — the engine report
    // flows into the daemon's registry.
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
    respond(state, conn, "attack", received, Ok(fields));
}

/// Finish an `add_auxiliary_users` request on its worker: a decode error
/// answers at once, and a valid chunk is ingested.
fn run_ingest(
    state: &Arc<DaemonState>,
    conn: usize,
    received: Instant,
    parse_timer: SpanTimer,
    chunk: Result<Forum, String>,
) {
    end_parse(state, received, parse_timer);
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

/// Resolve one attack request's forum, per-request overrides and
/// effective thread count against the daemon's defaults. Fields are
/// checked in a fixed order (forum, `top_k`, `n_landmarks`, `seed`,
/// `threads`), so a request with several bad fields always reports the
/// same one. The forum's declared sizes are bounded by `line_bytes`, the
/// length of the request line that carried them.
fn parse_attack_request(
    state: &Arc<DaemonState>,
    request: &Json,
    line_bytes: usize,
) -> Result<(AttackConfig, Forum, usize), CmdError> {
    let anonymized = match request
        .get("forum")
        .ok_or_else(|| "missing forum".to_string())
        .and_then(|forum| forum_from_request(forum, line_bytes))
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
/// the worker bills its parse to `daemon_parse_seconds` before this
/// runs.
///
/// The chunk's features and UDA graph depend on the chunk alone, so they
/// are built before any lock is taken. The update lock then makes
/// concurrent ingests append sequentially instead of both building on
/// the same base and losing one chunk at the swap. Under the slot's write
/// lock, the generation grows **in place** when the slot holds its only
/// handle: the lock covers the appends alone. An in-flight request that
/// still holds the generation must keep seeing it unchanged, so then the
/// ingest copies it outside the lock, appends to the copy and swaps it
/// in (`daemon_corpus_copies_total`).
fn cmd_add_auxiliary_users(
    state: &Arc<DaemonState>,
    chunk: Forum,
) -> Result<Vec<(String, Json)>, CmdError> {
    let cohort = PreparedCohort::new(chunk);
    let _updating = state.update.lock().unwrap_or_else(PoisonError::into_inner);
    let mut slot = state.corpus.write().unwrap_or_else(PoisonError::into_inner);
    let locked = Instant::now();
    let gauges = if let Some(corpus) = slot.as_mut().and_then(Arc::get_mut) {
        let grown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            corpus.append_cohort(cohort);
        }));
        if let Err(panic) = grown {
            // A half-grown generation must serve no attack: empty the slot.
            *slot = None;
            drop(slot);
            state.metrics.observe_corpus(CorpusGauges::default());
            std::panic::resume_unwind(panic);
        }
        let gauges = CorpusGauges::of(corpus);
        drop(slot);
        state.metrics.corpus_lock_seconds.record(locked.elapsed());
        state.metrics.observe_corpus(gauges);
        gauges
    } else {
        let current = slot.clone();
        drop(slot);
        let next = match current {
            Some(corpus) => {
                state.metrics.corpus_copies.inc();
                let mut next = (*corpus).clone();
                drop(corpus);
                next.append_cohort(cohort);
                next
            }
            None => PreparedCorpus::from_cohort(cohort, state.config.attack.classifier),
        };
        state.swap_corpus(next)
    };
    state.metrics.corpus_updates.inc();
    Ok(vec![("users".into(), Json::int(gauges.users)), ("posts".into(), Json::int(gauges.posts))])
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

    #[test]
    fn scanner_finds_top_level_keys_only() {
        let line = br#"{"cmd":"attack","threads":3,"forum":{"n_threads":9,"cmd":"nested","posts":[[0,0,"say \"threads\": 5"]]}}"#;
        assert_eq!(scan_top_level(line, "cmd").as_deref(), Some("attack"));
        assert_eq!(scan_top_level(line, "threads").as_deref(), Some("3"));
        assert_eq!(scan_top_level(line, "n_threads"), None);
        assert_eq!(scan_top_level(line, "posts"), None, "array values are not simple");
        assert_eq!(scan_top_level(br#"  {"cmd" : "stats"} "#, "cmd").as_deref(), Some("stats"));
        assert_eq!(scan_top_level(br#"{"cmd":"shut\"down"}"#, "cmd"), None, "escapes defer");
        assert_eq!(scan_top_level(br#"not json"#, "cmd"), None);
        assert_eq!(scan_top_level(br#"{"a":{"cmd":"attack"}}"#, "cmd"), None);
        assert_eq!(
            scan_top_level(br#"{"later":1,"cmd":"metrics"}"#, "cmd").as_deref(),
            Some("metrics")
        );
    }

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

    /// Served attacks report the `structure` stage on the wire and in
    /// `engine_stage_*`: the first attack on a corpus generation builds
    /// the auxiliary structure, the next one reuses it, and an ingest
    /// starts a generation that builds it again.
    #[test]
    fn served_attacks_report_the_structure_stage() {
        use crate::client::ServiceClient;
        use crate::protocol::AttackOptions;
        use dehealth_corpus::{closed_world_split, SplitConfig};

        let forum = Forum::generate(&ForumConfig::tiny(), 42);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 7);
        let corpus = PreparedCorpus::build(split.auxiliary, Default::default());
        let n_before = corpus.n_users() as u64;
        let daemon =
            Daemon::bind_with_corpus("127.0.0.1:0", default_config(), Some(corpus)).unwrap();
        let mut client = ServiceClient::connect(daemon.addr()).unwrap();
        let mut built = || {
            let reply = client.attack(&split.anonymized, &AttackOptions::default()).unwrap();
            let stages = reply.raw.get("report").and_then(|r| r.get("stages")).unwrap().clone();
            let stages = stages.as_array().unwrap();
            let structure = stages
                .iter()
                .find(|s| s.get("stage").and_then(Json::as_str) == Some("structure"))
                .expect("the reply reports the structure stage");
            structure.get("items").and_then(Json::as_usize).unwrap() as u64
        };
        assert_eq!(built(), n_before);
        assert_eq!(built(), 0, "the second attack reuses the generation's structure");
        client.add_auxiliary_users(&Forum::generate(&ForumConfig::tiny(), 77)).unwrap();
        let reply = client.attack(&split.anonymized, &AttackOptions::default()).unwrap();
        assert!(reply.raw.get("report").is_some());

        let registry = daemon.registry();
        let labels = [("stage", "structure")];
        assert_eq!(registry.histogram_with("engine_stage_seconds", &labels).count(), 3);
        let items = registry.counter_with("engine_stage_items_total", &labels).get();
        let n_after = n_before + ForumConfig::tiny().n_users as u64;
        assert_eq!(items, n_before + n_after, "the ingest started a new generation");
        client.shutdown().unwrap();
        daemon.join();
    }

    /// A served corpus, an ingest chunk, the anonymized side to attack,
    /// and a fresh build over the union the ingest should produce.
    fn ingest_fixture() -> (PreparedCorpus, Forum, Forum, PreparedCorpus) {
        use dehealth_corpus::{closed_world_split, Post, SplitConfig};
        let forum = Forum::generate(&ForumConfig::tiny(), 42);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 7);
        let chunk = Forum::generate(&ForumConfig::tiny(), 77);
        let base = split.auxiliary;
        let mut posts = base.posts.clone();
        posts.extend(chunk.posts.iter().map(|p| Post {
            author: p.author + base.n_users,
            thread: p.thread + base.n_threads,
            text: p.text.clone(),
        }));
        let union = Forum::from_posts(
            base.n_users + chunk.n_users,
            base.n_threads + chunk.n_threads,
            posts,
        );
        let classifier = default_config().attack.classifier;
        (
            PreparedCorpus::build(base, classifier),
            chunk,
            split.anonymized,
            PreparedCorpus::build(union, classifier),
        )
    }

    /// An attack on the daemon's current slot answers exactly like
    /// `want`'s corpus.
    fn assert_serves(
        client: &mut crate::client::ServiceClient,
        anon: &Forum,
        want: &PreparedCorpus,
    ) {
        use crate::protocol::AttackOptions;
        let reply = client.attack(anon, &AttackOptions::default()).unwrap();
        let expected = want.attack(&Engine::new(default_config()), anon);
        assert_eq!(reply.mapping, expected.mapping);
        assert_eq!(reply.candidates, expected.candidates);
    }

    /// With no request holding the generation, an ingest appends to it in
    /// place: the slot keeps its allocation, nothing is copied, and the
    /// grown corpus serves exactly like a fresh build over the union.
    #[test]
    fn a_lone_ingest_grows_the_generation_in_place() {
        use crate::client::ServiceClient;
        let (corpus, chunk, anon, union) = ingest_fixture();
        let daemon =
            Daemon::bind_with_corpus("127.0.0.1:0", default_config(), Some(corpus)).unwrap();
        let mut client = ServiceClient::connect(daemon.addr()).unwrap();
        // An attack first: its handles are gone before its reply arrives.
        let _ = client.attack(&anon, &crate::protocol::AttackOptions::default()).unwrap();
        // A raw pointer, not a handle: holding an `Arc` would force a copy.
        let before = Arc::as_ptr(&daemon.state.corpus().unwrap());
        let generation = daemon.state.metrics.corpus_generation.get();
        client.add_auxiliary_users(&chunk).unwrap();
        let after = daemon.state.corpus().unwrap();
        assert!(std::ptr::eq(before, Arc::as_ptr(&after)), "the ingest replaced the slot");
        assert_eq!(after.n_users(), union.n_users());
        assert_eq!(after.to_snapshot_bytes(), union.to_snapshot_bytes());
        drop(after);
        let metrics = &daemon.state.metrics;
        assert_eq!(metrics.corpus_copies.get(), 0);
        assert_eq!(metrics.corpus_updates.get(), 1);
        assert_eq!(metrics.corpus_lock_seconds.count(), 1);
        assert_eq!(metrics.corpus_generation.get(), generation + 1);
        assert_eq!(metrics.corpus_users.get(), union.n_users() as i64);
        assert_serves(&mut client, &anon, &union);
        client.shutdown().unwrap();
        daemon.join();
    }

    /// While a handle stands in for an in-flight attack, an ingest copies
    /// the generation: the held corpus is untouched, and the slot's new
    /// generation serves exactly like a fresh build over the union.
    #[test]
    fn an_ingest_under_a_held_generation_copies_it() {
        use crate::client::ServiceClient;
        let (corpus, chunk, anon, union) = ingest_fixture();
        let daemon =
            Daemon::bind_with_corpus("127.0.0.1:0", default_config(), Some(corpus)).unwrap();
        let mut client = ServiceClient::connect(daemon.addr()).unwrap();
        let held = daemon.state.corpus().unwrap();
        let held_bytes = held.to_snapshot_bytes();
        client.add_auxiliary_users(&chunk).unwrap();
        let after = daemon.state.corpus().unwrap();
        assert!(!Arc::ptr_eq(&held, &after), "the ingest grew a held generation");
        assert_eq!(held.to_snapshot_bytes(), held_bytes, "the held generation changed");
        assert_eq!(after.to_snapshot_bytes(), union.to_snapshot_bytes());
        drop((held, after));
        assert_eq!(daemon.state.metrics.corpus_copies.get(), 1);
        assert_eq!(daemon.state.metrics.corpus_updates.get(), 1);
        assert_serves(&mut client, &anon, &union);
        client.shutdown().unwrap();
        daemon.join();
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
