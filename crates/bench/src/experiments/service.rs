//! Service benchmark: snapshot persistence vs cold corpus builds, and
//! sustained attack throughput over the wire.
//!
//! Measures the two numbers the serving layer exists for:
//!
//! 1. **Restart cost** — wall-clock of a cold [`PreparedCorpus::build`]
//!    (full stylometric feature extraction) vs a
//!    [`PreparedCorpus::load`] of the equivalent snapshot (map, verify
//!    and decode, no text analysis). The load must come in below 25% of
//!    the cold build — asserted here, so the committed
//!    `BENCH_service.json` always demonstrates the property.
//! 2. **Serving throughput** — a daemon is started on an ephemeral local
//!    port with the snapshot-loaded corpus, and the same anonymized batch
//!    is attacked repeatedly over TCP at 1 and `machine_parallelism`
//!    worker threads. Each run records attacks/sec, users/sec, the
//!    request's exact **bytes on the wire**, and the daemon's own
//!    per-request **stage timers** — mean
//!    `daemon_parse/queue/engine/emit_seconds` differenced around the run
//!    — so the JSON shows where the wall time goes (parse and emit are
//!    billed to the worker pool, never the front thread). A request's
//!    mean parse time is asserted below 10% of its mean engine time:
//!    parsing is linear in the request, so it must stay a small share of
//!    the attack it carries.
//! 3. **Latency under concurrent load** — several clients attack the
//!    daemon simultaneously with barrier-synchronized sends, so the
//!    requests arrive together and run side by side on the daemon's
//!    dispatch workers. p50/p90/p99 request latency
//!    is read back from the daemon's own
//!    `daemon_command_seconds{cmd="attack"}` histogram (the telemetry
//!    layer's instrument, isolated to the concurrent phase by
//!    differencing snapshots), and the histogram's `count` is asserted
//!    equal to the number of requests issued. Quantiles carry the
//!    telemetry layer's explicit overflow marker: a value at the ladder
//!    ceiling is written to the JSON as a flagged floor
//!    (`latency_p??_overflow: true`), never as a fabricated measurement.
//!    Each client's own wall-clock is recorded too, plus the
//!    **spread** (slowest minus fastest), which shows how evenly the
//!    workers shared the concurrent attacks. Every reported quantile is
//!    asserted no larger than the slowest round trip any client observed
//!    in the run: the daemon measures each request inside its client's
//!    round trip, and the histogram clamps its estimates to the largest
//!    sample it recorded.
//!
//! Every wire attack — serial and concurrent — is compared against the
//! in-process serial `DeHealth::run` on the freshly built corpus —
//! mapping and candidate sets must be identical, so the committed
//! numbers always come from a daemon that agrees with the reference
//! implementation bit for bit.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dehealth_core::{AttackConfig, DeHealth};
use dehealth_corpus::{closed_world_split, Forum, ForumConfig, SplitConfig};
use dehealth_engine::EngineConfig;
use dehealth_service::daemon::Daemon;
use dehealth_service::{AttackOptions, PreparedCorpus, ServiceClient};
use dehealth_telemetry::{HistogramSnapshot, Quantile};

/// Attack parameters used throughout the benchmark (matching the scale
/// sweep so the numbers are comparable).
fn attack_config() -> AttackConfig {
    AttackConfig { top_k: 10, n_landmarks: 30, ..AttackConfig::default() }
}

/// One wire-throughput measurement.
#[derive(Debug, Clone)]
pub struct WireRun {
    /// Worker threads the daemon used per attack.
    pub threads: usize,
    /// Repeated attacks of the same batch.
    pub rounds: usize,
    /// Exact size of one attack request on the wire, bytes.
    pub request_bytes: usize,
    /// Total wall-clock across the rounds (client-side, protocol
    /// overhead included).
    pub total_seconds: f64,
    /// Attacks per second.
    pub attacks_per_sec: f64,
    /// Anonymized users de-anonymized per second.
    pub users_per_sec: f64,
    /// Mean per-request raw-bytes→validated-request time on a worker
    /// (`daemon_parse_seconds` differenced around the run).
    pub parse_seconds: f64,
    /// Mean per-request wait for a worker (`daemon_queue_seconds`).
    pub queue_seconds: f64,
    /// Mean per-request engine execution time
    /// (`daemon_engine_seconds`).
    pub engine_seconds: f64,
    /// Mean per-request reply-serialization time on a worker
    /// (`daemon_emit_seconds`).
    pub emit_seconds: f64,
}

/// The concurrent-load measurement: several clients attacking at once,
/// latency quantiles read from the daemon's own request histogram.
#[derive(Debug, Clone)]
pub struct ConcurrentRun {
    /// Simultaneous client connections.
    pub clients: usize,
    /// Attacks each client issued.
    pub rounds_per_client: usize,
    /// Wall-clock from first request sent to last response received.
    pub total_seconds: f64,
    /// Attacks per second across all clients.
    pub attacks_per_sec: f64,
    /// Mean per-request latency (daemon-side, exact sum/count).
    pub mean_seconds: f64,
    /// Estimated median request latency (overflow-marked).
    pub p50: Quantile,
    /// Estimated 90th-percentile request latency (overflow-marked).
    pub p90: Quantile,
    /// Estimated 99th-percentile request latency (overflow-marked).
    pub p99: Quantile,
    /// Each client's own wall-clock for its attack, seconds (sorted
    /// ascending).
    pub client_seconds: Vec<f64>,
    /// Slowest client minus fastest client, seconds.
    pub spread_seconds: f64,
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct ServiceBench {
    /// Total generated forum users.
    pub users: usize,
    /// Anonymized users per attack batch.
    pub anon_users: usize,
    /// Cold corpus build (feature extraction + derivations), seconds.
    pub cold_build_seconds: f64,
    /// Snapshot serialization + write, seconds.
    pub snapshot_save_seconds: f64,
    /// Snapshot size on disk, bytes.
    pub snapshot_bytes: u64,
    /// Snapshot read + restore, seconds.
    pub snapshot_load_seconds: f64,
    /// `snapshot_load_seconds / cold_build_seconds`.
    pub load_vs_build_ratio: f64,
    /// Wire-throughput sweep.
    pub wire: Vec<WireRun>,
    /// Concurrent-load latency distribution.
    pub concurrent: ConcurrentRun,
    /// The slowest single attack round trip any client observed, serial
    /// sweep and concurrent phase alike, seconds.
    pub slowest_round_trip_seconds: f64,
}

/// Run the benchmark and write `BENCH_service.json` to the working
/// directory.
///
/// # Errors
/// Propagates I/O errors from the snapshot file, the daemon socket, or
/// the JSON report.
pub fn run(users: usize, seed: u64) -> io::Result<PathBuf> {
    let path = PathBuf::from("BENCH_service.json");
    run_to(&path, users, seed)?;
    Ok(path)
}

/// Run the benchmark and write the JSON report to `path`.
///
/// # Panics
/// Panics if the snapshot round-trip is not bit-exact, the load/build
/// ratio misses the 25% budget, or any wire attack disagrees with the
/// in-process reference — the committed numbers must come from a
/// configuration that holds the serving layer's guarantees.
///
/// # Errors
/// Propagates I/O errors.
pub fn run_to(path: &Path, users: usize, seed: u64) -> io::Result<ServiceBench> {
    let forum = Forum::generate(&ForumConfig::webmd_like(users), seed);
    let split = closed_world_split(&forum, &SplitConfig::fraction(0.7), seed.wrapping_add(1));
    println!(
        "\n# Service: {} auxiliary users ({} posts), {} anonymized users, snapshot vs cold build \
         + wire throughput",
        split.auxiliary.n_users,
        split.auxiliary.posts.len(),
        split.anonymized.n_users,
    );

    // Cold build (the daemon-restart cost without snapshots).
    let t0 = Instant::now();
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_config().classifier);
    let cold_build_seconds = t0.elapsed().as_secs_f64();

    // Snapshot save / load round-trip.
    let snap_path = std::env::temp_dir().join(format!("dehealth-service-bench-{seed}.snap"));
    let t0 = Instant::now();
    corpus.save_streaming(&snap_path).map_err(io::Error::other)?;
    let snapshot_save_seconds = t0.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snap_path)?.len();
    let (loaded, snapshot_load_seconds) =
        PreparedCorpus::load_timed(&snap_path).map_err(io::Error::other)?;
    assert_eq!(
        loaded.to_snapshot_bytes(),
        corpus.to_snapshot_bytes(),
        "snapshot round-trip must be bit-exact"
    );
    let load_vs_build_ratio = snapshot_load_seconds / cold_build_seconds.max(1e-12);
    println!(
        "  cold build {cold_build_seconds:.3}s, snapshot save {snapshot_save_seconds:.3}s \
         ({snapshot_bytes} bytes), load {snapshot_load_seconds:.3}s \
         ({:.1}% of cold build)",
        100.0 * load_vs_build_ratio
    );
    assert!(
        load_vs_build_ratio < 0.25,
        "snapshot load took {:.1}% of the cold build (budget: 25%)",
        100.0 * load_vs_build_ratio
    );

    // In-process reference: the serial attack on the freshly built side.
    let reference = DeHealth::new(attack_config()).run(&split.auxiliary, &split.anonymized);

    // Wire throughput against the snapshot-loaded corpus.
    let daemon = Daemon::bind_with_corpus(
        "127.0.0.1:0",
        EngineConfig { attack: attack_config(), ..EngineConfig::default() },
        Some(loaded),
    )?;
    let mut client = ServiceClient::connect(daemon.addr())?;
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut wire = Vec::new();
    let rounds = 3usize;
    let mut thread_sweep = vec![1];
    if parallelism > 1 {
        thread_sweep.push(parallelism);
    }
    let registry = daemon.registry();
    let mut slowest_round_trip_seconds = 0.0f64;
    let stage_hists = [
        registry.histogram("daemon_parse_seconds"),
        registry.histogram("daemon_queue_seconds"),
        registry.histogram("daemon_engine_seconds"),
        registry.histogram("daemon_emit_seconds"),
    ];
    for &threads in &thread_sweep {
        let options = AttackOptions { threads: Some(threads), ..AttackOptions::default() };
        let request_bytes = client.encode_attack_request(&split.anonymized, &options).len();
        let stages_before: Vec<_> = stage_hists.iter().map(|h| h.snapshot()).collect();
        let t0 = Instant::now();
        for _ in 0..rounds {
            let sent = Instant::now();
            let reply = client.attack(&split.anonymized, &options).map_err(io::Error::other)?;
            slowest_round_trip_seconds =
                slowest_round_trip_seconds.max(sent.elapsed().as_secs_f64());
            assert_eq!(
                reply.mapping, reference.mapping,
                "wire attack must match the in-process serial attack"
            );
            assert_eq!(reply.candidates, reference.candidates);
        }
        let total_seconds = t0.elapsed().as_secs_f64();
        let mut stage_means = [0.0f64; 4];
        for (mean, (hist, before)) in
            stage_means.iter_mut().zip(stage_hists.iter().zip(&stages_before))
        {
            *mean = histogram_delta(before, &hist.snapshot()).mean_seconds();
        }
        let run = WireRun {
            threads,
            rounds,
            request_bytes,
            total_seconds,
            attacks_per_sec: rounds as f64 / total_seconds.max(1e-12),
            users_per_sec: (rounds * split.anonymized.n_users) as f64 / total_seconds.max(1e-12),
            parse_seconds: stage_means[0],
            queue_seconds: stage_means[1],
            engine_seconds: stage_means[2],
            emit_seconds: stage_means[3],
        };
        println!(
            "  wire attack × {rounds} [{request_bytes} B/req] at {threads} threads: \
             {total_seconds:.3}s ({:.2} attacks/s, {:.0} users/s; stage means parse {:.4}s / \
             queue {:.4}s / engine {:.4}s / emit {:.4}s)",
            run.attacks_per_sec,
            run.users_per_sec,
            run.parse_seconds,
            run.queue_seconds,
            run.engine_seconds,
            run.emit_seconds,
        );
        assert!(
            run.parse_seconds < 0.1 * run.engine_seconds,
            "an attack's parse ({:.6}s) must stay below 10% of its engine time ({:.6}s)",
            run.parse_seconds,
            run.engine_seconds
        );
        wire.push(run);
    }
    // Concurrent load: several clients, each its own connection, all
    // attacking at 1 worker thread so the contention is real. The sends
    // are barrier-synchronized so all requests arrive together. Latency
    // quantiles come from the daemon's own attack histogram, isolated to
    // this phase by differencing snapshots around it.
    let clients = 4usize;
    let rounds_per_client = 1usize;
    let attack_hist =
        daemon.registry().histogram_with("daemon_command_seconds", &[("cmd", "attack")]);
    let before = attack_hist.snapshot();
    let barrier = std::sync::Barrier::new(clients);
    let t0 = Instant::now();
    let mut client_seconds: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let anonymized = &split.anonymized;
                let reference = &reference;
                let barrier = &barrier;
                let addr = daemon.addr();
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("client connect");
                    let options = AttackOptions { threads: Some(1), ..AttackOptions::default() };
                    let mut own_seconds = 0.0f64;
                    let mut slowest = 0.0f64;
                    for _ in 0..rounds_per_client {
                        barrier.wait();
                        let sent = Instant::now();
                        let reply = client.attack(anonymized, &options).expect("wire attack");
                        let round_trip = sent.elapsed().as_secs_f64();
                        own_seconds += round_trip;
                        slowest = slowest.max(round_trip);
                        assert_eq!(
                            reply.mapping, reference.mapping,
                            "concurrent wire attack must match the serial reference"
                        );
                        assert_eq!(reply.candidates, reference.candidates);
                    }
                    (own_seconds, slowest)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (own_seconds, slowest) = h.join().expect("client thread panicked");
                slowest_round_trip_seconds = slowest_round_trip_seconds.max(slowest);
                own_seconds
            })
            .collect()
    });
    client_seconds.sort_by(f64::total_cmp);
    let spread_seconds = client_seconds.last().copied().unwrap_or(0.0)
        - client_seconds.first().copied().unwrap_or(0.0);
    let concurrent_seconds = t0.elapsed().as_secs_f64();
    let issued = clients * rounds_per_client;
    let delta = histogram_delta(&before, &attack_hist.snapshot());
    assert_eq!(
        delta.count(),
        issued as u64,
        "the attack histogram must count every concurrent request"
    );
    let concurrent = ConcurrentRun {
        clients,
        rounds_per_client,
        total_seconds: concurrent_seconds,
        attacks_per_sec: issued as f64 / concurrent_seconds.max(1e-12),
        mean_seconds: delta.mean_seconds(),
        p50: delta.quantile(0.5),
        p90: delta.quantile(0.9),
        p99: delta.quantile(0.99),
        client_seconds,
        spread_seconds,
    };
    println!(
        "  concurrent: {clients} clients × {rounds_per_client} attacks in \
         {concurrent_seconds:.3}s ({:.2} attacks/s; latency mean {:.3}s, p50 {}, \
         p90 {}, p99 {}; per-client spread {:.3}s; \
         slowest round trip {slowest_round_trip_seconds:.3}s)",
        concurrent.attacks_per_sec,
        concurrent.mean_seconds,
        fmt_quantile(concurrent.p50),
        fmt_quantile(concurrent.p90),
        fmt_quantile(concurrent.p99),
        concurrent.spread_seconds,
    );
    for (name, q) in [("p50", concurrent.p50), ("p90", concurrent.p90), ("p99", concurrent.p99)] {
        assert!(
            q.seconds <= slowest_round_trip_seconds,
            "latency {name} ({}) exceeds the slowest round trip any client observed ({:.6}s)",
            fmt_quantile(q),
            slowest_round_trip_seconds
        );
    }

    // The registry handle taken above outlives the daemon; `join`
    // consumes the daemon itself.
    client.shutdown().map_err(io::Error::other)?;
    daemon.join();
    let _ = std::fs::remove_file(&snap_path);

    // Every attack issued in this benchmark — serial sweep plus the
    // concurrent phase — must have left exactly one histogram sample.
    let total_attacks = wire.iter().map(|r| r.rounds).sum::<usize>() + issued;
    assert_eq!(
        registry.histogram_with("daemon_command_seconds", &[("cmd", "attack")]).count(),
        total_attacks as u64,
        "attack-latency histogram count must equal the attacks issued"
    );

    let bench = ServiceBench {
        users,
        anon_users: split.anonymized.n_users,
        cold_build_seconds,
        snapshot_save_seconds,
        snapshot_bytes,
        snapshot_load_seconds,
        load_vs_build_ratio,
        wire,
        concurrent,
        slowest_round_trip_seconds,
    };
    write_json(path, seed, &bench)?;
    println!("  wrote {}", path.display());
    Ok(bench)
}

/// Render a [`Quantile`] for the console: overflow estimates print as an
/// explicit floor (`≥1000.000s`), never as a plain measurement.
fn fmt_quantile(q: Quantile) -> String {
    if q.overflow {
        format!("≥{:.3}s (overflow)", q.seconds)
    } else {
        format!("{:.3}s", q.seconds)
    }
}

/// Per-bucket difference of two snapshots of the same histogram,
/// isolating the samples recorded between them. The extremes stay the
/// later snapshot's: they bound every sample up to then, a superset of
/// the window's, so a quantile clamped to them still never exceeds a
/// sample the daemon recorded.
fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut counts = after.counts;
    for (count, earlier) in counts.iter_mut().zip(&before.counts) {
        *count -= earlier;
    }
    HistogramSnapshot { counts, sum_nanos: after.sum_nanos - before.sum_nanos, ..*after }
}

/// Hand-rolled JSON (the workspace carries no serialization dependency).
fn write_json(path: &Path, seed: u64, b: &ServiceBench) -> io::Result<()> {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"service\",");
    let _ = writeln!(out, "  \"users\": {},", b.users);
    let _ = writeln!(out, "  \"anon_users\": {},", b.anon_users);
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"machine_parallelism\": {parallelism},");
    let _ = writeln!(out, "  \"cold_build_seconds\": {:.6},", b.cold_build_seconds);
    let _ = writeln!(out, "  \"snapshot_save_seconds\": {:.6},", b.snapshot_save_seconds);
    let _ = writeln!(out, "  \"snapshot_bytes\": {},", b.snapshot_bytes);
    let _ = writeln!(out, "  \"snapshot_load_seconds\": {:.6},", b.snapshot_load_seconds);
    let _ = writeln!(out, "  \"load_vs_build_ratio\": {:.6},", b.load_vs_build_ratio);
    let _ = writeln!(out, "  \"slowest_round_trip_seconds\": {:.6},", b.slowest_round_trip_seconds);
    out.push_str("  \"wire\": [\n");
    for (i, r) in b.wire.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"threads\": {}, \"rounds\": {}, \
             \"request_bytes\": {}, \"total_seconds\": {:.6}, \
             \"attacks_per_sec\": {:.3}, \"users_per_sec\": {:.1}, \
             \"parse_seconds\": {:.6}, \"queue_seconds\": {:.6}, \
             \"engine_seconds\": {:.6}, \"emit_seconds\": {:.6}}}",
            r.threads,
            r.rounds,
            r.request_bytes,
            r.total_seconds,
            r.attacks_per_sec,
            r.users_per_sec,
            r.parse_seconds,
            r.queue_seconds,
            r.engine_seconds,
            r.emit_seconds,
        );
        out.push_str(if i + 1 < b.wire.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let c = &b.concurrent;
    let _ = writeln!(out, "  \"concurrent\": {{");
    let _ = writeln!(out, "    \"clients\": {},", c.clients);
    let _ = writeln!(out, "    \"rounds_per_client\": {},", c.rounds_per_client);
    let _ = writeln!(out, "    \"total_seconds\": {:.6},", c.total_seconds);
    let _ = writeln!(out, "    \"attacks_per_sec\": {:.3},", c.attacks_per_sec);
    let _ = writeln!(out, "    \"latency_mean_seconds\": {:.6},", c.mean_seconds);
    let _ = writeln!(out, "    \"latency_p50_seconds\": {:.6},", c.p50.seconds);
    let _ = writeln!(out, "    \"latency_p50_overflow\": {},", c.p50.overflow);
    let _ = writeln!(out, "    \"latency_p90_seconds\": {:.6},", c.p90.seconds);
    let _ = writeln!(out, "    \"latency_p90_overflow\": {},", c.p90.overflow);
    let _ = writeln!(out, "    \"latency_p99_seconds\": {:.6},", c.p99.seconds);
    let _ = writeln!(out, "    \"latency_p99_overflow\": {},", c.p99.overflow);
    let per_client: Vec<String> = c.client_seconds.iter().map(|s| format!("{s:.6}")).collect();
    let _ = writeln!(out, "    \"client_seconds\": [{}],", per_client.join(", "));
    let _ = writeln!(out, "    \"spread_seconds\": {:.6}", c.spread_seconds);
    out.push_str("  }\n}\n");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, out)
}
