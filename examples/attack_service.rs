//! Drive the attack daemon over the wire: write a corpus snapshot, load
//! it into a daemon, stream an extra auxiliary cohort, attack the
//! anonymized batch, and verify the wire mapping against the in-process
//! serial `DeHealth::run` reference.
//!
//! ```text
//! cargo run --release --example attack_service [-- --users N] [--seed S] [--addr HOST:PORT] [--clients C] [--no-shutdown]
//! ```
//!
//! Without `--addr` the example spawns its own daemon on an ephemeral
//! local port (everything in one process, still over real TCP). With
//! `--addr` it drives an external `repro serve` daemon started from the
//! same `--users`/`--seed` (the split is regenerated deterministically,
//! so parity still holds) — the shape of the CI smoke job. With
//! `--clients C` (C ≥ 2) it additionally fires one barrier-synchronized
//! attack per client from C concurrent connections, so the daemon's
//! workers get real simultaneous load: every reply is still held to
//! bit-identical parity. The CI smoke job runs two of these clients
//! concurrently against the same live daemon.

use std::time::Instant;

use de_health::core::{AttackConfig, DeHealth};
use de_health::corpus::split::{closed_world_split, SplitConfig};
use de_health::corpus::{Forum, ForumConfig};
use de_health::engine::EngineConfig;
use de_health::service::daemon::default_config;
use de_health::service::{AttackOptions, Daemon, PreparedCorpus, ServiceClient};

fn main() {
    let mut users = 300usize;
    let mut seed = 42u64;
    let mut addr: Option<String> = None;
    let mut clients = 1usize;
    let mut no_shutdown = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--users" => users = argv.next().and_then(|v| v.parse().ok()).unwrap_or(users),
            "--seed" => seed = argv.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--addr" => addr = argv.next(),
            "--clients" => {
                clients = argv.next().and_then(|v| v.parse().ok()).unwrap_or(clients).max(1);
            }
            "--no-shutdown" => no_shutdown = true,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    // The same deterministic split `repro snapshot` / `repro serve` use.
    println!("generating a synthetic forum with {users} users (seed {seed})…");
    let forum = Forum::generate(&ForumConfig::webmd_like(users), seed);
    let split = closed_world_split(&forum, &SplitConfig::fraction(0.7), seed.wrapping_add(1));
    let attack = AttackConfig { top_k: 10, n_landmarks: 30, ..AttackConfig::default() };

    // In-process reference the wire results must reproduce exactly.
    println!("running the in-process serial reference attack…");
    let reference = DeHealth::new(attack.clone()).run(&split.auxiliary, &split.anonymized);

    // A daemon to talk to: external (--addr) or spawned right here.
    let spawned = if addr.is_none() {
        println!("spawning an in-process daemon…");
        let config = EngineConfig { attack: attack.clone(), ..default_config() };
        let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind daemon");
        addr = Some(daemon.addr().to_string());
        Some(daemon)
    } else {
        None
    };
    let addr = addr.expect("an address either given or spawned");
    let mut client = ServiceClient::connect(&addr).expect("connect to daemon");

    // Snapshot the prepared auxiliary corpus and load it over the wire.
    let snap_path = std::env::temp_dir().join(format!("attack-service-{users}-{seed}.snap"));
    println!("preparing + snapshotting the auxiliary corpus…");
    let t0 = Instant::now();
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack.classifier);
    let build_secs = t0.elapsed().as_secs_f64();
    corpus.save_streaming(&snap_path).expect("write snapshot");
    let loaded = client
        .load_snapshot(snap_path.to_str().expect("temp path is UTF-8"))
        .expect("load_snapshot");
    println!(
        "  cold build {build_secs:.3}s; daemon loaded {} users / {} posts in {}s",
        loaded.get("users").and_then(de_health::service::Json::as_usize).unwrap_or(0),
        loaded.get("posts").and_then(de_health::service::Json::as_usize).unwrap_or(0),
        loaded
            .get("seconds")
            .and_then(de_health::service::Json::as_f64)
            .map_or_else(|| "?".into(), |s| format!("{s:.3}")),
    );

    // Attack over the wire and check parity with the reference. The
    // options spell out the reference's parameters explicitly so an
    // external daemon's own defaults cannot skew the comparison.
    let options = AttackOptions {
        top_k: Some(attack.top_k),
        n_landmarks: Some(attack.n_landmarks),
        seed: Some(attack.seed),
        ..AttackOptions::default()
    };
    println!("attacking {} anonymized users over the wire…", split.anonymized.n_users);
    let t0 = Instant::now();
    let reply = client.attack(&split.anonymized, &options).expect("attack");
    let wire_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        reply.mapping, reference.mapping,
        "wire mapping diverged from the in-process serial attack"
    );
    assert_eq!(reply.candidates, reference.candidates, "wire candidate sets diverged");
    let mapped = reply.mapping.iter().filter(|m| m.is_some()).count();
    println!(
        "  {mapped}/{} users mapped in {wire_secs:.3}s — bit-identical to DeHealth::run ✓",
        split.anonymized.n_users
    );

    // With --clients C, hammer the daemon with C simultaneous attacks
    // from C connections. Barrier-synchronized sends arrive together and
    // run side by side on the daemon's workers — and every reply must
    // still match the serial reference exactly.
    if clients > 1 {
        println!("firing {clients} barrier-synchronized concurrent attacks…");
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let addr = addr.clone();
                let anonymized = split.anonymized.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = ServiceClient::connect(&addr).expect("connect concurrent");
                    barrier.wait();
                    client.attack(&anonymized, &options).expect("concurrent attack")
                })
            })
            .collect();
        for handle in handles {
            let reply = handle.join().expect("client thread");
            assert_eq!(
                reply.mapping, reference.mapping,
                "a concurrent reply diverged from the serial reference"
            );
            assert_eq!(reply.candidates, reference.candidates, "concurrent candidates diverged");
        }
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "  {clients} concurrent attacks in {wall:.3}s ({:.3} attacks/sec), all bit-identical ✓",
            clients as f64 / wall
        );
    }

    // Stream one more auxiliary cohort (a tiny synthetic one) and attack
    // again — the standing corpus grows without a restart.
    let extra = Forum::generate(&ForumConfig::tiny(), seed.wrapping_add(99));
    let grown = client.add_auxiliary_users(&extra).expect("add_auxiliary_users");
    println!(
        "streamed {} extra auxiliary users (corpus now {} users)",
        extra.n_users,
        grown.get("users").and_then(de_health::service::Json::as_usize).unwrap_or(0),
    );
    let reply2 = client.attack(&split.anonymized, &options).expect("attack");
    println!(
        "  re-attack on the grown corpus: {} users mapped",
        reply2.mapping.iter().filter(|m| m.is_some()).count()
    );

    let stats = client.stats().expect("stats");
    println!("daemon stats: {}", stats.emit());

    // Scrape the metric registry over the wire and hold the daemon to its
    // own telemetry: the attacks above must have left nonzero request
    // counters and attack-latency histogram samples (the CI smoke job
    // relies on these asserts firing against an external daemon too).
    let metrics = client.metrics().expect("metrics");
    let list =
        metrics.get("metrics").and_then(de_health::service::Json::as_array).expect("metrics array");
    let find = |name: &str, label: Option<(&str, &str)>| {
        list.iter().find(|m| {
            m.get("name").and_then(de_health::service::Json::as_str) == Some(name)
                && label.is_none_or(|(k, v)| {
                    m.get("labels")
                        .and_then(|l| l.get(k))
                        .and_then(de_health::service::Json::as_str)
                        == Some(v)
                })
        })
    };
    let requests = find("daemon_requests_total", None)
        .and_then(|m| m.get("value"))
        .and_then(de_health::service::Json::as_f64)
        .expect("daemon_requests_total present");
    assert!(requests >= 4.0, "request counter must cover the commands issued, got {requests}");
    let attack_hist = find("daemon_command_seconds", Some(("cmd", "attack")))
        .expect("attack latency histogram present");
    let samples = attack_hist
        .get("count")
        .and_then(de_health::service::Json::as_usize)
        .expect("histogram count");
    assert!(samples >= 2, "attack latency histogram must hold the attacks served, got {samples}");
    let p50 =
        attack_hist.get("p50").and_then(de_health::service::Json::as_f64).expect("histogram p50");
    println!(
        "daemon telemetry: {requests} requests, {samples} attack latency samples (p50 {p50:.3}s) ✓"
    );

    // --no-shutdown leaves the daemon serving (so an external harness —
    // the CI smoke job — can scrape its Prometheus endpoint after this
    // load and stop it itself).
    if no_shutdown {
        println!("leaving the daemon running (--no-shutdown)");
    } else {
        client.shutdown().expect("shutdown");
        if let Some(daemon) = spawned {
            daemon.join();
            println!("daemon shut down");
        }
    }
    let _ = std::fs::remove_file(&snap_path);
}
