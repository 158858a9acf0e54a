//! Daemon round-trip parity: a wire `attack` on a snapshot-loaded corpus
//! must produce mappings and candidate sets **bit-identical** to the
//! in-process serial `DeHealth::run` on the freshly built corpus — at 1
//! and 8 worker threads, in both the owned and the zero-copy (mmap) load
//! mode — plus protocol behavior (incremental ingest, stats, error
//! responses, shutdown) and the protocol-hardening limits (request size
//! cap, half-open read deadline, max-connections cap).

use std::time::Duration;

use de_health::core::{AttackConfig, DeHealth};
use de_health::corpus::split::{closed_world_split, SplitConfig};
use de_health::corpus::{Forum, ForumConfig, Post};
use de_health::engine::EngineConfig;
use de_health::service::daemon::default_config;
use de_health::service::{
    AttackOptions, Daemon, DaemonLimits, Json, LoadMode, PreparedCorpus, ServiceClient,
};

fn tiny_split() -> de_health::corpus::Split {
    let forum = Forum::generate(&ForumConfig::tiny(), 42);
    closed_world_split(&forum, &SplitConfig::fraction(0.5), 7)
}

fn attack_cfg() -> AttackConfig {
    AttackConfig { top_k: 5, n_landmarks: 10, ..AttackConfig::default() }
}

#[test]
fn wire_attack_on_snapshot_matches_serial_attack_at_1_and_8_threads() {
    let split = tiny_split();
    let reference = DeHealth::new(attack_cfg()).run(&split.auxiliary, &split.anonymized);

    // Freshly built corpus → snapshot file → daemon `load_snapshot`.
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_cfg().classifier);
    let snap_path = std::env::temp_dir().join("dehealth-service-parity-test.snap");
    corpus.save_streaming(&snap_path).unwrap();

    let config = EngineConfig { attack: attack_cfg(), ..default_config() };
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    let loaded = client.load_snapshot(snap_path.to_str().unwrap()).unwrap();
    assert_eq!(loaded.get("users").and_then(Json::as_usize), Some(split.auxiliary.n_users));

    for threads in [1usize, 8] {
        let options = AttackOptions { threads: Some(threads), ..AttackOptions::default() };
        let reply = client.attack(&split.anonymized, &options).unwrap();
        assert_eq!(
            reply.mapping, reference.mapping,
            "wire mapping diverged from DeHealth::run at {threads} threads"
        );
        assert_eq!(
            reply.candidates, reference.candidates,
            "wire candidates diverged from DeHealth::run at {threads} threads"
        );
        // The report travels with every attack and covers the pipeline. Its
        // `n_threads` counts the workers each stage ran: the threads asked
        // for, capped by the machine's cores (no other request is running)
        // and by the anonymized users, which small blocks spread over
        // every worker.
        let report = reply.raw.get("report").expect("report present");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = threads.min(cores).min(split.anonymized.n_users);
        assert_eq!(report.get("n_threads").and_then(Json::as_usize), Some(workers));
        let stages = report.get("stages").and_then(Json::as_array).expect("stages");
        let names: Vec<_> =
            stages.iter().filter_map(|s| s.get("stage").and_then(Json::as_str)).collect();
        assert!(names.contains(&"prepare") && names.contains(&"topk"));
        assert!(names.contains(&"refined"));
    }

    client.shutdown().unwrap();
    daemon.join();
    std::fs::remove_file(&snap_path).unwrap();
}

#[test]
fn wire_attack_on_mmap_loaded_corpus_is_bit_identical_to_owned_and_serial() {
    // The zero-copy acceptance oracle: one daemon per load mode, both
    // serving the same snapshot file; wire attacks at 1 and 8 worker
    // threads must agree with each other AND with the serial
    // `DeHealth::run` reference, bit for bit.
    let split = tiny_split();
    let reference = DeHealth::new(attack_cfg()).run(&split.auxiliary, &split.anonymized);
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_cfg().classifier);
    let snap_path = std::env::temp_dir().join("dehealth-service-mmap-parity-test.snap");
    corpus.save_streaming(&snap_path).unwrap();

    // Sanity at the corpus level: the mapped load really borrows.
    let mapped = PreparedCorpus::load_with(&snap_path, LoadMode::Mapped).unwrap();
    assert!(mapped.is_mapped());
    assert_eq!(mapped.memory_stats().resident_arena_bytes, 0);
    drop(mapped);

    for (mode, expect_mapped) in [("owned", false), ("mmap", true)] {
        let config = EngineConfig { attack: attack_cfg(), ..default_config() };
        let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
        let mut client = ServiceClient::connect(daemon.addr()).unwrap();
        let loaded = client
            .request(&Json::Obj(vec![
                ("cmd".into(), Json::Str("load_snapshot".into())),
                ("path".into(), Json::Str(snap_path.to_str().unwrap().into())),
                ("mode".into(), Json::Str(mode.into())),
            ]))
            .unwrap();
        assert_eq!(loaded.get("mapped").and_then(Json::as_bool), Some(expect_mapped), "{mode}");
        if expect_mapped {
            assert_eq!(loaded.get("resident_arena_bytes").and_then(Json::as_usize), Some(0));
            assert!(loaded.get("borrowed_arena_bytes").and_then(Json::as_usize).unwrap() > 0);
        }
        for threads in [1usize, 8] {
            let options = AttackOptions { threads: Some(threads), ..AttackOptions::default() };
            let reply = client.attack(&split.anonymized, &options).unwrap();
            assert_eq!(
                reply.mapping, reference.mapping,
                "{mode} wire mapping diverged from DeHealth::run at {threads} threads"
            );
            assert_eq!(
                reply.candidates, reference.candidates,
                "{mode} wire candidates diverged from DeHealth::run at {threads} threads"
            );
        }
        client.shutdown().unwrap();
        daemon.join();
    }
    std::fs::remove_file(&snap_path).unwrap();
}

#[test]
fn streaming_ingest_into_mmap_loaded_corpus_promotes_and_stays_exact() {
    // Load zero-copy over the wire, then stream an extra cohort in: the
    // copy-on-write promotion must leave the daemon serving exactly the
    // merged corpus (attack parity vs. a serial run on the union).
    let split = tiny_split();
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_cfg().classifier);
    let snap_path = std::env::temp_dir().join("dehealth-service-mmap-ingest-test.snap");
    corpus.save_streaming(&snap_path).unwrap();

    let chunk = Forum::generate(&ForumConfig::tiny(), 77);
    let mut merged_posts: Vec<Post> = split.auxiliary.posts.clone();
    for p in &chunk.posts {
        merged_posts.push(Post {
            author: p.author + split.auxiliary.n_users,
            thread: p.thread + split.auxiliary.n_threads,
            text: p.text.clone(),
        });
    }
    let merged = Forum::from_posts(
        split.auxiliary.n_users + chunk.n_users,
        split.auxiliary.n_threads + chunk.n_threads,
        merged_posts,
    );
    let reference = DeHealth::new(attack_cfg()).run(&merged, &split.anonymized);

    let config = EngineConfig { attack: attack_cfg(), ..default_config() };
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    client.load_snapshot(snap_path.to_str().unwrap()).unwrap(); // default mode = mmap
    client.add_auxiliary_users(&chunk).unwrap();
    let reply = client.attack(&split.anonymized, &AttackOptions::default()).unwrap();
    assert_eq!(reply.mapping, reference.mapping);
    assert_eq!(reply.candidates, reference.candidates);
    client.shutdown().unwrap();
    daemon.join();
    std::fs::remove_file(&snap_path).unwrap();
}

#[test]
fn oversized_requests_get_a_typed_error_and_a_closed_connection() {
    use std::io::{BufRead, BufReader, Write};
    let limits = DaemonLimits { max_request_bytes: 512, ..DaemonLimits::default() };
    let daemon = Daemon::bind_with("127.0.0.1:0", default_config(), None, limits).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Pour > 512 bytes of a never-ending request line down the socket.
    let blob = vec![b'x'; 8 * 1024];
    let _ = stream.write_all(&blob);
    let _ = stream.flush();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert!(response.get("error").and_then(Json::as_str).unwrap().contains("byte limit"));
    // Connection is closed afterwards.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    assert_eq!(daemon.stats().dropped_connections, 1);

    // A well-behaved client on a fresh connection still gets served.
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    assert!(client.stats().is_ok());
    client.shutdown().unwrap();
    daemon.join();
}

#[test]
fn half_open_connections_hit_the_read_deadline() {
    use std::io::{BufRead, BufReader, Write};
    let limits =
        DaemonLimits { read_deadline: Duration::from_millis(150), ..DaemonLimits::default() };
    let daemon = Daemon::bind_with("127.0.0.1:0", default_config(), None, limits).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Start a request and stall forever.
    stream.write_all(b"{\"cmd\":\"sta").unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert!(response.get("error").and_then(Json::as_str).unwrap().contains("read deadline"));
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection must be closed");
    assert_eq!(daemon.stats().dropped_connections, 1);

    // An idle connection with NO partial request is not deadline-killed:
    // it can still issue a request long after the deadline.
    let mut idle = ServiceClient::connect(daemon.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert!(idle.stats().is_ok());
    idle.shutdown().unwrap();
    daemon.join();
}

#[test]
fn connections_beyond_the_cap_are_rejected_with_a_typed_error() {
    use std::io::{BufRead, BufReader};
    let limits = DaemonLimits { max_connections: 1, ..DaemonLimits::default() };
    let daemon = Daemon::bind_with("127.0.0.1:0", default_config(), None, limits).unwrap();
    // First connection occupies the single slot (prove it is serving).
    let mut first = ServiceClient::connect(daemon.addr()).unwrap();
    assert!(first.stats().is_ok());
    // Second connection gets the typed rejection line, then EOF.
    let over = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(over);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert!(response.get("error").and_then(Json::as_str).unwrap().contains("connection limit"));
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    assert_eq!(daemon.stats().rejected_connections, 1);
    // The established session is unaffected; the freed slot serves again.
    let stats = first.stats().unwrap();
    assert_eq!(stats.get("rejected_connections").and_then(Json::as_usize), Some(1));
    first.shutdown().unwrap();
    daemon.join();
}

#[test]
fn incremental_wire_ingest_matches_batch_reference() {
    // Stream the auxiliary side in two cohorts through
    // `add_auxiliary_users` (bootstrap + append); the wire attack must
    // match the serial attack on the merged corpus the daemon is
    // documented to hold (chunk ids offset by prior totals).
    let split = tiny_split();
    let aux = &split.auxiliary;
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
    let chunks = [chunk_of(0, cut), chunk_of(cut, aux.n_users)];
    let mut merged_posts = Vec::new();
    let (mut user_off, mut thread_off) = (0usize, 0usize);
    for chunk in &chunks {
        for p in &chunk.posts {
            merged_posts.push(Post {
                author: p.author + user_off,
                thread: p.thread + thread_off,
                text: p.text.clone(),
            });
        }
        user_off += chunk.n_users;
        thread_off += chunk.n_threads;
    }
    let merged = Forum::from_posts(user_off, thread_off, merged_posts);
    let reference = DeHealth::new(attack_cfg()).run(&merged, &split.anonymized);

    let config = EngineConfig { attack: attack_cfg(), ..default_config() };
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();

    // No corpus yet: attack must fail with a remote error, not a panic.
    let err = client.attack(&split.anonymized, &AttackOptions::default());
    assert!(matches!(err, Err(de_health::service::ServiceError::Remote(_))));

    let first = client.add_auxiliary_users(&chunks[0]).unwrap();
    assert_eq!(first.get("users").and_then(Json::as_usize), Some(cut));
    let second = client.add_auxiliary_users(&chunks[1]).unwrap();
    assert_eq!(second.get("users").and_then(Json::as_usize), Some(aux.n_users));

    let reply = client.attack(&split.anonymized, &AttackOptions::default()).unwrap();
    assert_eq!(reply.mapping, reference.mapping);
    assert_eq!(reply.candidates, reference.candidates);

    client.shutdown().unwrap();
    daemon.join();
}

/// `chunks` merged the way consecutive ingests number them: each chunk's
/// users and threads offset by the totals before it.
fn union_of(chunks: &[Forum]) -> Forum {
    let (mut users, mut threads, mut posts) = (0, 0, Vec::new());
    for chunk in chunks {
        posts.extend(chunk.posts.iter().map(|p| Post {
            author: p.author + users,
            thread: p.thread + threads,
            text: p.text.clone(),
        }));
        users += chunk.n_users;
        threads += chunk.n_threads;
    }
    Forum::from_posts(users, threads, posts)
}

/// Users `lo..hi` of `forum`, renumbered from 0, with their `i`-th post
/// moved into thread `i % n_threads`: with a thread per post every user
/// is alone (degree 0), with one thread every user meets every other.
fn regroup(forum: &Forum, lo: usize, hi: usize, n_threads: usize) -> Forum {
    let posts = forum.posts.iter().filter(|p| (lo..hi).contains(&p.author));
    let posts = posts.enumerate().map(|(i, p)| Post {
        author: p.author - lo,
        thread: i % n_threads,
        text: p.text.clone(),
    });
    Forum::from_posts(hi - lo, n_threads, posts.collect())
}

#[test]
fn interleaved_attacks_and_ingests_match_serial_attacks_on_the_union() {
    // Each in-place ingest carries the daemon's auxiliary cache along,
    // extending or dropping each entry. perfbench replays the ingests
    // through the same append, so only a serial attack on a fresh union
    // catches an extension that drifts from a rebuild. The cohorts: short
    // posts that keep the landmarks and the hot set, users alone in their
    // threads (degree 0: the landmarks stay), and users crowded into one
    // thread, who outrank the last landmark.
    let split = tiny_split();
    let extra = Forum::generate(&ForumConfig::tiny(), 77);
    let short = |author, text: &str| Post { author, thread: author, text: text.into() };
    let ingests = [
        vec![Forum::from_posts(3, 2, vec![short(0, "ok"), short(1, "the pain")])],
        vec![regroup(&extra, 0, 10, 1_000), regroup(&extra, 10, 25, 1)],
        vec![regroup(&extra, 25, 35, 1_000)],
    ];
    // A Top-K that keeps every pair, so each score the cache feeds shows.
    let attack = AttackConfig { top_k: 100, ..attack_cfg() };
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack.classifier);
    let config = EngineConfig { attack: attack.clone(), ..default_config() };
    let daemon = Daemon::bind_with_corpus("127.0.0.1:0", config, Some(corpus)).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();

    let mut chunks = vec![split.auxiliary.clone()];
    for round in 0..=ingests.len() {
        if round > 0 {
            for chunk in &ingests[round - 1] {
                let reply = client.add_auxiliary_users(chunk).unwrap();
                chunks.push(chunk.clone());
                let users = chunks.iter().map(|c| c.n_users).sum();
                assert_eq!(reply.get("users").and_then(Json::as_usize), Some(users));
            }
        }
        let reference = DeHealth::new(attack.clone()).run(&union_of(&chunks), &split.anonymized);
        for threads in [1usize, 2] {
            let options = AttackOptions { threads: Some(threads), ..AttackOptions::default() };
            let reply = client.attack(&split.anonymized, &options).unwrap();
            assert_eq!(reply.mapping, reference.mapping, "round {round}, {threads} threads");
            assert_eq!(reply.candidates, reference.candidates, "round {round}, {threads} threads");
        }
    }

    client.shutdown().unwrap();
    daemon.join();
}

#[test]
fn stats_count_served_work_and_errors() {
    let split = tiny_split();
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_cfg().classifier);
    let config = EngineConfig { attack: attack_cfg(), ..default_config() };
    let daemon = Daemon::bind_with_corpus("127.0.0.1:0", config, Some(corpus)).unwrap();

    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    let reply = client.attack(&split.anonymized, &AttackOptions::default()).unwrap();
    let mapped = reply.mapping.iter().filter(|m| m.is_some()).count();

    // Malformed request and unknown command both get error responses.
    let err = client.request(&Json::parse(r#"{"cmd":"no_such_cmd"}"#).unwrap());
    assert!(
        matches!(err, Err(de_health::service::ServiceError::Remote(m)) if m.contains("unknown"))
    );
    let err = client.request(&Json::parse(r#"{"nope": 1}"#).unwrap());
    assert!(matches!(err, Err(de_health::service::ServiceError::Remote(m)) if m.contains("cmd")));

    // A second concurrent connection sees the same standing corpus.
    let mut other = ServiceClient::connect(daemon.addr()).unwrap();
    let stats = other.stats().unwrap();
    assert_eq!(stats.get("corpus_users").and_then(Json::as_usize), Some(split.auxiliary.n_users));
    assert_eq!(stats.get("attacks").and_then(Json::as_usize), Some(1));
    assert_eq!(
        stats.get("attacked_users").and_then(Json::as_usize),
        Some(split.anonymized.n_users)
    );
    assert_eq!(stats.get("mapped_users").and_then(Json::as_usize), Some(mapped));
    assert_eq!(stats.get("errors").and_then(Json::as_usize), Some(2));
    assert!(stats.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);

    // Daemon-side counters agree with the wire view.
    let daemon_stats = daemon.stats();
    assert_eq!(daemon_stats.attacks, 1);
    assert_eq!(daemon_stats.errors, 2);

    other.shutdown().unwrap();
    daemon.join();
}

#[test]
fn concurrent_ingests_from_two_connections_both_land() {
    // Two clients stream disjoint cohorts at the same time. The daemon's
    // copy-on-write updates must serialize — if both built on the same
    // base corpus, one swap would silently discard the other's chunk.
    let daemon = Daemon::bind("127.0.0.1:0", default_config()).unwrap();
    let addr = daemon.addr();
    let chunk_a = Forum::generate(&ForumConfig::tiny(), 5);
    let chunk_b = Forum::generate(&ForumConfig::tiny(), 6);
    let expected = chunk_a.n_users + chunk_b.n_users;
    let send = |chunk: Forum| {
        std::thread::spawn(move || {
            let mut client = ServiceClient::connect(addr).unwrap();
            client.add_auxiliary_users(&chunk).unwrap();
        })
    };
    let (a, b) = (send(chunk_a), send(chunk_b));
    a.join().unwrap();
    b.join().unwrap();
    let mut client = ServiceClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("corpus_users").and_then(Json::as_usize), Some(expected));
    assert_eq!(stats.get("corpus_updates").and_then(Json::as_usize), Some(2));
    client.shutdown().unwrap();
    daemon.join();
}

#[test]
#[should_panic(expected = "not exactly representable")]
fn oversized_wire_seeds_fail_loudly_instead_of_rounding() {
    let options = AttackOptions { seed: Some((1u64 << 53) + 1), ..AttackOptions::default() };
    let _ = options.to_fields();
}

#[test]
fn requests_split_across_slow_tcp_segments_are_not_lost() {
    use std::io::{BufRead, BufReader, Write};
    // Deliver one request a few bytes at a time with pauses longer than
    // the daemon's shutdown-poll interval. The handler must accumulate
    // the partial line across its read timeouts — dropping bytes at a
    // poll tick would leave the client waiting forever (regression test:
    // the original BufReader::read_line loop did exactly that under
    // load).
    let daemon = Daemon::bind("127.0.0.1:0", default_config()).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..2 {
        for part in b"{\"cmd\":\"stats\"}\n".chunks(4) {
            stream.write_all(part).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(60));
        }
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = Json::parse(line.trim()).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert!(response.get("uptime_seconds").is_some());
    }
    stream.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    daemon.join();
}

#[test]
fn shutdown_stops_the_daemon_promptly() {
    let daemon = Daemon::bind("127.0.0.1:0", default_config()).unwrap();
    let addr = daemon.addr();
    let mut client = ServiceClient::connect(addr).unwrap();
    assert!(!daemon.is_shutting_down());
    client.shutdown().unwrap();
    daemon.join();
    // New connections are refused (or accepted-then-dropped) once down;
    // either way no request can succeed.
    if let Ok(mut late) = ServiceClient::connect(addr) {
        assert!(late.stats().is_err());
    }
}

#[test]
fn stats_wire_schema_is_field_for_field_identical_to_the_mutex_era() {
    // The registry-backed `stats` implementation must be indistinguishable
    // on the wire from the retired `Mutex<DaemonStats>` one: same fields,
    // same order, same numeric values for a known workload (one attack,
    // two error responses — the workload of `stats_count_served_work_and
    // _errors`).
    let split = tiny_split();
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_cfg().classifier);
    let config = EngineConfig { attack: attack_cfg(), ..default_config() };
    let daemon = Daemon::bind_with_corpus("127.0.0.1:0", config, Some(corpus)).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    let reply = client.attack(&split.anonymized, &AttackOptions::default()).unwrap();
    let mapped = reply.mapping.iter().filter(|m| m.is_some()).count();
    let _ = client.request(&Json::parse(r#"{"cmd":"no_such_cmd"}"#).unwrap());
    let _ = client.request(&Json::parse(r#"{"nope": 1}"#).unwrap());

    let stats = client.stats().unwrap();
    let Json::Obj(pairs) = &stats else { panic!("stats response must be an object") };
    let fields: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        fields,
        [
            "ok",
            "corpus_users",
            "corpus_posts",
            "requests",
            "errors",
            "attacks",
            "attacked_users",
            "mapped_users",
            "corpus_updates",
            "rejected_connections",
            "dropped_connections",
            "uptime_seconds",
        ],
        "stats wire schema drifted from the pre-registry implementation"
    );
    assert_eq!(stats.get("corpus_users").and_then(Json::as_usize), Some(split.auxiliary.n_users));
    // attack + 2 failed requests served so far; the in-flight `stats`
    // request is not yet counted (it is counted after its response is
    // written, exactly like the mutex-era daemon).
    assert_eq!(stats.get("requests").and_then(Json::as_usize), Some(3));
    assert_eq!(stats.get("errors").and_then(Json::as_usize), Some(2));
    assert_eq!(stats.get("attacks").and_then(Json::as_usize), Some(1));
    assert_eq!(
        stats.get("attacked_users").and_then(Json::as_usize),
        Some(split.anonymized.n_users)
    );
    assert_eq!(stats.get("mapped_users").and_then(Json::as_usize), Some(mapped));
    assert_eq!(stats.get("corpus_updates").and_then(Json::as_usize), Some(0));
    assert_eq!(stats.get("rejected_connections").and_then(Json::as_usize), Some(0));
    assert_eq!(stats.get("dropped_connections").and_then(Json::as_usize), Some(0));
    client.shutdown().unwrap();
    daemon.join();
}

#[test]
fn metrics_round_trip_contains_every_registered_daemon_metric() {
    use de_health::service::daemon::{COMMANDS, ERROR_KINDS};
    let split = tiny_split();
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_cfg().classifier);
    let config = EngineConfig { attack: attack_cfg(), ..default_config() };
    let daemon = Daemon::bind_with_corpus("127.0.0.1:0", config, Some(corpus)).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    client.attack(&split.anonymized, &AttackOptions::default()).unwrap();

    // Round trip: daemon response → emit → parse through `service::json`.
    let response = client.metrics().unwrap();
    let reparsed = Json::parse(&response.emit()).unwrap();
    let metrics = reparsed.get("metrics").and_then(Json::as_array).expect("metrics array");

    let label_of = |m: &Json, key: &str| -> Option<String> {
        m.get("labels")?.get(key).and_then(Json::as_str).map(str::to_string)
    };
    let has = |name: &str, label: Option<(&str, &str)>| {
        metrics.iter().any(|m| {
            m.get("name").and_then(Json::as_str) == Some(name)
                && label.is_none_or(|(k, v)| label_of(m, k).as_deref() == Some(v))
        })
    };

    for name in [
        "daemon_requests_total",
        "daemon_errors_total",
        "daemon_attacks_total",
        "daemon_attacked_users_total",
        "daemon_mapped_users_total",
        "daemon_corpus_updates_total",
        "daemon_rejected_connections_total",
        "daemon_dropped_connections_total",
        "daemon_connections_live",
        "daemon_parse_seconds",
        "daemon_queue_seconds",
        "daemon_engine_seconds",
        "daemon_emit_seconds",
        "corpus_users",
        "corpus_posts",
        "corpus_generation",
        "corpus_resident_arena_bytes",
        "corpus_borrowed_arena_bytes",
    ] {
        assert!(has(name, None), "metric {name} missing from the wire registry dump");
    }
    for cmd in COMMANDS {
        assert!(has("daemon_command_requests_total", Some(("cmd", cmd))), "{cmd}");
        assert!(has("daemon_command_seconds", Some(("cmd", cmd))), "{cmd}");
    }
    for kind in ERROR_KINDS {
        assert!(has("daemon_error_kind_total", Some(("kind", kind))), "{kind}");
    }

    // The attack left observable traces: a live request counter, one
    // latency sample in the attack histogram, and engine stage timings
    // recorded through `EngineReport::record_into`.
    let value_of = |name: &str, label: Option<(&str, &str)>| -> Option<f64> {
        metrics
            .iter()
            .find(|m| {
                m.get("name").and_then(Json::as_str) == Some(name)
                    && label.is_none_or(|(k, v)| label_of(m, k).as_deref() == Some(v))
            })
            .and_then(|m| m.get("value").and_then(Json::as_f64))
    };
    assert!(value_of("daemon_requests_total", None).unwrap() >= 1.0);
    assert!(value_of("daemon_command_requests_total", Some(("cmd", "attack"))).unwrap() >= 1.0);
    let attack_hist = metrics
        .iter()
        .find(|m| {
            m.get("name").and_then(Json::as_str) == Some("daemon_command_seconds")
                && label_of(m, "cmd").as_deref() == Some("attack")
        })
        .expect("attack latency histogram");
    assert_eq!(attack_hist.get("count").and_then(Json::as_usize), Some(1));
    assert!(attack_hist.get("p50").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(has("engine_stage_seconds", Some(("stage", "topk"))));

    client.shutdown().unwrap();
    daemon.join();
}

#[test]
fn concurrent_mixed_override_attacks_are_bit_identical_to_serial() {
    // Four clients fire mixed attack requests (different top_k / seed /
    // n_landmarks overrides) at once. The daemon runs them side by side
    // on its workers, sharing one corpus generation and its auxiliary
    // cache — and every reply must be bit-identical to the serial
    // `DeHealth::run` oracle for that request's config, at 1, 2 and 8
    // engine threads.
    let split = tiny_split();
    let variants: Vec<(AttackOptions, AttackConfig)> = vec![
        (AttackOptions::default(), attack_cfg()),
        (
            AttackOptions { top_k: Some(3), seed: Some(1234), ..AttackOptions::default() },
            AttackConfig { top_k: 3, seed: 1234, ..attack_cfg() },
        ),
        (
            AttackOptions { n_landmarks: Some(6), ..AttackOptions::default() },
            AttackConfig { n_landmarks: 6, ..attack_cfg() },
        ),
        (
            AttackOptions { top_k: Some(7), ..AttackOptions::default() },
            AttackConfig { top_k: 7, ..attack_cfg() },
        ),
    ];
    let references: Vec<_> = variants
        .iter()
        .map(|(_, cfg)| DeHealth::new(cfg.clone()).run(&split.auxiliary, &split.anonymized))
        .collect();

    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_cfg().classifier);
    let config = EngineConfig { attack: attack_cfg(), ..default_config() };
    for threads in [1usize, 2, 8] {
        let daemon =
            Daemon::bind_with_corpus("127.0.0.1:0", config.clone(), Some(corpus.clone())).unwrap();
        let addr = daemon.addr();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(variants.len()));
        let handles: Vec<_> = variants
            .iter()
            .map(|(options, _)| {
                let anonymized = split.anonymized.clone();
                let options = AttackOptions { threads: Some(threads), ..*options };
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    barrier.wait();
                    client.attack(&anonymized, &options).unwrap()
                })
            })
            .collect();
        let replies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ((reply, reference), (options, _)) in replies.iter().zip(&references).zip(&variants) {
            assert_eq!(
                reply.mapping, reference.mapping,
                "concurrent mapping diverged from DeHealth::run at {threads} threads ({options:?})"
            );
            assert_eq!(
                reply.candidates, reference.candidates,
                "concurrent candidates diverged at {threads} threads ({options:?})"
            );
        }

        let mut closer = ServiceClient::connect(addr).unwrap();
        closer.shutdown().unwrap();
        daemon.join();
    }
}

#[test]
fn concurrent_attacks_on_both_sides_of_an_ingest_stay_exact() {
    // Attacks capture the corpus Arc when they come off the wire: an
    // ingest between two rounds of concurrent attacks must route the
    // first round against the old corpus and the second against the new
    // one — each side bit-identical to its own serial oracle.
    let split = tiny_split();
    let chunk = Forum::generate(&ForumConfig::tiny(), 77);
    let mut merged_posts: Vec<Post> = split.auxiliary.posts.clone();
    for p in &chunk.posts {
        merged_posts.push(Post {
            author: p.author + split.auxiliary.n_users,
            thread: p.thread + split.auxiliary.n_threads,
            text: p.text.clone(),
        });
    }
    let merged = Forum::from_posts(
        split.auxiliary.n_users + chunk.n_users,
        split.auxiliary.n_threads + chunk.n_threads,
        merged_posts,
    );
    let reference_old = DeHealth::new(attack_cfg()).run(&split.auxiliary, &split.anonymized);
    let reference_new = DeHealth::new(attack_cfg()).run(&merged, &split.anonymized);

    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_cfg().classifier);
    let config = EngineConfig { attack: attack_cfg(), ..default_config() };
    let daemon = Daemon::bind_with_corpus("127.0.0.1:0", config, Some(corpus)).unwrap();
    let addr = daemon.addr();

    let fire_pair = |expected_mapping: Vec<Option<usize>>| {
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let anonymized = split.anonymized.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    barrier.wait();
                    client.attack(&anonymized, &AttackOptions::default()).unwrap()
                })
            })
            .collect();
        for h in handles {
            let reply = h.join().unwrap();
            assert_eq!(reply.mapping, expected_mapping);
        }
    };

    // Two concurrent attacks against the pre-ingest corpus…
    fire_pair(reference_old.mapping.clone());
    // …the ingest grows the corpus…
    let mut updater = ServiceClient::connect(addr).unwrap();
    updater.add_auxiliary_users(&chunk).unwrap();
    // …and two concurrent attacks against the grown one.
    fire_pair(reference_new.mapping.clone());

    updater.shutdown().unwrap();
    daemon.join();
}

#[test]
fn attack_parity_holds_while_the_registry_is_scraped() {
    // Telemetry must be purely observational: interleaving `metrics`
    // scrapes (wire JSON and Prometheus text) with attacks cannot perturb
    // the attack results.
    let split = tiny_split();
    let reference = DeHealth::new(attack_cfg()).run(&split.auxiliary, &split.anonymized);
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_cfg().classifier);
    let config = EngineConfig { attack: attack_cfg(), ..default_config() };
    let daemon = Daemon::bind_with_corpus("127.0.0.1:0", config, Some(corpus)).unwrap();
    let registry = daemon.registry();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    for _ in 0..2 {
        let reply = client.attack(&split.anonymized, &AttackOptions::default()).unwrap();
        assert_eq!(reply.mapping, reference.mapping);
        assert_eq!(reply.candidates, reference.candidates);
        client.metrics().unwrap();
        assert!(registry.prometheus_text().contains("# TYPE daemon_command_seconds histogram"));
    }
    client.shutdown().unwrap();
    daemon.join();
}

#[test]
fn attack_option_and_thread_matrix_is_bit_identical_to_the_serial_oracle() {
    // Every (threads × options) cell of the attack matrix must come back
    // bit-identical to the serial `DeHealth::run` reference for that
    // cell's config.
    let split = tiny_split();
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack_cfg().classifier);
    let config = EngineConfig { attack: attack_cfg(), ..default_config() };
    let daemon = Daemon::bind_with_corpus("127.0.0.1:0", config, Some(corpus)).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();

    let variants: Vec<(AttackOptions, AttackConfig)> = vec![
        (AttackOptions::default(), attack_cfg()),
        (AttackOptions { threads: Some(1), ..AttackOptions::default() }, attack_cfg()),
        (AttackOptions { threads: Some(8), ..AttackOptions::default() }, attack_cfg()),
        (
            AttackOptions { top_k: Some(3), n_landmarks: Some(6), ..AttackOptions::default() },
            AttackConfig { top_k: 3, n_landmarks: 6, ..attack_cfg() },
        ),
        (
            AttackOptions { seed: Some(99), threads: Some(2), ..AttackOptions::default() },
            AttackConfig { seed: 99, ..attack_cfg() },
        ),
    ];
    for (options, serial_cfg) in variants {
        let reference = DeHealth::new(serial_cfg).run(&split.auxiliary, &split.anonymized);
        let reply = client.attack(&split.anonymized, &options).unwrap();
        assert_eq!(reply.mapping, reference.mapping, "wire vs serial: {options:?}");
        assert_eq!(reply.candidates, reference.candidates, "wire vs serial: {options:?}");
    }

    // The stage timers prove parsing was billed to the workers.
    let registry = daemon.registry();
    for stage in ["parse", "queue", "engine", "emit"] {
        let h = registry.histogram(&format!("daemon_{stage}_seconds"));
        assert!(h.count() > 0, "daemon_{stage}_seconds recorded no samples");
    }

    client.shutdown().unwrap();
    daemon.join();
}

#[test]
fn a_line_that_is_not_json_gets_invalid_json_and_the_connection_serves_on() {
    // 0xDE once opened a binary frame, so the daemon waited for an 8-byte
    // header. Now every request is a line: this one gets one typed
    // `invalid_json` reply, and the same connection serves the next line.
    use std::io::{BufRead, BufReader, Write};
    let daemon = Daemon::bind("127.0.0.1:0", default_config()).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = |bytes: &[u8]| {
        stream.write_all(bytes).unwrap();
        stream.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    };

    let rejected = reply(b"\xDE\n");
    assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));
    let error = rejected.get("error").and_then(Json::as_str).unwrap();
    assert!(error.starts_with("invalid JSON"), "unexpected error: {error}");
    let stats = reply(b"{\"cmd\":\"stats\"}\n");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(stats.get("errors").and_then(Json::as_usize), Some(1));

    let registry = daemon.registry();
    assert_eq!(
        registry.counter_with("daemon_error_kind_total", &[("kind", "invalid_json")]).get(),
        1
    );
    assert_eq!(daemon.stats().dropped_connections, 0);
    ServiceClient::connect(daemon.addr()).unwrap().shutdown().unwrap();
    daemon.join();
}

#[test]
fn truncated_frame_header_stall_hits_the_read_deadline() {
    // The bytes that once opened a binary frame header are now the start
    // of a line like any other: a client that sends them and stalls is
    // half-open, and the read deadline kills it with the typed error.
    use std::io::{BufRead, BufReader, Write};
    let limits =
        DaemonLimits { read_deadline: Duration::from_millis(150), ..DaemonLimits::default() };
    let daemon = Daemon::bind_with("127.0.0.1:0", default_config(), None, limits).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(&[0xDE, 0x48, 1]).unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert!(response.get("error").and_then(Json::as_str).unwrap().contains("read deadline"));
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection must be closed");
    assert_eq!(daemon.stats().dropped_connections, 1);
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    client.shutdown().unwrap();
    daemon.join();
}
