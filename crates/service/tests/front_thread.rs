//! The daemon's front thread serves every connection on one thread that
//! all clients share, so its costs must follow the work it is given.
//!
//! - **Framing is linear in the bytes received.** A client that
//!   pipelines many requests into one write must not make each request
//!   re-scan or re-copy the bytes buffered behind it. The probe
//!   pipelines N small control lines (`{"cmd":"x<i>"}`, each answered
//!   inline with an `unknown cmd` error naming it) in a single write,
//!   then 4N, and checks that every reply arrives, in request order, and
//!   that 4× the lines cost well under 16× the time.
//! - **Worker replies wake the front thread.** A request answered on a
//!   dispatch worker must reach its client as soon as the worker is
//!   done, not at the front thread's next 25 ms poll tick.
//! - **A lone attack runs as soon as it is parsed.** Between coming off
//!   the wire and starting its engine pass, an attack on an idle daemon
//!   waits only for a free worker, never for other attacks to join it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dehealth_corpus::{closed_world_split, Forum, ForumConfig, SplitConfig};
use dehealth_service::daemon::{default_config, Daemon};
use dehealth_service::{AttackOptions, Json, PreparedCorpus, ServiceClient, ServiceError};
use dehealth_telemetry::bucket_index;

/// Send `n` pipelined lines in one write and read every reply, checking
/// order. Returns the time from the write to the last reply.
fn pipelined_round_trip(addr: SocketAddr, n: usize) -> Duration {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let payload: Vec<u8> =
        (0..n).flat_map(|i| format!("{{\"cmd\":\"x{i}\"}}\n").into_bytes()).collect();
    let start = Instant::now();
    let sending = std::thread::spawn(move || writer.write_all(&payload).unwrap());
    let mut line = String::new();
    for i in 0..n {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "connection closed after {i} replies");
        let reply = Json::parse(line.trim()).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let expected = format!("unknown cmd \"x{i}\"");
        assert_eq!(reply.get("error").and_then(Json::as_str), Some(expected.as_str()), "reply {i}");
    }
    let elapsed = start.elapsed();
    sending.join().unwrap();
    elapsed
}

fn best_of_3(addr: SocketAddr, n: usize) -> Duration {
    (0..3).map(|_| pipelined_round_trip(addr, n)).min().unwrap()
}

#[test]
fn pipelined_lines_cost_linear_time_and_answer_in_order() {
    let daemon = Daemon::bind("127.0.0.1:0", default_config()).unwrap();
    // Large enough for a front thread that re-copies the buffered tail
    // per line to show: one took 12.8× the time for 4× the lines on a
    // 2-vCPU x86-64 box.
    let n = 25_000;
    let small = best_of_3(daemon.addr(), n);
    let large = best_of_3(daemon.addr(), 4 * n);
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    daemon.request_shutdown();
    daemon.join();
    assert!(
        ratio < 8.0,
        "4x the pipelined lines took {ratio:.1}x the time ({small:?} for {n}, {large:?} for {})",
        4 * n
    );
}

#[test]
fn worker_replies_do_not_wait_for_a_poll_tick() {
    let daemon = Daemon::bind("127.0.0.1:0", default_config()).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    // `load_snapshot` always runs on a dispatch worker; a missing file
    // makes it a fast, typed failure.
    let missing = std::env::temp_dir()
        .join(format!("dehealth-front-thread-{}-missing.snap", std::process::id()));
    let request = Json::Obj(vec![
        ("cmd".into(), Json::Str("load_snapshot".into())),
        ("path".into(), Json::Str(missing.to_string_lossy().into_owned())),
    ]);
    let mut round_trips: Vec<Duration> = (0..21)
        .map(|_| {
            let sent = Instant::now();
            let reply = client.request(&request);
            assert!(matches!(reply, Err(ServiceError::Remote(_))), "{reply:?}");
            sent.elapsed()
        })
        .collect();
    daemon.request_shutdown();
    daemon.join();
    round_trips.sort();
    // Back-to-back requests that waited for the tick would each take
    // nearly a whole 25 ms interval.
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(12), "median worker round trip {median:?}");
}

#[test]
fn lone_attacks_do_not_wait_for_a_window() {
    let forum = Forum::generate(&ForumConfig::tiny(), 42);
    let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 7);
    let corpus = PreparedCorpus::build(split.auxiliary, Default::default());
    let daemon = Daemon::bind_with_corpus("127.0.0.1:0", default_config(), Some(corpus)).unwrap();
    let registry = daemon.registry();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    for _ in 0..21 {
        client.attack(&split.anonymized, &AttackOptions::default()).unwrap();
    }
    daemon.request_shutdown();
    daemon.join();
    // `daemon_queue_seconds` times each request from coming off the wire
    // to the start of its execution, minus its parse: the wait for a
    // worker, without parse or engine time. On an idle daemon that wait
    // is microseconds; 5 ms leaves room for a busy host, not for any
    // timer that holds a request back.
    let queued = registry.histogram("daemon_queue_seconds").snapshot();
    assert_eq!(queued.count(), 21);
    let prompt: u64 = queued.counts[..=bucket_index(5_000_000)].iter().sum();
    assert!(
        2 * prompt >= queued.count(),
        "only {prompt} of {} lone attacks started within 5 ms of arriving",
        queued.count()
    );
}
