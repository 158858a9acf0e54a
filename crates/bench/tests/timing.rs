//! The bench experiments whose asserts compare wall-clock times: the
//! service bench's load-vs-build budget and the snapshot-load bench's
//! mapped-vs-owned growth. They live in a test binary of their own, and
//! run one at a time on [`SERIAL`], so neither shares the machine with
//! the experiment tests of the `dehealth-bench` library, nor with the
//! other timing test.

use std::sync::{Mutex, MutexGuard, PoisonError};

use dehealth_bench::experiments::{service, snapshot_load};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed timing test must not poison the other one.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn bench_runs_asserts_parity_and_writes_json() {
    let _serial = serial();
    let dir = std::env::temp_dir().join("dehealth-service-bench-test");
    let path = dir.join("BENCH_service.json");
    // Parity with the serial reference and the round-trip bit-parity
    // are asserted inside `run_to` itself; the load-vs-build budget
    // must hold even at this small scale.
    let bench = service::run_to(&path, 80, 9).unwrap();
    assert!(bench.load_vs_build_ratio < 0.25);
    assert!(!bench.wire.is_empty());
    assert!(bench.wire.iter().all(|r| r.attacks_per_sec > 0.0));
    // The worker-side stage timers must have recorded real work for
    // every run.
    for r in &bench.wire {
        let threads = r.threads;
        assert!(r.request_bytes > 0, "{threads} threads: empty request?");
        assert!(r.parse_seconds > 0.0, "{threads} threads: parse not billed to workers");
        assert!(r.engine_seconds > 0.0, "{threads} threads: engine stage missing");
        assert!(r.emit_seconds > 0.0, "{threads} threads: emit not billed to workers");
        assert!(r.queue_seconds >= 0.0);
    }
    // The concurrent phase's histogram-count assertion ran inside
    // `run_to`; the derived quantiles must be coherent, and at this
    // scale (sub-second attacks, 1000s ceiling) none may resolve to
    // the overflow bucket.
    assert!(bench.concurrent.clients > 1);
    assert!(bench.concurrent.p50.seconds > 0.0);
    assert!(bench.concurrent.p50.seconds <= bench.concurrent.p90.seconds);
    assert!(bench.concurrent.p90.seconds <= bench.concurrent.p99.seconds);
    assert!(!bench.concurrent.p99.overflow, "sub-second attacks cannot overflow the ladder");
    // Per-client latencies and their spread: every client is
    // accounted for, and sorted order holds.
    assert_eq!(bench.concurrent.client_seconds.len(), bench.concurrent.clients);
    assert!(bench.concurrent.client_seconds.windows(2).all(|w| w[0] <= w[1]));
    assert!(bench.concurrent.spread_seconds >= 0.0);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"experiment\": \"service\""));
    assert!(text.contains("\"load_vs_build_ratio\""));
    assert!(text.contains("\"attacks_per_sec\""));
    assert!(text.contains("\"request_bytes\""));
    assert!(text.contains("\"parse_seconds\""));
    assert!(text.contains("\"emit_seconds\""));
    assert!(text.contains("\"latency_p99_seconds\""));
    assert!(text.contains("\"latency_p99_overflow\": false"));
    assert!(text.contains("\"client_seconds\""));
    assert!(text.contains("\"spread_seconds\""));
    assert!(text.contains("\"slowest_round_trip_seconds\""));
    // Quantiles are clamped to what the daemon recorded, and each
    // daemon sample lies inside its client's round trip.
    for q in [bench.concurrent.p50, bench.concurrent.p90, bench.concurrent.p99] {
        assert!(q.seconds <= bench.slowest_round_trip_seconds);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bench_asserts_parity_residency_and_growth_and_writes_json() {
    let _serial = serial();
    let dir = std::env::temp_dir().join("dehealth-snapload-bench-test");
    let path = dir.join("BENCH_snapshot.json");
    let cells = snapshot_load::run_to(&path, 60, 13).unwrap();
    assert_eq!(cells.len(), 3);
    assert!(cells.windows(2).all(|w| w[0].snapshot_bytes < w[1].snapshot_bytes));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"experiment\": \"snapshot-load\""));
    assert!(text.contains("\"machine_parallelism\""));
    assert!(text.contains("\"mapped_seconds\""));
    assert!(text.contains("\"mapped_borrowed_bytes\""));
    let _ = std::fs::remove_dir_all(dir);
}
