//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--users N] [--seed S]
//!
//! experiments:
//!   fig1     CDF of users vs number of posts
//!   fig2     post length distribution
//!   table1   stylometric feature inventory
//!   fig3     closed-world Top-K DA CDF (aux 50/70/90%)
//!   fig4     closed-world refined DA accuracy (KNN/SMO, K sweep)
//!   fig5     open-world Top-K DA CDF (overlap 50/70/90%)
//!   fig6     open-world refined DA accuracy + FP rate
//!   fig7     correlation-graph degree CDF
//!   fig8     community structure under degree thresholds
//!   linkage  Section VI linkage attack
//!   theory   Section IV bounds vs Monte-Carlo
//!   scale    order-of-magnitude corpus sweep w/ sampled oracle (BENCH_scale.json;
//!            defaults to 100k users — not part of `all`)
//!            [--tiers 1k,10k] sweeps an explicit tier list instead of the
//!            default /100, /10, ×1 pyramid; [--max-users N] sets the
//!            pyramid's top tier (synonym of --users for this experiment)
//!   service  snapshot persistence + daemon wire throughput (BENCH_service.json)
//!   snapshot-load  owned vs mmap reload latency sweep (BENCH_snapshot.json)
//!   all      everything above
//!
//! serving commands (not part of `all`):
//!   snapshot write a prepared-corpus snapshot     [--users N] [--seed S] [--path corpus.snap]
//!   serve    run the attack daemon                [--path corpus.snap] [--addr 127.0.0.1:7699]
//!                                                 [--mmap | --owned]
//!                                                 [--metrics-addr HOST:PORT]
//! ```
//!
//! `repro snapshot` generates the synthetic forum, takes the closed-world
//! split, prepares the auxiliary side (feature extraction + derived
//! structures) and persists it. `repro serve` loads that snapshot (or
//! prepares a corpus in-process when the file is absent) and serves the
//! newline-delimited-JSON protocol until a client sends `shutdown`; the
//! anonymized half of the same `--users/--seed` split is what
//! `examples/attack_service.rs` replays against it. `--mmap` (the
//! default) loads the snapshot zero-copy — the big arenas stay in the
//! file mapping — and prints load time plus resident-vs-borrowed section
//! bytes; `--owned` forces the eager copying load for comparison.
//! `--metrics-addr HOST:PORT` additionally serves the daemon's metric
//! registry in the Prometheus text format over a read-only HTTP
//! responder, and on graceful shutdown the daemon's final counters plus
//! a top-line attack-latency summary are printed either way.

use std::path::Path;

use dehealth_bench::experiments::{
    ablation, datasets, defense, fig3_fig5_topk, fig4_fig6_refined, fig7_fig8_graph,
    linkage_attack, scale, service, snapshot_load, table1, theory_bounds,
};
use dehealth_service::LoadMode;

struct Args {
    experiment: String,
    users: Option<usize>,
    seed: u64,
    path: Option<String>,
    addr: String,
    metrics_addr: Option<String>,
    load_mode: LoadMode,
    /// Explicit `scale` tier list (`--tiers 1k,10k`).
    tiers: Option<Vec<usize>>,
    /// Top tier of the default `scale` pyramid (`--max-users 50000`).
    max_users: Option<usize>,
}

/// Parse a user-count token with an optional `k`/`m` decimal suffix
/// (`"1k"` → 1000, `"10k"` → 10000, `"2m"` → 2000000, `"800"` → 800).
fn parse_users_token(token: &str) -> Option<usize> {
    let token = token.trim();
    let (digits, scale) = match token.as_bytes().last()? {
        b'k' | b'K' => (&token[..token.len() - 1], 1_000),
        b'm' | b'M' => (&token[..token.len() - 1], 1_000_000),
        _ => (token, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * scale)
}

fn parse_args() -> Args {
    let mut experiment = String::from("all");
    let mut users = None;
    let mut seed = 42u64;
    let mut path = None;
    let mut addr = String::from("127.0.0.1:7699");
    let mut metrics_addr = None;
    let mut load_mode = LoadMode::Mapped;
    let mut tiers = None;
    let mut max_users = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--users" => {
                users = argv.next().and_then(|v| v.parse().ok());
            }
            "--tiers" => {
                tiers = argv.next().map(|v| {
                    v.split(',')
                        .map(|t| {
                            parse_users_token(t).unwrap_or_else(|| {
                                eprintln!("invalid tier {t:?} (expected e.g. 1k, 10k, 50000)");
                                std::process::exit(2);
                            })
                        })
                        .collect()
                });
            }
            "--max-users" => {
                max_users = argv.next().and_then(|v| parse_users_token(&v));
            }
            "--seed" => {
                if let Some(v) = argv.next().and_then(|v| v.parse().ok()) {
                    seed = v;
                }
            }
            "--path" => {
                path = argv.next();
            }
            "--addr" => {
                if let Some(v) = argv.next() {
                    addr = v;
                }
            }
            "--metrics-addr" => {
                metrics_addr = argv.next();
            }
            "--mmap" => load_mode = LoadMode::Mapped,
            "--owned" => load_mode = LoadMode::Owned,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other if !other.starts_with('-') => experiment = other.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    Args { experiment, users, seed, path, addr, metrics_addr, load_mode, tiers, max_users }
}

fn print_help() {
    println!(
        "repro <fig1|fig2|table1|fig3|fig4|fig5|fig6|fig7|fig8|linkage|theory|ablation|defense|service|snapshot-load|all> \
         [--users N] [--seed S]\n\
         repro scale [--users N | --max-users N] [--tiers 1k,10k] [--seed S]   \
         # 1k/10k/100k sweep by default; not in `all`\n\
         repro snapshot [--users N] [--seed S] [--path corpus.snap]\n\
         repro serve [--path corpus.snap] [--addr 127.0.0.1:7699] [--users N] [--seed S] \
         [--mmap | --owned] [--metrics-addr HOST:PORT]"
    );
}

/// The auxiliary/anonymized split `snapshot`, `serve` and the example
/// client all regenerate deterministically from `--users`/`--seed`.
fn serving_split(users: usize, seed: u64) -> dehealth_corpus::Split {
    let forum =
        dehealth_corpus::Forum::generate(&dehealth_corpus::ForumConfig::webmd_like(users), seed);
    dehealth_corpus::closed_world_split(
        &forum,
        &dehealth_corpus::SplitConfig::fraction(0.7),
        seed.wrapping_add(1),
    )
}

fn run_snapshot_command(users: usize, seed: u64, path: &str) {
    use std::time::Instant;
    let split = serving_split(users, seed);
    println!(
        "preparing auxiliary corpus: {} users, {} posts…",
        split.auxiliary.n_users,
        split.auxiliary.posts.len()
    );
    let t0 = Instant::now();
    let corpus = dehealth_service::PreparedCorpus::build(
        split.auxiliary,
        dehealth_core::refined::ClassifierKind::default(),
    );
    let build_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    if let Err(e) = corpus.save(Path::new(path)) {
        eprintln!("snapshot: failed to write {path}: {e}");
        std::process::exit(1);
    }
    let save_secs = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {path}: {bytes} bytes (format v2, 8-byte-aligned sections; build \
         {build_secs:.3}s, save {save_secs:.3}s); serve it with `repro serve --path {path}` \
         (add --owned to skip the zero-copy mmap load)"
    );
}

fn run_serve_command(
    users: usize,
    seed: u64,
    path: Option<&str>,
    addr: &str,
    metrics_addr: Option<&str>,
    mode: LoadMode,
) {
    let corpus = match path {
        Some(path) if Path::new(path).exists() => {
            match dehealth_service::PreparedCorpus::load_timed_with(Path::new(path), mode) {
                Ok((corpus, secs)) => {
                    let memory = corpus.memory_stats();
                    println!(
                        "loaded snapshot {path} ({}): {} users, {} posts in {secs:.3}s \
                         (feature extraction skipped)",
                        if corpus.is_mapped() { "mmap, zero-copy" } else { "owned" },
                        corpus.n_users(),
                        corpus.n_posts()
                    );
                    println!(
                        "  arena bytes: {} resident on heap, {} borrowed from the mapping",
                        memory.resident_arena_bytes, memory.borrowed_arena_bytes
                    );
                    corpus
                }
                Err(e) => {
                    eprintln!("serve: failed to load {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => {
            println!("no snapshot given/found; preparing a corpus in-process…");
            let split = serving_split(users, seed);
            dehealth_service::PreparedCorpus::build(
                split.auxiliary,
                dehealth_core::refined::ClassifierKind::default(),
            )
        }
    };
    let daemon = match dehealth_service::Daemon::bind_with_corpus(
        addr,
        dehealth_service::daemon::default_config(),
        Some(corpus),
    ) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve: failed to bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("serving on {} (send {{\"cmd\":\"shutdown\"}} to stop)", daemon.addr());
    // Grab the registry before `join` consumes the daemon: the shutdown
    // summary reads it afterwards, and the scrape endpoint shares it.
    let registry = daemon.registry();
    let metrics_server =
        metrics_addr.map(|metrics_addr| {
            match dehealth_service::MetricsServer::bind(metrics_addr, registry.clone()) {
                Ok(server) => {
                    println!("metrics (Prometheus text) on http://{}/metrics", server.addr());
                    server
                }
                Err(e) => {
                    eprintln!("serve: failed to bind metrics endpoint {metrics_addr}: {e}");
                    std::process::exit(1);
                }
            }
        });
    daemon.join();
    drop(metrics_server);
    println!("daemon shut down");
    print_shutdown_summary(&registry);
}

/// Final stats + top-line latency summary, read back from the daemon's
/// registry after it has shut down.
fn print_shutdown_summary(registry: &dehealth_telemetry::Registry) {
    let count = |name: &str| registry.counter(name).get();
    println!(
        "  served {} requests ({} errors), {} attacks ({} users attacked, {} mapped)",
        count("daemon_requests_total"),
        count("daemon_errors_total"),
        count("daemon_attacks_total"),
        count("daemon_attacked_users_total"),
        count("daemon_mapped_users_total"),
    );
    println!(
        "  corpus updates: {}; connections rejected: {}, dropped: {}",
        count("daemon_corpus_updates_total"),
        count("daemon_rejected_connections_total"),
        count("daemon_dropped_connections_total"),
    );
    let attacks = registry.histogram_with("daemon_command_seconds", &[("cmd", "attack")]);
    let snapshot = attacks.snapshot();
    if snapshot.count() > 0 {
        // An overflow-resident quantile is a floor, not an estimate —
        // render it as `>ceiling` so the summary never fabricates.
        let fmt = |q: dehealth_telemetry::Quantile| {
            if q.overflow {
                format!(">{:.3}s", q.seconds)
            } else {
                format!("{:.3}s", q.seconds)
            }
        };
        println!(
            "  attack latency: mean {:.3}s, p50 {}, p90 {}, p99 {} over {} requests",
            snapshot.mean_seconds(),
            fmt(snapshot.quantile(0.5)),
            fmt(snapshot.quantile(0.9)),
            fmt(snapshot.quantile(0.99)),
            snapshot.count(),
        );
    }
}

fn main() {
    let args = parse_args();
    let seed = args.seed;
    // Default scales chosen so `repro all` finishes in minutes on a laptop.
    let marginal_users = args.users.unwrap_or(4000);
    let topk_users = args.users.unwrap_or(800);
    let graph_users = args.users.unwrap_or(2000);
    let linkage_people = args.users.unwrap_or(2805);

    let run = |name: &str| args.experiment == name || args.experiment == "all";

    if run("fig1") {
        datasets::run_fig1(marginal_users, seed);
    }
    if run("fig2") {
        datasets::run_fig2(marginal_users, seed);
    }
    if run("table1") {
        table1::run(topk_users.min(1000), seed);
    }
    if run("fig3") {
        fig3_fig5_topk::run_fig3(topk_users, seed);
    }
    if run("fig4") {
        fig4_fig6_refined::run_fig4(seed);
    }
    if run("fig5") {
        fig3_fig5_topk::run_fig5(topk_users, seed);
    }
    if run("fig6") {
        fig4_fig6_refined::run_fig6(seed);
    }
    if run("fig7") {
        fig7_fig8_graph::run_fig7(graph_users, seed);
    }
    if run("fig8") {
        fig7_fig8_graph::run_fig8(graph_users, seed);
    }
    if run("linkage") {
        let _ = linkage_attack::run(linkage_people, seed);
    }
    if run("theory") {
        theory_bounds::run(seed);
    }
    if run("ablation") {
        ablation::run(topk_users.min(400), seed);
    }
    if run("defense") {
        let _ = defense::run(topk_users.min(150), seed);
    }
    if run("service") {
        if let Err(e) = service::run(args.users.unwrap_or(600), seed) {
            eprintln!("service: failed to run the service benchmark: {e}");
            std::process::exit(1);
        }
    }
    if run("snapshot-load") {
        // `--users` is the *smallest* sweep point; the sweep tops out 4×
        // higher.
        if let Err(e) = snapshot_load::run(args.users.unwrap_or(150), seed) {
            eprintln!("snapshot-load: failed to run the snapshot-load benchmark: {e}");
            std::process::exit(1);
        }
    }
    // `scale` is deliberately not part of `all`: its default corpus is
    // 100k users and the sweep takes tens of minutes.
    if args.experiment == "scale" {
        let result = match &args.tiers {
            Some(tiers) => scale::run_tiers(tiers, seed),
            None => scale::run(args.max_users.or(args.users).unwrap_or(100_000), seed),
        };
        match result {
            Ok(path) => println!("scale: report at {}", path.display()),
            Err(e) => {
                eprintln!("scale: failed to write BENCH_scale.json: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.experiment == "snapshot" {
        let path = args.path.clone().unwrap_or_else(|| "corpus.snap".to_string());
        run_snapshot_command(args.users.unwrap_or(600), seed, &path);
        return;
    }
    if args.experiment == "serve" {
        run_serve_command(
            args.users.unwrap_or(600),
            seed,
            args.path.as_deref(),
            &args.addr,
            args.metrics_addr.as_deref(),
            args.load_mode,
        );
        return;
    }
    if ![
        "fig1",
        "fig2",
        "table1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "linkage",
        "theory",
        "ablation",
        "defense",
        "service",
        "snapshot-load",
        "all",
    ]
    .contains(&args.experiment.as_str())
    {
        eprintln!("unknown experiment {}", args.experiment);
        print_help();
        std::process::exit(2);
    }
}
