//! Run the De-Health attack through the parallel sharded execution
//! engine, then grow a prepared auxiliary corpus by a second user cohort
//! and check that attacking it equals the one-shot engine run on the
//! union of the cohorts; print the per-stage throughput reports.
//!
//! ```text
//! cargo run --release --example parallel_attack [n_users] [n_threads]
//! ```

use de_health::core::AttackConfig;
use de_health::corpus::split::{closed_world_split, SplitConfig};
use de_health::corpus::{Forum, ForumConfig, Post};
use de_health::engine::{Engine, EngineConfig};
use de_health::service::PreparedCorpus;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_users: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(300);
    let n_threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);

    println!("generating a synthetic forum with {n_users} users…");
    let forum = Forum::generate(&ForumConfig::webmd_like(n_users), 42);
    let split = closed_world_split(&forum, &SplitConfig::fraction(0.7), 7);
    println!(
        "  auxiliary: {} posts, anonymized: {} users / {} posts",
        split.auxiliary.posts.len(),
        split.anonymized.n_users,
        split.anonymized.posts.len()
    );

    let attack = AttackConfig { top_k: 10, n_landmarks: 30, ..AttackConfig::default() };
    let classifier = attack.classifier;
    let engine =
        Engine::new(EngineConfig { attack, n_threads, block_size: 32, ..EngineConfig::default() });

    // One-shot parallel attack.
    let outcome = engine.run(&split.auxiliary, &split.anonymized);
    let correct = (0..split.anonymized.n_users)
        .filter(|&u| {
            outcome.mapping[u].is_some() && outcome.mapping[u] == split.oracle.true_mapping(u)
        })
        .count();
    println!(
        "\nrefined DA: {correct}/{} correct ({:.1}%)",
        split.anonymized.n_users,
        100.0 * correct as f64 / split.anonymized.n_users.max(1) as f64
    );
    println!("\n{}", outcome.report);

    // Streaming scenario: the auxiliary data arrives as two user cohorts,
    // each numbered from 0 over its own copy of the thread space.
    let cut = split.auxiliary.n_users / 2;
    let cohort = |lo: usize, hi: usize| {
        let posts: Vec<Post> = split
            .auxiliary
            .posts
            .iter()
            .filter(|p| (lo..hi).contains(&p.author))
            .map(|p| Post { author: p.author - lo, thread: p.thread, text: p.text.clone() })
            .collect();
        Forum::from_posts(hi - lo, split.auxiliary.n_threads, posts)
    };
    let (first, second) = (cohort(0, cut), cohort(cut, split.auxiliary.n_users));
    let mut corpus = PreparedCorpus::build(first.clone(), classifier);
    corpus.append_users(&second);
    println!(
        "\nprepared corpus after the second cohort: {} auxiliary users, {} posts",
        corpus.n_users(),
        corpus.n_posts()
    );
    let incremental = corpus.attack(&engine, &split.anonymized);

    // An ingest offsets the second cohort's users and threads by the
    // first cohort's totals; the one-shot run on that union is the
    // reference the grown corpus must reproduce exactly.
    let offset = second.posts.iter().map(|p| Post {
        author: p.author + first.n_users,
        thread: p.thread + first.n_threads,
        text: p.text.clone(),
    });
    let union = Forum::from_posts(
        first.n_users + second.n_users,
        first.n_threads + second.n_threads,
        first.posts.iter().cloned().chain(offset).collect(),
    );
    let batch = engine.run(&union, &split.anonymized);
    assert_eq!(incremental.candidates, batch.candidates, "incremental candidates diverge");
    assert_eq!(incremental.mapping, batch.mapping, "incremental mapping diverges");
    println!(
        "incremental ingest: {} users mapped, candidates and mapping identical to the \
         one-shot run on the union",
        incremental.mapping.iter().filter(|m| m.is_some()).count()
    );
    println!("\n{}", incremental.report);
}
