//! Differential harness: the engine's inverted-index sparse scoring vs
//! the serial attack's dense all-pairs similarity matrix.
//!
//! The engine's `IndexedScorer` path must be a pure execution-strategy
//! change: candidate sets, candidate score *bits*, and final Refined-DA
//! mappings identical to the serial `DeHealth::run`, whose Top-K phase
//! scores every pair through `SimilarityEngine::scores_for` — across
//! seeded random forums of varying vocabulary density (dense vocabularies
//! make every pair share attributes; sparse ones exercise the
//! zero-intersection path), users with 0/1/many posts (0-post users are
//! *absent* and must never surface as candidates), at 1/2/8 worker
//! threads, with Algorithm-2 filtering, on skewed corpora, and under
//! structure-heavy weights, where pruning rests on each pair's own
//! structural ceiling.

use de_health::core::{AttackConfig, DeHealth, FilterConfig, SimilarityWeights};
use de_health::corpus::{Forum, Post};
use de_health::engine::{Engine, EngineConfig, StageStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Vocabulary banks of decreasing density: the small bank makes every
/// user share most attributes; the synthetic bank spreads users over
/// many rare letter patterns.
fn word_bank(density: usize) -> Vec<String> {
    match density {
        0 => ["the", "pain", "doctor", "rest", "i", "have", "a", "bad"]
            .iter()
            .map(ToString::to_string)
            .collect(),
        1 => (0..60).map(|i| format!("word{i}")).collect(),
        _ => (0..400).map(|i| format!("w{}x{}q{}", i, i * 7 % 13, i % 5)).collect(),
    }
}

/// A seeded random forum: `n_users` users whose post counts cycle through
/// 0 (absent), 1 and many, with density-controlled vocabulary, sprinkled
/// punctuation/digits/misspellings, and one empty post (a present user
/// with zero attributes).
fn random_forum(seed: u64, n_users: usize, n_threads: usize, density: usize) -> Forum {
    let mut rng = StdRng::seed_from_u64(seed);
    let bank = word_bank(density);
    let misspellings = ["realy", "migrane", "definately", "recieve"];
    let post_counts = [0usize, 1, 3, 2, 0, 7, 1, 4];
    let mut posts = Vec::new();
    for u in 0..n_users {
        let n_posts = post_counts[u % post_counts.len()];
        for k in 0..n_posts {
            if u == 2 && k == 0 {
                // A present user whose first post has no extractable
                // features at all.
                posts.push(Post { author: u, thread: 0, text: String::new() });
                continue;
            }
            let len = 1 + rng.gen_range(0..12);
            let mut words: Vec<String> =
                (0..len).map(|_| bank[rng.gen_range(0..bank.len())].clone()).collect();
            if rng.gen::<f64>() < 0.3 {
                words.push(rng.gen_range(1..500u32).to_string());
            }
            if rng.gen::<f64>() < 0.3 {
                words.push(misspellings[rng.gen_range(0..misspellings.len())].to_string());
            }
            let punct = ['.', '!', '?'][rng.gen_range(0..3usize)];
            posts.push(Post {
                author: u,
                thread: rng.gen_range(0..n_threads),
                text: format!("{}{}", words.join(" "), punct),
            });
        }
    }
    Forum::from_posts(n_users, n_threads, posts)
}

fn attack_cfg() -> AttackConfig {
    AttackConfig { top_k: 4, n_landmarks: 6, ..AttackConfig::default() }
}

fn engine(attack: AttackConfig, n_threads: usize) -> Engine {
    Engine::new(EngineConfig { attack, n_threads, block_size: 4, ..EngineConfig::default() })
}

fn absent_users(forum: &Forum) -> Vec<usize> {
    (0..forum.n_users).filter(|&u| forum.user_posts(u).is_empty()).collect()
}

/// Run `attack` through the engine at every thread count and assert it
/// matches the serial `DeHealth::run`, down to score bits against the
/// serial similarity matrix. Returns the engine runs' `topk` reports.
fn assert_parity_with_serial(
    attack: &AttackConfig,
    aux: &Forum,
    anon: &Forum,
    what: &str,
) -> Vec<StageStats> {
    let serial = DeHealth::new(attack.clone()).run(aux, anon);
    let mut topk = Vec::new();
    for &n_threads in &THREAD_COUNTS {
        let indexed = engine(attack.clone(), n_threads).run(aux, anon);
        let what = format!("{what}, {n_threads} threads");
        assert_eq!(indexed.candidates, serial.candidates, "serial diverges: {what}");
        assert_eq!(indexed.mapping, serial.mapping, "serial diverges: {what}");
        for (u, entries) in indexed.candidate_scores.iter().enumerate() {
            for &(v, s) in entries {
                assert_eq!(
                    s.to_bits(),
                    serial.similarity[u][v].to_bits(),
                    "score bits diverge from serial matrix for ({u}, {v}): {what}"
                );
            }
        }
        topk.push(indexed.report.stage("topk").unwrap().clone());
    }
    topk
}

#[test]
fn indexed_matches_dense_and_serial_across_densities_and_threads() {
    // The dense reference is the serial attack's all-pairs similarity matrix.
    for density in 0..3 {
        let aux = random_forum(100 + density as u64, 14, 3, density);
        let anon = random_forum(200 + density as u64, 10, 3, density);
        assert_parity_with_serial(&attack_cfg(), &aux, &anon, &format!("density {density}"));
    }
}

#[test]
fn structure_heavy_weights_prune_on_the_per_pair_ceiling() {
    // With c1 = c2 = 0.4 the constant structural bound (0.4·3 + 0.4·2 =
    // 2.0) sits above every score these forums produce, so each pruned
    // pair here was pruned by its own structural ceiling. Spreading posts
    // over many threads leaves sparse graphs with isolated users.
    let attack =
        AttackConfig { weights: SimilarityWeights { c1: 0.4, c2: 0.4, c3: 0.2 }, ..attack_cfg() };
    let mut pruned = 0;
    for density in 0..3 {
        let aux = random_forum(1100 + density as u64, 24, 12, density);
        let anon = random_forum(1200 + density as u64, 12, 12, density);
        let topk = assert_parity_with_serial(&attack, &aux, &anon, &format!("density {density}"));
        pruned += topk.iter().map(|s| s.skipped).sum::<u64>();
    }
    assert!(pruned > 0, "the per-pair ceiling never pruned under structure-heavy weights");
}

#[test]
fn absent_auxiliary_users_never_appear_as_candidates() {
    for density in 0..3 {
        let aux = random_forum(300 + density as u64, 16, 3, density);
        let anon = random_forum(400 + density as u64, 8, 3, density);
        let absent = absent_users(&aux);
        assert!(!absent.is_empty(), "harness must generate absent users");
        let serial = DeHealth::new(attack_cfg()).run(&aux, &anon);
        let indexed = engine(attack_cfg(), 2).run(&aux, &anon);
        for (name, candidates, mapping) in [
            ("serial", &serial.candidates, &serial.mapping),
            ("indexed", &indexed.candidates, &indexed.mapping),
        ] {
            for &a in &absent {
                assert!(
                    candidates.iter().all(|c| !c.contains(&a)),
                    "absent aux user {a} appears in {name} candidates"
                );
                assert!(
                    mapping.iter().all(|&m| m != Some(a)),
                    "absent aux user {a} appears in {name} mapping"
                );
            }
        }
    }
}

#[test]
fn filtering_disables_pruning_but_keeps_parity() {
    let attack = AttackConfig { filtering: Some(FilterConfig::default()), ..attack_cfg() };
    let aux = random_forum(900, 14, 3, 1);
    let anon = random_forum(901, 9, 3, 1);
    let serial = DeHealth::new(attack.clone()).run(&aux, &anon);
    for &n_threads in &THREAD_COUNTS {
        let indexed = engine(attack.clone(), n_threads).run(&aux, &anon);
        assert_eq!(indexed.candidates, serial.candidates, "{n_threads} threads");
        assert_eq!(indexed.mapping, serial.mapping, "{n_threads} threads");
        // Exact Algorithm-2 thresholds need the global score minimum, so
        // the indexed path must not have pruned anything.
        assert_eq!(indexed.report.stage("topk").unwrap().skipped, 0);
    }
}

#[test]
fn pruning_counters_account_for_every_pair() {
    let aux = random_forum(1000, 16, 3, 0);
    let anon = random_forum(1001, 10, 3, 0);
    let n_present_aux = aux.n_users - absent_users(&aux).len();
    for &n_threads in &THREAD_COUNTS {
        let indexed = engine(attack_cfg(), n_threads).run(&aux, &anon);
        let topk = indexed.report.stage("topk").unwrap();
        assert_eq!(
            topk.items + topk.skipped,
            (anon.n_users * n_present_aux) as u64,
            "scored + pruned must cover the pair workload at {n_threads} threads"
        );
        let pairs = indexed.report.topk_pairs;
        assert_eq!(pairs.scored, topk.items, "{n_threads} threads");
        assert_eq!(
            pairs.pruned_before_merge + pairs.pruned_after_merge + pairs.scored,
            topk.items + topk.skipped,
            "pair outcomes must cover scored + pruned at {n_threads} threads"
        );
    }
}

/// Adversarial posting-list skew: every user shares one ultra-common
/// sentence (so several attributes' posting lists touch the whole
/// population), while each user also emits a unique singleton token.
fn skewed_forum(n_users: usize, n_threads: usize, salt: u64) -> Forum {
    let mut posts = Vec::new();
    for u in 0..n_users {
        let n_posts = 1 + (u + salt as usize) % 3;
        for k in 0..n_posts {
            // The shared sentence puts a hot attribute (each of its words,
            // letters and punctuation) in every user; the zq-token is this
            // user's singleton.
            let text = format!("the pain doctor said rest helps zq{u}x{salt}q. round {k}!");
            posts.push(Post { author: u, thread: (u + k) % n_threads, text });
        }
    }
    Forum::from_posts(n_users, n_threads, posts)
}

#[test]
fn skewed_corpora_stay_bit_identical_and_prune_hot_pairs() {
    // Enough present users that the hot threshold (max(16, present/8))
    // engages: every shared-sentence attribute has a posting list of
    // length ~n_users and moves to the bitmask path.
    let aux = skewed_forum(220, 5, 1);
    let anon = skewed_forum(40, 5, 2);
    let pairs = (anon.n_users * aux.n_users) as u64;
    for topk in assert_parity_with_serial(&attack_cfg(), &aux, &anon, "skewed corpus") {
        // The skew fix must actually avoid fully scoring most pairs: with
        // pruning on (no filtering configured), the pre-merge upper bound
        // rejects the bulk of the workload.
        assert_eq!(topk.items + topk.skipped, pairs, "accounting");
        assert!(
            topk.skipped > pairs / 2,
            "expected most pairs pruned, got {} of {pairs}",
            topk.skipped
        );
    }
}

#[test]
fn skewed_corpus_activates_the_hot_path() {
    use de_health::core::{IndexedScorer, SimilarityEngine, SimilarityWeights, UdaGraph};
    let aux = skewed_forum(200, 4, 3);
    let anon = skewed_forum(12, 4, 4);
    let aux_uda = UdaGraph::build(&aux);
    let anon_uda = UdaGraph::build(&anon);
    let sim = SimilarityEngine::new(&anon_uda, &aux_uda, SimilarityWeights::default(), 6);
    let index = sim.attribute_index();
    let scorer = IndexedScorer::new(&sim, &index, 0, true);
    assert!(
        scorer.n_hot_attrs() > 0,
        "a 200-user corpus sharing a sentence must classify hot attributes"
    );
}
