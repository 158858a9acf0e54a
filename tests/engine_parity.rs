//! Parity of the parallel sharded engine with the serial attack.
//!
//! `dehealth-engine` must produce **bit-identical** candidate sets and
//! final mappings to `DeHealth::run` (direct selection) at any worker
//! count — the sharding, bounded Top-K heaps, and refined-DA fan-out are
//! pure execution-strategy changes, not semantic ones. This suite pins
//! that contract at 1, 2 and 8 worker threads on a seeded tiny forum, in
//! closed and open world, across verification schemes, and under
//! Algorithm-2 filtering, and for small batches (1 to 63 users) attacked
//! against one prepared corpus.

use de_health::core::{AttackConfig, ClassifierKind, DeHealth, FilterConfig, Verification};
use de_health::corpus::split::{closed_world_split, open_world_split, SplitConfig};
use de_health::corpus::{Forum, ForumConfig, Post, Split};
use de_health::engine::{Engine, EngineConfig};
use de_health::service::PreparedCorpus;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn tiny_closed() -> Split {
    let forum = Forum::generate(&ForumConfig::tiny(), 42);
    closed_world_split(&forum, &SplitConfig::fraction(0.5), 7)
}

fn assert_parity(split: &Split, attack: AttackConfig) {
    let serial = DeHealth::new(attack.clone()).run(&split.auxiliary, &split.anonymized);
    for n_threads in THREAD_COUNTS {
        for block_size in [4, 64] {
            let engine = Engine::new(EngineConfig {
                attack: attack.clone(),
                n_threads,
                block_size,
                ..EngineConfig::default()
            });
            let out = engine.run(&split.auxiliary, &split.anonymized);
            assert_eq!(
                out.candidates, serial.candidates,
                "candidate sets diverge at {n_threads} threads, block size {block_size}"
            );
            assert_eq!(
                out.mapping, serial.mapping,
                "mapping diverges at {n_threads} threads, block size {block_size}"
            );
            // The sparse candidate scores are bitwise equal to the serial
            // attack's dense matrix entries.
            for (u, entries) in out.candidate_scores.iter().enumerate() {
                for &(v, s) in entries {
                    assert_eq!(
                        s.to_bits(),
                        serial.similarity[u][v].to_bits(),
                        "score bits diverge for pair ({u}, {v}) at {n_threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn closed_world_default_classifier() {
    let split = tiny_closed();
    assert_parity(&split, AttackConfig { top_k: 5, n_landmarks: 10, ..AttackConfig::default() });
}

#[test]
fn closed_world_with_filtering() {
    let split = tiny_closed();
    assert_parity(
        &split,
        AttackConfig {
            top_k: 5,
            n_landmarks: 10,
            filtering: Some(FilterConfig::default()),
            ..AttackConfig::default()
        },
    );
}

#[test]
fn closed_world_centroid_classifier() {
    let split = tiny_closed();
    assert_parity(
        &split,
        AttackConfig {
            top_k: 3,
            n_landmarks: 10,
            classifier: ClassifierKind::Centroid,
            ..AttackConfig::default()
        },
    );
}

#[test]
fn open_world_mean_verification() {
    let forum = Forum::generate(&ForumConfig::tiny(), 11);
    let split = open_world_split(&forum, 0.7, 5);
    assert_parity(
        &split,
        AttackConfig {
            top_k: 5,
            n_landmarks: 10,
            verification: Verification::Mean { r: 0.1 },
            ..AttackConfig::default()
        },
    );
}

#[test]
fn open_world_false_addition() {
    let forum = Forum::generate(&ForumConfig::tiny(), 13);
    let split = open_world_split(&forum, 0.5, 2);
    assert_parity(
        &split,
        AttackConfig {
            top_k: 4,
            n_landmarks: 10,
            verification: Verification::FalseAddition { n_false: 3 },
            ..AttackConfig::default()
        },
    );
}

#[test]
fn engine_evaluation_matches_serial_quality() {
    // Identical mappings must give identical headline metrics too (the
    // engine outcome plugged into the same oracle scoring).
    let split = tiny_closed();
    let attack = AttackConfig { top_k: 5, n_landmarks: 10, ..AttackConfig::default() };
    let serial = DeHealth::new(attack.clone()).run(&split.auxiliary, &split.anonymized);
    let eval = serial.evaluate(&split.oracle);
    let engine =
        Engine::new(EngineConfig { attack, n_threads: 8, block_size: 16, ..Default::default() });
    let out = engine.run(&split.auxiliary, &split.anonymized);
    let correct = (0..split.anonymized.n_users)
        .filter(|&u| out.mapping[u].is_some() && out.mapping[u] == split.oracle.true_mapping(u))
        .count();
    assert_eq!(correct, eval.correct);
    assert!(eval.accuracy() > 0.2, "attack should beat chance: {}", eval.accuracy());
}

/// Users `lo..lo + n` of `forum` as a batch of their own, renumbered from 0.
fn batch(forum: &Forum, lo: usize, n: usize) -> Forum {
    let posts = forum
        .posts
        .iter()
        .filter(|p| (lo..lo + n).contains(&p.author))
        .map(|p| Post { author: p.author - lo, ..p.clone() })
        .collect();
    Forum::from_posts(n, forum.n_threads, posts)
}

#[test]
fn small_batch_parity_on_a_prepared_corpus() {
    // Small batches are cut into blocks of a few users so that every
    // thread works; each user's heap and refined decision must not see
    // the cut. One prepared corpus (index, refined context, auxiliary
    // cache) serves every batch, as it does behind the daemon.
    let forum = Forum::generate(&ForumConfig::webmd_like(200), 42);
    let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 7);
    let attack = AttackConfig { top_k: 5, n_landmarks: 10, ..AttackConfig::default() };
    let corpus = PreparedCorpus::build(split.auxiliary.clone(), attack.classifier);
    let anon = &split.anonymized;
    assert!(anon.n_users >= 63 + 10, "{} anonymized users", anon.n_users);
    for (lo, n) in [(5, 1), (17, 3), (40, 10), (10, 63)] {
        let batch = batch(anon, lo, n);
        let serial = DeHealth::new(attack.clone()).run(&split.auxiliary, &batch);
        for n_threads in THREAD_COUNTS {
            let engine = Engine::new(EngineConfig {
                attack: attack.clone(),
                n_threads,
                ..EngineConfig::default()
            });
            let out = corpus.attack(&engine, &batch);
            assert_eq!(out.report.n_threads, n_threads.min(n), "{n} users, {n_threads} threads");
            assert_eq!(out.candidates, serial.candidates, "{n} users, {n_threads} threads");
            assert_eq!(out.mapping, serial.mapping, "{n} users, {n_threads} threads");
            for (u, entries) in out.candidate_scores.iter().enumerate() {
                for &(v, s) in entries {
                    assert_eq!(
                        s.to_bits(),
                        serial.similarity[u][v].to_bits(),
                        "pair ({u}, {v}) of {n} users at {n_threads} threads"
                    );
                }
            }
        }
    }
}
