//! Differential harness for the Refined-DA fast path.
//!
//! Three independent integrations must produce **bit-identical** mappings
//! on seeded forums:
//!
//! 1. a hand-rolled per-user oracle loop calling `refine_user` (the
//!    from-scratch path: fresh dataset, scaler clone, owned classifier per
//!    anonymized user) over the serial attack's candidate sets;
//! 2. the serial `DeHealth::run`, which routes phase 2 through the
//!    materialize-once `RefinedContext` fast path;
//! 3. the parallel engine's shared fast path, swept at 1/2/8 worker
//!    threads.
//!
//! The sweep covers all four `ClassifierKind`s × all five `Verification`
//! schemes, in open world (where verification actually rejects) and
//! closed world, plus an Algorithm-2 filtering combination.

use de_health::core::uda::extract_post_features;
use de_health::core::{
    refine_user, AttackConfig, ClassifierKind, DeHealth, FilterConfig, RefinedConfig, Side,
    UdaGraph, Verification,
};
use de_health::corpus::split::{closed_world_split, open_world_split, SplitConfig};
use de_health::corpus::{Forum, ForumConfig, Split};
use de_health::engine::{Engine, EngineConfig};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

const CLASSIFIERS: [ClassifierKind; 4] = [
    ClassifierKind::Knn { k: 3 },
    ClassifierKind::Smo,
    ClassifierKind::Rlsc { lambda: 1.0 },
    ClassifierKind::Centroid,
];

const VERIFICATIONS: [Verification; 5] = [
    Verification::None,
    Verification::Mean { r: 0.25 },
    Verification::FalseAddition { n_false: 3 },
    Verification::Distractorless { theta: 0.2 },
    Verification::Sigma { factor: 2.0 },
];

/// A forum small enough that the 26-combination sweep stays fast in debug
/// builds, but with enough users that Top-K sets, decoy pools and
/// verification rejections are all non-trivial.
fn small_config() -> ForumConfig {
    let mut c = ForumConfig::webmd_like(36);
    c.mean_post_words = 40.0;
    c
}

fn open_split() -> Split {
    let forum = Forum::generate(&small_config(), 23);
    open_world_split(&forum, 0.7, 3)
}

fn closed_split() -> Split {
    let forum = Forum::generate(&small_config(), 42);
    closed_world_split(&forum, &SplitConfig::fraction(0.5), 7)
}

/// The per-user-from-scratch oracle: `refine_user` over the serial
/// attack's candidate sets and similarity rows, with sides built directly
/// from the corpus primitives (no `DeHealth` plumbing shared with the
/// path under test).
fn per_user_oracle(
    split: &Split,
    attack: &AttackConfig,
    candidates: &[Vec<usize>],
    similarity: &[Vec<f64>],
) -> Vec<Option<usize>> {
    let aux_feats = extract_post_features(&split.auxiliary);
    let anon_feats = extract_post_features(&split.anonymized);
    let aux_uda = UdaGraph::build_with_features(&split.auxiliary, &aux_feats);
    let anon_uda = UdaGraph::build_with_features(&split.anonymized, &anon_feats);
    let aux = Side { forum: &split.auxiliary, uda: &aux_uda, post_features: &aux_feats };
    let anon = Side { forum: &split.anonymized, uda: &anon_uda, post_features: &anon_feats };
    let config = RefinedConfig {
        classifier: attack.classifier,
        verification: attack.verification,
        seed: attack.seed,
    };
    (0..split.anonymized.n_users)
        .map(|u| refine_user(u, &candidates[u], &anon, &aux, &similarity[u], &config))
        .collect()
}

fn assert_refined_parity(split: &Split, attack: AttackConfig) {
    let label = format!("{:?} / {:?}", attack.classifier, attack.verification);
    let serial = DeHealth::new(attack.clone()).run(&split.auxiliary, &split.anonymized);

    // Serial fast path vs the hand-rolled per-user oracle.
    let oracle = per_user_oracle(split, &attack, &serial.candidates, &serial.similarity);
    assert_eq!(serial.mapping, oracle, "serial fast path vs per-user oracle ({label})");

    // Engine fast path across worker counts.
    for n_threads in THREAD_COUNTS {
        let shared = Engine::new(EngineConfig {
            attack: attack.clone(),
            n_threads,
            block_size: 8,
            ..EngineConfig::default()
        })
        .run(&split.auxiliary, &split.anonymized);
        assert_eq!(
            shared.mapping, serial.mapping,
            "engine vs serial at {n_threads} threads ({label})"
        );
        assert_eq!(
            shared.candidates, serial.candidates,
            "candidate sets diverge at {n_threads} threads ({label})"
        );
    }
}

fn attack_with(classifier: ClassifierKind, verification: Verification) -> AttackConfig {
    AttackConfig {
        top_k: 4,
        n_landmarks: 10,
        classifier,
        verification,
        seed: 9,
        ..AttackConfig::default()
    }
}

#[test]
fn open_world_knn_all_verifications() {
    let split = open_split();
    for verification in VERIFICATIONS {
        assert_refined_parity(&split, attack_with(ClassifierKind::Knn { k: 3 }, verification));
    }
}

#[test]
fn open_world_smo_all_verifications() {
    let split = open_split();
    for verification in VERIFICATIONS {
        assert_refined_parity(&split, attack_with(ClassifierKind::Smo, verification));
    }
}

#[test]
fn open_world_rlsc_all_verifications() {
    let split = open_split();
    for verification in VERIFICATIONS {
        assert_refined_parity(
            &split,
            attack_with(ClassifierKind::Rlsc { lambda: 1.0 }, verification),
        );
    }
}

#[test]
fn open_world_centroid_all_verifications() {
    let split = open_split();
    for verification in VERIFICATIONS {
        assert_refined_parity(&split, attack_with(ClassifierKind::Centroid, verification));
    }
}

#[test]
fn closed_world_all_classifiers() {
    let split = closed_split();
    for classifier in CLASSIFIERS {
        assert_refined_parity(&split, attack_with(classifier, Verification::None));
    }
}

#[test]
fn closed_world_with_filtering_and_mean_verification() {
    let split = closed_split();
    assert_refined_parity(
        &split,
        AttackConfig {
            top_k: 5,
            n_landmarks: 10,
            filtering: Some(FilterConfig::default()),
            verification: Verification::Mean { r: 0.1 },
            seed: 4,
            ..AttackConfig::default()
        },
    );
}

#[test]
fn verification_schemes_really_reject_in_open_world() {
    // Guard against the sweep silently degenerating into all-accept: in
    // open world with a strict mean margin, some users must map to ⊥.
    let split = open_split();
    let strict =
        DeHealth::new(attack_with(ClassifierKind::Knn { k: 3 }, Verification::Mean { r: 1.5 }))
            .run(&split.auxiliary, &split.anonymized);
    let rejected = strict.mapping.iter().filter(|m| m.is_none()).count();
    assert!(rejected > 0, "strict mean-verification rejected nobody");
    let lax = DeHealth::new(attack_with(ClassifierKind::Knn { k: 3 }, Verification::None))
        .run(&split.auxiliary, &split.anonymized);
    let lax_rejected = lax.mapping.iter().filter(|m| m.is_none()).count();
    assert!(rejected > lax_rejected, "verification must reject more than closed-world");
}
