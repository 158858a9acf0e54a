//! Scale experiment: the order-of-magnitude corpus sweep (1k → 10k →
//! 100k auxiliary users) with the sampled differential oracle that keeps
//! the fast paths provably exact where the full O(N²) oracles cannot run.
//!
//! Every other benchmark in this harness tops out at a few hundred users;
//! this one sweeps three tiers a decade apart and, per tier, measures the
//! whole lifecycle: synthetic corpus generation (with a reproducibility
//! digest), corpus preparation (feature extraction + derived structures),
//! streamed snapshot encode, and one full attack over the production
//! `(Indexed, Shared)` engine path — per-stage wall-clock, pair counts,
//! pruning, arena bytes and process RSS ceilings all land in
//! `BENCH_scale.json`.
//!
//! ## The oracle contract
//!
//! - Tiers up to [`FULL_ORACLE_MAX_USERS`] additionally run the full
//!   `(Dense, PerUser)` differential oracle and assert the *entire*
//!   outcome — candidate sets, candidate score bits, mapping — is
//!   bit-identical.
//! - **Every** tier (including 100k) runs the *sampled* oracle: a seeded
//!   random subset of anonymized users gets its dense Top-K row recomputed
//!   from `SimilarityEngine::scores_for` ([`SAMPLED_TOPK_USERS`] rows) and
//!   its refined decision recomputed by the per-user-from-scratch
//!   `refine_user` reference ([`SAMPLED_REFINED_USERS`] users), each
//!   compared bit-exactly against what the engine produced. A mismatch
//!   panics the experiment — committed numbers always come from runs that
//!   agree with the reference.
//!
//! ## The growth contract
//!
//! After the sweep, per-stage growth curves are fitted to `t ∝ N^e`
//! (log-log least squares over tiers with measurable values) and the
//! experiment asserts the indexed Top-K and shared refined stages stay
//! **sub-quadratic** (`e < 2`). For Top-K the asserted series is the
//! *fully-scored pair count*, not wall-clock: the closed-world split
//! scales both sides with `N`, so the candidate-pair universe is `N²`
//! by construction and even the indexed path owes every pair its O(1)
//! upper-bound check — its asymptotic win is the vanishing fraction of
//! pairs that survive to full scoring (the dense oracle's scored-pair
//! exponent is exactly 2 on the same split). Pair counts are also
//! deterministic per seed, so the assertion can never flake on machine
//! noise; the wall-clock exponents are recorded alongside, unasserted.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dehealth_core::refined::{RefinedConfig, Side};
use dehealth_core::uda::{extract_post_features, UdaGraph};
use dehealth_core::{refine_user, AttackConfig, BoundedTopK, ClassifierKind, SimilarityEngine};
use dehealth_corpus::snapshot::{encode_forum, fnv1a, SectionBuf};
use dehealth_corpus::{closed_world_split, Forum, ForumConfig, SplitConfig};
use dehealth_engine::{Engine, EngineConfig, EngineReport, RefinedMode, ScoringMode};
use dehealth_service::PreparedCorpus;

/// Largest corpus at which the full differential oracles still run: the
/// dense all-pairs Top-K sweep and the per-user refined path are both
/// O(N²)-ish in the corpus size and would silently turn a 100k-user sweep
/// into a run that never finishes. Above this, exactness is covered by
/// the *sampled* oracle alone.
pub const FULL_ORACLE_MAX_USERS: usize = 2000;

/// Seeded random anonymized users whose dense Top-K rows are recomputed
/// and compared bit-exactly at every tier.
pub const SAMPLED_TOPK_USERS: usize = 24;

/// Seeded random anonymized users whose refined decision is recomputed by
/// the per-user reference path and compared at every tier.
pub const SAMPLED_REFINED_USERS: usize = 8;

/// Tiers smaller than this are dropped from the sweep (their timings are
/// pure noise).
const MIN_TIER: usize = 30;

/// Below this wall-clock a stage timing is noise and is excluded from the
/// growth-exponent fit.
const FIT_FLOOR_SECONDS: f64 = 1e-3;

/// One tier of the sweep.
#[derive(Debug, Clone)]
pub struct ScaleTier {
    /// Generated forum users at this tier.
    pub aux_users: usize,
    /// Anonymized users the attack targeted.
    pub anon_users: usize,
    /// Auxiliary posts prepared into the corpus.
    pub aux_posts: usize,
    /// FNV-1a digest of the generated forum's snapshot encoding — the
    /// reproducibility pin (same seed ⇒ same digest, any thread count).
    pub corpus_digest: u64,
    /// Forum generation wall-clock seconds.
    pub gen_seconds: f64,
    /// Corpus preparation (feature extraction + derived structures).
    pub build_seconds: f64,
    /// Streamed snapshot encode wall-clock seconds.
    pub snapshot_seconds: f64,
    /// Snapshot size on disk.
    pub snapshot_bytes: u64,
    /// Attack `prepare` stage seconds (anonymized-side extraction).
    pub prepare_seconds: f64,
    /// Attack Top-K stage seconds (indexed path).
    pub topk_seconds: f64,
    /// Fully scored `(anonymized, auxiliary)` pairs.
    pub topk_pairs: u64,
    /// Pairs pruned by the indexed upper bound (hot/rare split included).
    pub topk_pairs_pruned: u64,
    /// Attack refined stage seconds (shared path).
    pub refined_seconds: f64,
    /// Whole-attack wall-clock seconds.
    pub total_attack_seconds: f64,
    /// Index/context arena bytes resident on the heap.
    pub resident_arena_bytes: usize,
    /// Process resident set right after the corpus build, bytes.
    pub vm_rss_bytes: u64,
    /// Process peak resident set so far, bytes (monotone across tiers —
    /// the sweep runs tiers ascending so each reading is the ceiling up
    /// to and including its own tier).
    pub vm_hwm_bytes: u64,
    /// `"full+sampled"` below the full-oracle ceiling, `"sampled"` above.
    pub oracle: &'static str,
}

/// Fitted per-stage growth exponents (`t ∝ N^e`); `None` when fewer than
/// two tiers produced measurable timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct GrowthFit {
    /// Indexed Top-K wall-clock exponent (informational — see the
    /// module docs for why time cannot be the asserted series).
    pub topk: Option<f64>,
    /// Indexed Top-K *fully-scored pair* exponent — asserted `< 2`
    /// (dense scoring is exactly 2 on the same split).
    pub topk_pairs: Option<f64>,
    /// Shared refined stage wall-clock exponent — asserted `< 2`.
    pub refined: Option<f64>,
    /// Corpus build exponent (informational).
    pub build: Option<f64>,
    /// Snapshot-size exponent (informational).
    pub snapshot_bytes: Option<f64>,
}

/// splitmix64 — the experiment's tiny seeded generator for picking oracle
/// samples (the workspace's `rand` lives in the corpus crate; the bench
/// harness keeps its sampling self-contained and pinned).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `k` distinct seeded indices from `0..n`, ascending.
fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k.min(n) {
        picked.insert((splitmix64(&mut state) % n as u64) as usize);
    }
    picked.into_iter().collect()
}

/// `(VmRSS, VmHWM)` of this process in bytes — Linux `/proc` readings,
/// `(0, 0)` elsewhere.
fn proc_memory() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let grab = |key: &str| {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (grab("VmRSS:"), grab("VmHWM:"))
}

/// Log-log least-squares slope of `seconds` (or any positive measure)
/// against tier size, over points above `floor`.
fn fitted_exponent(points: &[(f64, f64)], floor: f64) -> Option<f64> {
    let pts: Vec<(f64, f64)> =
        points.iter().filter(|&&(_, y)| y > floor).map(|&(x, y)| (x.ln(), y.ln())).collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    (denom.abs() > 1e-12).then(|| (n * sxy - sx * sy) / denom)
}

/// The engine configuration of the measured production path.
fn scale_engine() -> Engine {
    Engine::new(EngineConfig {
        attack: AttackConfig { top_k: 10, n_landmarks: 30, ..AttackConfig::default() },
        n_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        block_size: 16,
        scoring: ScoringMode::Indexed,
        refined: RefinedMode::Shared,
        candidate_budget: None,
    })
}

fn stage(report: &EngineReport, name: &str) -> (f64, u64, u64) {
    report.stage(name).map_or((0.0, 0, 0), |s| (s.seconds, s.items, s.skipped))
}

/// FNV-1a digest of a forum's snapshot encoding — the byte-identity
/// fingerprint the determinism checks compare.
fn forum_digest(forum: &Forum) -> u64 {
    let mut buf = SectionBuf::new();
    encode_forum(forum, &mut buf);
    fnv1a(&buf.into_bytes())
}

/// Run the sweep and write `BENCH_scale.json` to the working directory.
///
/// # Errors
/// Propagates I/O errors from writing the JSON file.
pub fn run(users: usize, seed: u64) -> io::Result<PathBuf> {
    let path = PathBuf::from("BENCH_scale.json");
    run_to(&path, users, seed)?;
    Ok(path)
}

/// Run the sweep over an explicit, ascending tier list (the
/// `repro scale --tiers` form) and write `BENCH_scale.json` to the
/// working directory.
///
/// # Errors
/// Propagates I/O errors from writing the JSON file.
pub fn run_tiers(tiers: &[usize], seed: u64) -> io::Result<PathBuf> {
    let path = PathBuf::from("BENCH_scale.json");
    run_tiers_to(&path, tiers, seed)?;
    Ok(path)
}

/// Run the sweep (tiers `users/100`, `users/10`, `users`, smallest first)
/// and write the JSON report to `path`.
///
/// # Panics
/// Panics when any oracle comparison (full or sampled) disagrees with the
/// engine, or when the fitted indexed-Top-K scored-pair or shared-refined
/// wall-clock growth exponent reaches 2 — the committed numbers must come
/// from runs that are both exact and sub-quadratic.
///
/// # Errors
/// Propagates I/O errors from writing the JSON file.
pub fn run_to(path: &Path, users: usize, seed: u64) -> io::Result<Vec<ScaleTier>> {
    let mut tiers: Vec<usize> =
        [users / 100, users / 10, users].into_iter().filter(|&t| t >= MIN_TIER).collect();
    tiers.dedup();
    run_tiers_to(path, &tiers, seed)
}

/// [`run_to`] with an explicit tier list instead of the default
/// decade pyramid. Tiers below `MIN_TIER` (30 users) are dropped (their timings
/// are noise); the sweep runs smallest-first, so the list must be
/// ascending.
///
/// # Panics
/// As [`run_to`], plus when no tier survives the minimum-tier filter or
/// the list is not strictly ascending.
///
/// # Errors
/// Propagates I/O errors from writing the JSON file.
pub fn run_tiers_to(path: &Path, tiers: &[usize], seed: u64) -> io::Result<Vec<ScaleTier>> {
    let tiers: Vec<usize> = tiers.iter().copied().filter(|&t| t >= MIN_TIER).collect();
    assert!(!tiers.is_empty(), "corpus too small for any tier (need ≥ {MIN_TIER} users)");
    assert!(
        tiers.windows(2).all(|w| w[0] < w[1]),
        "tiers must be strictly ascending (the peak-RSS readings are only a ceiling when \
         tiers grow)"
    );
    let users = *tiers.last().expect("non-empty tier list");
    println!(
        "\n# Scale: tiers {tiers:?} auxiliary users; full oracle ≤ {FULL_ORACLE_MAX_USERS}, \
         sampled oracle ({SAMPLED_TOPK_USERS} topk rows + {SAMPLED_REFINED_USERS} refined \
         users) at every tier"
    );

    let engine = scale_engine();
    let cfg = engine.config().attack.clone();
    let mut results: Vec<ScaleTier> = Vec::new();
    for &tier in &tiers {
        let config = ForumConfig::webmd_like(tier);
        let t0 = Instant::now();
        let forum = Forum::generate(&config, seed);
        let gen_seconds = t0.elapsed().as_secs_f64();
        let corpus_digest = forum_digest(&forum);

        // Generator-determinism pin: at tiers where a regeneration is
        // affordable, the same seed must yield byte-identical corpora at
        // different worker-thread counts (the two-phase generator's
        // contract; `BENCH_scale.json` rows are only trustworthy if the
        // corpus behind them is reproducible).
        if tier <= 10_000 {
            for threads in [1usize, 3] {
                let again = Forum::generate_with_threads(&config, seed, threads);
                assert_eq!(
                    forum_digest(&again),
                    corpus_digest,
                    "generator not deterministic at tier {tier} with {threads} threads"
                );
            }
        }

        let split = closed_world_split(&forum, &SplitConfig::fraction(0.7), seed.wrapping_add(1));
        drop(forum);
        let anonymized = split.anonymized;
        let t0 = Instant::now();
        let corpus = PreparedCorpus::build(split.auxiliary, ClassifierKind::default());
        let build_seconds = t0.elapsed().as_secs_f64();
        let (vm_rss_bytes, vm_hwm_bytes) = proc_memory();
        let memory = corpus.memory_stats();

        let snap_path = std::env::temp_dir().join(format!("dehealth-scale-{tier}.snap"));
        let t0 = Instant::now();
        corpus.save_streaming(&snap_path).map_err(io::Error::other)?;
        let snapshot_seconds = t0.elapsed().as_secs_f64();
        let snapshot_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
        let _ = std::fs::remove_file(&snap_path);

        let outcome = corpus.attack(&engine, &anonymized);
        let (prepare_seconds, _, _) = stage(&outcome.report, "prepare");
        let (topk_seconds, topk_pairs, topk_pairs_pruned) = stage(&outcome.report, "topk");
        let (refined_seconds, _, _) = stage(&outcome.report, "refined");

        let full_oracle = tier <= FULL_ORACLE_MAX_USERS;
        if full_oracle {
            let oracle_engine = Engine::new(EngineConfig {
                scoring: ScoringMode::Dense,
                refined: RefinedMode::PerUser,
                ..engine.config().clone()
            });
            let reference = corpus.attack(&oracle_engine, &anonymized);
            assert_eq!(outcome.candidates, reference.candidates, "tier {tier}: candidate sets");
            assert_eq!(
                to_bits(&outcome.candidate_scores),
                to_bits(&reference.candidate_scores),
                "tier {tier}: candidate score bits"
            );
            assert_eq!(outcome.mapping, reference.mapping, "tier {tier}: mappings");
        } else {
            println!(
                "  tier {tier}: full dense/per-user oracle SKIPPED (O(N²) at this scale); \
                 sampled oracle covers {SAMPLED_TOPK_USERS}/{} Top-K rows and \
                 {SAMPLED_REFINED_USERS} refined users bit-exactly",
                anonymized.n_users
            );
        }

        // Sampled differential oracle — every tier, full oracle or not.
        let anon_feats = extract_post_features(&anonymized);
        let anon_uda = UdaGraph::build_with_features(&anonymized, &anon_feats);
        let sim = SimilarityEngine::new(&anon_uda, corpus.uda(), cfg.weights, cfg.n_landmarks);
        for &u in &sample_indices(anonymized.n_users, SAMPLED_TOPK_USERS, seed ^ 0x7075) {
            let mut heap = BoundedTopK::new(cfg.top_k);
            for (v, s) in sim.scores_for(u) {
                heap.insert(v, s);
            }
            let dense: Vec<(usize, u64)> =
                heap.into_sorted_entries().into_iter().map(|(v, s)| (v, s.to_bits())).collect();
            let engine_row: Vec<(usize, u64)> =
                outcome.candidate_scores[u].iter().map(|&(v, s)| (v, s.to_bits())).collect();
            assert_eq!(engine_row, dense, "tier {tier}: sampled Top-K row of user {u}");
        }
        let anon_side = Side { forum: &anonymized, uda: &anon_uda, post_features: &anon_feats };
        let aux_side =
            Side { forum: corpus.forum(), uda: corpus.uda(), post_features: corpus.features() };
        let refined_cfg = RefinedConfig {
            classifier: cfg.classifier,
            verification: cfg.verification,
            seed: cfg.seed,
        };
        let mut scratch_row = vec![f64::NEG_INFINITY; corpus.n_users()];
        for &u in &sample_indices(anonymized.n_users, SAMPLED_REFINED_USERS, seed ^ 0x5246) {
            for &(v, s) in &outcome.candidate_scores[u] {
                scratch_row[v] = s;
            }
            let reference = refine_user(
                u,
                &outcome.candidates[u],
                &anon_side,
                &aux_side,
                &scratch_row,
                &refined_cfg,
            );
            assert_eq!(
                reference, outcome.mapping[u],
                "tier {tier}: sampled refined decision of user {u}"
            );
            for &(v, _) in &outcome.candidate_scores[u] {
                scratch_row[v] = f64::NEG_INFINITY;
            }
        }

        // Candidate-budget recall contract, probed once at the smallest
        // tier: under a binding budget each user's best candidate — and
        // therefore the Top-K recall@1 — must survive.
        if tier == tiers[0] {
            let total: usize = outcome.candidate_scores.iter().map(Vec::len).sum();
            let budget_engine = Engine::new(EngineConfig {
                candidate_budget: Some(total / 2),
                ..engine.config().clone()
            });
            let budgeted = corpus.attack(&budget_engine, &anonymized);
            let trimmed = budgeted.report.stage("budget").map_or(0, |s| s.skipped);
            assert!(trimmed > 0, "tier {tier}: budget of {} never bound", total / 2);
            for (full, capped) in outcome.candidate_scores.iter().zip(&budgeted.candidate_scores) {
                assert_eq!(
                    full.first().map(|&(v, s)| (v, s.to_bits())),
                    capped.first().map(|&(v, s)| (v, s.to_bits())),
                    "tier {tier}: candidate budget dropped a best-scoring candidate"
                );
            }
            println!(
                "  tier {tier}: candidate budget {}/{total} trimmed {trimmed} entries, \
                 recall contract held",
                total / 2
            );
        }

        let result = ScaleTier {
            aux_users: tier,
            anon_users: anonymized.n_users,
            aux_posts: corpus.n_posts(),
            corpus_digest,
            gen_seconds,
            build_seconds,
            snapshot_seconds,
            snapshot_bytes,
            prepare_seconds,
            topk_seconds,
            topk_pairs,
            topk_pairs_pruned,
            refined_seconds,
            total_attack_seconds: outcome.report.total_seconds(),
            resident_arena_bytes: memory.resident_arena_bytes,
            vm_rss_bytes,
            vm_hwm_bytes,
            oracle: if full_oracle { "full+sampled" } else { "sampled" },
        };
        println!(
            "  tier {:>7}: gen {:>7.2}s, build {:>7.2}s, snapshot {:>6.2}s ({} bytes), \
             attack {:>7.2}s (topk {:>7.2}s: {} scored + {} pruned; refined {:>7.2}s), \
             RSS {} MiB (peak {} MiB), oracle {}",
            result.aux_users,
            result.gen_seconds,
            result.build_seconds,
            result.snapshot_seconds,
            result.snapshot_bytes,
            result.total_attack_seconds,
            result.topk_seconds,
            result.topk_pairs,
            result.topk_pairs_pruned,
            result.refined_seconds,
            result.vm_rss_bytes / (1 << 20),
            result.vm_hwm_bytes / (1 << 20),
            result.oracle,
        );
        results.push(result);
    }

    let growth = fit_growth(&results);
    if results.len() >= 2 {
        if let Some(e) = growth.topk_pairs {
            assert!(e < 2.0, "indexed Top-K scored-pair count grew quadratically (N^{e:.2})");
        }
        if let Some(e) = growth.refined {
            assert!(e < 2.0, "shared refined stage grew super-quadratically (N^{e:.2})");
        }
    }
    let fmt_exp = |e: Option<f64>| e.map_or("n/a".to_string(), |e| format!("N^{e:.2}"));
    println!(
        "  growth: topk scored pairs {} (wall-clock {}), refined {}, build {}, \
         snapshot bytes {}",
        fmt_exp(growth.topk_pairs),
        fmt_exp(growth.topk),
        fmt_exp(growth.refined),
        fmt_exp(growth.build),
        fmt_exp(growth.snapshot_bytes)
    );

    write_json(path, users, seed, &results, growth)?;
    println!("  wrote {}", path.display());
    Ok(results)
}

fn to_bits(scores: &[Vec<(usize, f64)>]) -> Vec<Vec<(usize, u64)>> {
    scores.iter().map(|row| row.iter().map(|&(v, s)| (v, s.to_bits())).collect()).collect()
}

fn fit_growth(results: &[ScaleTier]) -> GrowthFit {
    let series = |f: fn(&ScaleTier) -> f64| -> Vec<(f64, f64)> {
        results.iter().map(|r| (r.aux_users as f64, f(r))).collect()
    };
    GrowthFit {
        topk: fitted_exponent(&series(|r| r.topk_seconds), FIT_FLOOR_SECONDS),
        topk_pairs: fitted_exponent(&series(|r| r.topk_pairs as f64), 0.0),
        refined: fitted_exponent(&series(|r| r.refined_seconds), FIT_FLOOR_SECONDS),
        build: fitted_exponent(&series(|r| r.build_seconds), FIT_FLOOR_SECONDS),
        snapshot_bytes: fitted_exponent(&series(|r| r.snapshot_bytes as f64), 0.0),
    }
}

/// Hand-rolled JSON (the workspace carries no serialization dependency).
fn write_json(
    path: &Path,
    users: usize,
    seed: u64,
    tiers: &[ScaleTier],
    growth: GrowthFit,
) -> io::Result<()> {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let exp = |e: Option<f64>| e.map_or("null".to_string(), |e| format!("{e:.4}"));
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"scale\",");
    let _ = writeln!(out, "  \"users\": {users},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"machine_parallelism\": {parallelism},");
    let _ = writeln!(out, "  \"full_oracle_max_users\": {FULL_ORACLE_MAX_USERS},");
    let _ = writeln!(out, "  \"sampled_topk_users\": {SAMPLED_TOPK_USERS},");
    let _ = writeln!(out, "  \"sampled_refined_users\": {SAMPLED_REFINED_USERS},");
    let _ = writeln!(
        out,
        "  \"contract\": \"indexed Top-K rows and refined decisions verified bit-exact \
         against the dense/per-user reference: full oracle at tiers <= full_oracle_max_users, \
         seeded sampled oracle at every tier\","
    );
    out.push_str("  \"tiers\": [\n");
    for (i, t) in tiers.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"aux_users\": {}, \"anon_users\": {}, \"aux_posts\": {}, \
             \"corpus_digest\": \"{:#018x}\", \"gen_seconds\": {:.6}, \
             \"build_seconds\": {:.6}, \"snapshot_seconds\": {:.6}, \"snapshot_bytes\": {}, \
             \"prepare_seconds\": {:.6}, \"topk_seconds\": {:.6}, \"topk_pairs\": {}, \
             \"topk_pairs_pruned\": {}, \"refined_seconds\": {:.6}, \
             \"total_attack_seconds\": {:.6}, \"resident_arena_bytes\": {}, \
             \"vm_rss_bytes\": {}, \"vm_hwm_bytes\": {}, \"oracle\": \"{}\"}}",
            t.aux_users,
            t.anon_users,
            t.aux_posts,
            t.corpus_digest,
            t.gen_seconds,
            t.build_seconds,
            t.snapshot_seconds,
            t.snapshot_bytes,
            t.prepare_seconds,
            t.topk_seconds,
            t.topk_pairs,
            t.topk_pairs_pruned,
            t.refined_seconds,
            t.total_attack_seconds,
            t.resident_arena_bytes,
            t.vm_rss_bytes,
            t.vm_hwm_bytes,
            t.oracle,
        );
        out.push_str(if i + 1 < tiers.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"growth_exponents\": {");
    let _ = write!(
        out,
        "\"topk_scored_pairs\": {}, \"topk_seconds\": {}, \"refined_seconds\": {}, \
         \"build_seconds\": {}, \"snapshot_bytes\": {}",
        exp(growth.topk_pairs),
        exp(growth.topk),
        exp(growth.refined),
        exp(growth.build),
        exp(growth.snapshot_bytes)
    );
    out.push_str("}\n}\n");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_seeded_and_distinct() {
        let a = sample_indices(1000, 24, 7);
        let b = sample_indices(1000, 24, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 24);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "indices not distinct/ascending");
        assert_ne!(a, sample_indices(1000, 24, 8));
        assert_eq!(sample_indices(5, 24, 7).len(), 5);
    }

    #[test]
    fn exponent_fit_recovers_known_slopes() {
        let quadratic: Vec<(f64, f64)> =
            [100.0, 1000.0, 10000.0].iter().map(|&n| (n, 1e-6 * n * n)).collect();
        let e = fitted_exponent(&quadratic, 1e-3).unwrap();
        assert!((e - 2.0).abs() < 1e-9, "got {e}");
        let linear: Vec<(f64, f64)> =
            [100.0, 1000.0, 10000.0].iter().map(|&n| (n, 1e-4 * n)).collect();
        let e = fitted_exponent(&linear, 1e-3).unwrap();
        assert!((e - 1.0).abs() < 1e-9, "got {e}");
        // Noise-floor gating: one measurable point is not a fit.
        assert!(fitted_exponent(&[(100.0, 1e-5), (1000.0, 0.5)], 1e-3).is_none());
    }

    #[test]
    fn sweep_runs_oracles_and_writes_json() {
        let dir = std::env::temp_dir().join("dehealth-scale-test");
        let path = dir.join("BENCH_scale.json");
        // 300 users → tiers [30, 300]; both under the full-oracle ceiling,
        // so this exercises full + sampled oracles, the budget probe, the
        // determinism regeneration and the JSON writer end to end.
        let results = run_to(&path, 300, 5).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].aux_users, 30);
        assert_eq!(results[1].aux_users, 300);
        for t in &results {
            assert_eq!(t.oracle, "full+sampled");
            assert!(t.anon_users > 0);
            assert!(t.snapshot_bytes > 0);
            assert!(t.build_seconds > 0.0);
            assert!(t.total_attack_seconds > 0.0);
            assert!(t.corpus_digest != 0);
        }
        assert!(results[1].snapshot_bytes > results[0].snapshot_bytes);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"experiment\": \"scale\""));
        assert!(text.contains("\"oracle\": \"full+sampled\""));
        assert!(text.contains("\"growth_exponents\""));
        assert!(text.contains("\"corpus_digest\""));
        assert!(text.contains("\"vm_hwm_bytes\""));
        let _ = std::fs::remove_dir_all(dir);
    }
}
