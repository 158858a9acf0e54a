//! Output checks: attack quality against the split's ground truth, the
//! sampled differential oracle, and the ledger that turns failed checks
//! into failed operations.

use dehealth_core::{
    refine_user, AttackConfig, BoundedTopK, RefinedConfig, Side, SimilarityEngine,
};
use dehealth_engine::EngineOutcome;

use crate::inputs::sample_indices;

/// Seeded anonymized users whose dense Top-K row the sampled oracle
/// recomputes (as `repro scale`).
const ORACLE_ROWS: usize = 24;

/// Seeded anonymized users whose decision the per-user reference
/// recomputes (as `repro scale`).
const ORACLE_USERS: usize = 8;

/// Attack quality against the ground truth, accumulated over attacks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    /// Attacked users that have a true mapping.
    pub overlapping: u64,
    /// ... of which were mapped to it.
    pub correct: u64,
    /// ... of which have it in their final candidate set.
    pub candidate_hits: u64,
    /// Attacked users without a true mapping.
    pub non_overlapping: u64,
    /// ... of which were mapped to someone anyway.
    pub false_positives: u64,
}

impl Quality {
    /// Score one attack's `mapping` and `candidates` given each attacked
    /// user's true auxiliary id.
    pub fn add(
        &mut self,
        mapping: &[Option<usize>],
        candidates: &[Vec<usize>],
        truth: impl Fn(usize) -> Option<usize>,
    ) {
        for (u, (mapped, cands)) in mapping.iter().zip(candidates).enumerate() {
            match truth(u) {
                Some(t) => {
                    self.overlapping += 1;
                    self.correct += u64::from(*mapped == Some(t));
                    self.candidate_hits += u64::from(cands.contains(&t));
                }
                None => {
                    self.non_overlapping += 1;
                    self.false_positives += u64::from(mapped.is_some());
                }
            }
        }
    }

    /// Correct mappings ÷ attacked users with a true mapping.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct, self.overlapping)
    }

    /// True mapping inside the final candidate set ÷ users with one.
    #[must_use]
    pub fn candidate_hit_rate(&self) -> f64 {
        ratio(self.candidate_hits, self.overlapping)
    }

    /// Users without a true mapping that were mapped ÷ such users.
    #[must_use]
    pub fn fp_rate(&self) -> f64 {
        ratio(self.false_positives, self.non_overlapping)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Operations attempted and failed, with a description of each failure.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Ledger {
    /// Count one operation; it failed if `problems` is not empty.
    pub fn record(&mut self, op: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems.into_iter().map(|p| format!("{op}: {p}")));
        }
    }
}

/// What one attack produced, as the checks compare it.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// Final candidate set per anonymized user.
    pub candidates: Vec<Vec<usize>>,
    /// Refined-DA decision per anonymized user.
    pub mapping: Vec<Option<usize>>,
}

/// An in-process attack's result: candidate scores (best first) plus the
/// candidate sets and mapping.
#[derive(Debug, Clone)]
pub struct Attack {
    /// Top-K `(aux_user, score)` entries per anonymized user.
    pub candidate_scores: Vec<Vec<(usize, f64)>>,
    /// Candidate sets and refined decisions.
    pub result: Mapping,
}

impl From<EngineOutcome> for Attack {
    fn from(o: EngineOutcome) -> Self {
        Self {
            candidate_scores: o.candidate_scores,
            result: Mapping { candidates: o.candidates, mapping: o.mapping },
        }
    }
}

/// Differences of `other` from the reference attack `first` on the same
/// inputs: candidate sets, mapping and candidate score bits.
#[must_use]
pub fn same_attack(first: &Attack, other: &Attack) -> Vec<String> {
    let bits = |a: &Attack| -> Vec<Vec<(usize, u64)>> {
        a.candidate_scores
            .iter()
            .map(|r| r.iter().map(|&(v, s)| (v, s.to_bits())).collect())
            .collect()
    };
    let mut out = diff(&first.result, &other.result);
    if bits(first) != bits(other) {
        out.push("candidate scores differ from the first attack".into());
    }
    out
}

/// Flip user `u`'s decision: the self-test's deliberately wrong result.
pub fn corrupt(mapping: &mut [Option<usize>], u: usize) {
    mapping[u] = if mapping[u].is_some() { None } else { Some(0) };
}

/// The seeded users the sampled oracle checks: `(rows, refined)`.
#[must_use]
pub fn oracle_sample(n_users: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    (
        sample_indices(n_users, ORACLE_ROWS, seed ^ 0x7075),
        sample_indices(n_users, ORACLE_USERS, seed ^ 0x5246),
    )
}

/// Differences between two attack results, one line each (at most a few).
#[must_use]
pub fn diff(expected: &Mapping, got: &Mapping) -> Vec<String> {
    let mut out = Vec::new();
    if expected.mapping.len() != got.mapping.len() {
        out.push(format!(
            "{} users expected, {} returned",
            expected.mapping.len(),
            got.mapping.len()
        ));
        return out;
    }
    for u in 0..expected.mapping.len() {
        if expected.mapping[u] != got.mapping[u] {
            out.push(format!(
                "user {u} mapped to {:?}, expected {:?}",
                got.mapping[u], expected.mapping[u]
            ));
        }
        if expected.candidates.get(u) != got.candidates.get(u) {
            out.push(format!("user {u} candidate set differs"));
        }
        if out.len() >= 3 {
            break;
        }
    }
    out
}

/// The sampled differential oracle `repro scale` runs: for each user in
/// `rows`, the dense Top-K row recomputed from
/// [`SimilarityEngine::scores_for`] must equal the engine's candidate
/// scores bit for bit, and for each user in `refined` the per-user
/// reference [`refine_user`] must reach the engine's decision.
/// Candidate ids are in `aux`'s id space. Returns one line per mismatch.
#[must_use]
pub fn sampled_oracle(
    attack: &Attack,
    anon: &Side<'_>,
    aux: &Side<'_>,
    cfg: &AttackConfig,
    rows: &[usize],
    refined: &[usize],
) -> Vec<String> {
    let (candidate_scores, result) = (&attack.candidate_scores, &attack.result);
    let mut out = Vec::new();
    let sim = SimilarityEngine::new(anon.uda, aux.uda, cfg.weights, cfg.n_landmarks);
    for &u in rows {
        let mut heap = BoundedTopK::new(cfg.top_k);
        for (v, s) in sim.scores_for(u) {
            heap.insert(v, s);
        }
        let dense: Vec<(usize, u64)> =
            heap.into_sorted_entries().into_iter().map(|(v, s)| (v, s.to_bits())).collect();
        let engine: Vec<(usize, u64)> =
            candidate_scores[u].iter().map(|&(v, s)| (v, s.to_bits())).collect();
        if dense != engine {
            out.push(format!("Top-K row of user {u} differs from the dense oracle"));
        }
    }
    let refined_cfg = RefinedConfig {
        classifier: cfg.classifier,
        verification: cfg.verification,
        seed: cfg.seed,
    };
    let mut row = vec![f64::NEG_INFINITY; aux.forum.n_users];
    for &u in refined {
        for &(v, s) in &candidate_scores[u] {
            row[v] = s;
        }
        let reference = refine_user(u, &result.candidates[u], anon, aux, &row, &refined_cfg);
        if reference != result.mapping[u] {
            out.push(format!(
                "user {u} mapped to {:?}, the per-user reference says {reference:?}",
                result.mapping[u]
            ));
        }
        for &(v, _) in &candidate_scores[u] {
            row[v] = f64::NEG_INFINITY;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_counts_both_worlds() {
        let mut q = Quality::default();
        let truth = [Some(4), Some(5), None, None];
        q.add(&[Some(4), Some(9), Some(1), None], &[vec![4, 1], vec![7], vec![1], vec![]], |u| {
            truth[u]
        });
        assert_eq!(q.accuracy(), 0.5);
        assert_eq!(q.candidate_hit_rate(), 0.5);
        assert_eq!(q.fp_rate(), 0.5);
    }

    #[test]
    fn ledger_counts_failed_operations() {
        let mut l = Ledger::default();
        l.record("a", vec![]);
        l.record("b", vec!["x".into(), "y".into()]);
        assert_eq!((l.attempted, l.failed, l.problems.len()), (2, 1, 2));
        let m = Mapping { candidates: vec![vec![1]], mapping: vec![Some(1)] };
        let mut bad = m.clone();
        bad.mapping[0] = None;
        assert!(diff(&m, &m).is_empty());
        assert_eq!(diff(&m, &bad).len(), 1);
    }
}
