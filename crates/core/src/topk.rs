//! Top-K candidate selection (Algorithm 1, lines 2-5).
//!
//! Two strategies from the paper:
//!
//! - **Direct selection**: the K auxiliary users with the largest
//!   similarity scores for each anonymized user.
//! - **Graph-matching selection**: repeatedly compute a maximum-weight
//!   matching on the complete bipartite graph `G(V1, V2)` and append each
//!   anonymized user's matched partner to its candidate set (Steps 1-4).
//!   One matching round yields globally consistent assignments, so rare
//!   users are not crowded out by popular candidates.

use std::collections::BinaryHeap;

use dehealth_graph::max_weight_matching;

/// Candidate-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Per-user Top-K scores.
    #[default]
    Direct,
    /// Repeated maximum-weight bipartite matching.
    GraphMatching,
}

/// For each anonymized user, the auxiliary candidate ids sorted by
/// decreasing similarity.
pub type CandidateSets = Vec<Vec<usize>>;

/// One `(candidate, score)` entry of a [`BoundedTopK`] heap.
///
/// The ordering makes the *worst* entry the heap maximum (so it is the
/// eviction victim): an entry is worse when its score is lower, with ties
/// broken toward larger candidate ids — exactly the deterministic
/// `(score desc, id asc)` order of [`direct_selection`].
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    score: f64,
    candidate: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Greater = worse: lower score first, then larger id.
        other.score.total_cmp(&self.score).then_with(|| self.candidate.cmp(&other.candidate))
    }
}

/// A bounded Top-K selector over a stream of `(candidate, score)` pairs.
///
/// Keeps the `k` best entries seen so far in `O(k)` memory and `O(log k)`
/// per insertion; the final ordering is identical to sorting the full
/// stream by `(score desc, candidate asc)` and truncating to `k`. This is
/// what lets the sharded engine run the Top-K DA phase without ever
/// materializing the dense `|V1| × |V2|` similarity matrix.
///
/// ```
/// use dehealth_core::topk::BoundedTopK;
///
/// let mut top = BoundedTopK::new(2);
/// for (candidate, score) in [(4, 0.1), (7, 0.9), (2, 0.5), (9, 0.5)] {
///     top.insert(candidate, score);
/// }
/// // Best two, ties broken toward the smaller id.
/// assert_eq!(top.into_sorted_entries(), vec![(7, 0.9), (2, 0.5)]);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedTopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl BoundedTopK {
    /// An empty selector keeping the best `k` entries. Nothing is
    /// reserved up front: `k` may come off the wire, far past any
    /// candidate count, and the heap grows only with what it keeps.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::new() }
    }

    /// The bound `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently kept (`<= k`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if nothing has been kept yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The selection floor: the score of the entry that would be evicted
    /// by the next better insertion.
    ///
    /// - `None` while the heap still has room (`len < k`): everything with
    ///   a finite score gets in, so there is no floor yet.
    /// - `Some(score)` once the heap is full: a candidate whose score is
    ///   *strictly* below the floor can never be kept. (A candidate whose
    ///   score *equals* the floor may still enter on the id tie-break, so
    ///   upper-bound pruning must compare with `<`, never `<=`.)
    /// - `Some(+inf)` when `k == 0`: nothing can ever be kept.
    ///
    /// This is what lets an indexed scorer skip pairs whose score upper
    /// bound cannot beat the running Top-K selection — see
    /// [`crate::index::IndexedScorer`].
    #[must_use]
    pub fn floor(&self) -> Option<f64> {
        if self.k == 0 {
            Some(f64::INFINITY)
        } else if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|e| e.score)
        }
    }

    /// Offer one `(candidate, score)` pair. Non-finite scores are ignored
    /// (they mark absent users).
    pub fn insert(&mut self, candidate: usize, score: f64) {
        if self.k == 0 || !score.is_finite() {
            return;
        }
        let entry = HeapEntry { score, candidate };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            if entry < *worst {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// The kept candidates sorted best-first (`score desc, id asc`).
    #[must_use]
    pub fn into_sorted_candidates(self) -> Vec<usize> {
        self.into_sorted_entries().into_iter().map(|(candidate, _)| candidate).collect()
    }

    /// The kept `(candidate, score)` pairs sorted best-first.
    #[must_use]
    pub fn into_sorted_entries(self) -> Vec<(usize, f64)> {
        self.heap.into_sorted_vec().into_iter().map(|e| (e.candidate, e.score)).collect()
    }
}

/// Direct selection: per row of `matrix`, the `k` columns with the largest
/// finite scores (descending). Runs in `O(|row| log k)` per row via
/// [`BoundedTopK`] — the same selector the sharded engine streams scores
/// through, so serial and parallel candidate sets agree by construction.
#[must_use]
pub fn direct_selection(matrix: &[Vec<f64>], k: usize) -> CandidateSets {
    matrix
        .iter()
        .map(|row| {
            let mut top = BoundedTopK::new(k);
            for (v, &s) in row.iter().enumerate() {
                top.insert(v, s);
            }
            top.into_sorted_candidates()
        })
        .collect()
}

/// Graph-matching selection: `k` rounds of maximum-weight bipartite
/// matching, removing matched edges between rounds.
///
/// Requires `n1 <= n2` (each round must match every anonymized user).
/// Masked (`-inf`) entries are lifted to a large negative finite penalty so
/// the Hungarian solver can run; such pairs are only matched if a user has
/// no viable candidates left, and are then filtered from the result.
#[must_use]
pub fn matching_selection(matrix: &[Vec<f64>], k: usize) -> CandidateSets {
    let n1 = matrix.len();
    if n1 == 0 {
        return Vec::new();
    }
    let n2 = matrix[0].len();
    assert!(n1 <= n2, "graph matching needs |V1| <= |V2|");
    const PENALTY: f64 = -1e9;
    let mut work: Vec<Vec<f64>> = matrix
        .iter()
        .map(|row| row.iter().map(|&v| if v.is_finite() { v } else { PENALTY }).collect())
        .collect();
    let mut out: CandidateSets = vec![Vec::new(); n1];
    let rounds = k.min(n2);
    for _ in 0..rounds {
        let assign = max_weight_matching(&work);
        for (u, &v) in assign.iter().enumerate() {
            if work[u][v] > PENALTY / 2.0 {
                out[u].push(v);
            }
            // Remove the matched edge for the next round.
            work[u][v] = PENALTY;
        }
    }
    // Keep each user's candidates sorted by decreasing original similarity.
    for (u, cands) in out.iter_mut().enumerate() {
        cands.sort_unstable_by(|&a, &b| {
            matrix[u][b].partial_cmp(&matrix[u][a]).expect("finite").then(a.cmp(&b))
        });
    }
    out
}

/// Rank (0-based) of `target` in the decreasing-similarity ordering of row
/// `u`, i.e. the smallest K for which Top-K selection would contain it,
/// minus one. `None` if the target is masked.
#[must_use]
pub fn rank_of(matrix: &[Vec<f64>], u: usize, target: usize) -> Option<usize> {
    let row = &matrix[u];
    let score = row[target];
    if !score.is_finite() {
        return None;
    }
    // Count strictly better columns plus equal-score columns with smaller
    // index (matching direct_selection's deterministic tie-break).
    let better = row
        .iter()
        .enumerate()
        .filter(|&(v, &s)| s.is_finite() && (s > score || (s == score && v < target)))
        .count();
    Some(better)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEG: f64 = f64::NEG_INFINITY;

    #[test]
    fn direct_selection_orders_by_score() {
        let m = vec![vec![0.1, 0.9, 0.5], vec![0.7, 0.2, 0.3]];
        let c = direct_selection(&m, 2);
        assert_eq!(c[0], vec![1, 2]);
        assert_eq!(c[1], vec![0, 2]);
    }

    #[test]
    fn direct_selection_skips_masked() {
        let m = vec![vec![0.1, NEG, 0.5]];
        let c = direct_selection(&m, 3);
        assert_eq!(c[0], vec![2, 0]);
    }

    #[test]
    fn direct_selection_k_larger_than_cols() {
        let m = vec![vec![0.1, 0.2]];
        assert_eq!(direct_selection(&m, 10)[0].len(), 2);
    }

    #[test]
    fn matching_selection_resolves_contention() {
        // Both anonymized users prefer column 0, but matching forces
        // distinct assignments in round one.
        let m = vec![vec![1.0, 0.8], vec![0.9, 0.1]];
        let c = matching_selection(&m, 1);
        // Optimal total: u0->1 (0.8) + u1->0 (0.9) = 1.7 beats 1.0+0.1.
        assert_eq!(c[0], vec![1]);
        assert_eq!(c[1], vec![0]);
    }

    #[test]
    fn matching_selection_k2_covers_both() {
        let m = vec![vec![1.0, 0.8], vec![0.9, 0.1]];
        let c = matching_selection(&m, 2);
        assert_eq!(c[0], vec![0, 1]);
        assert_eq!(c[1], vec![0, 1]);
    }

    #[test]
    fn matching_selection_filters_masked_pairs() {
        let m = vec![vec![0.5, NEG]];
        let c = matching_selection(&m, 2);
        assert_eq!(c[0], vec![0]);
    }

    #[test]
    fn rank_of_matches_direct_selection() {
        let m = vec![vec![0.1, 0.9, 0.5, NEG]];
        assert_eq!(rank_of(&m, 0, 1), Some(0));
        assert_eq!(rank_of(&m, 0, 2), Some(1));
        assert_eq!(rank_of(&m, 0, 0), Some(2));
        assert_eq!(rank_of(&m, 0, 3), None);
        // Consistency: target at rank r is in every Top-K with K > r.
        let c = direct_selection(&m, 2);
        assert!(c[0].contains(&2));
        assert_eq!(rank_of(&m, 0, 2).unwrap(), 1);
    }

    #[test]
    fn empty_matrix() {
        assert!(matching_selection(&[], 3).is_empty());
        assert!(direct_selection(&[], 3).is_empty());
    }

    #[test]
    fn bounded_topk_matches_full_sort() {
        // Includes duplicates (tie-break on index) and a masked score.
        let scores = [0.4, 0.9, 0.4, NEG, 0.1, 0.9, 0.7, 0.4];
        for k in 0..=scores.len() + 1 {
            let mut top = BoundedTopK::new(k);
            for (v, &s) in scores.iter().enumerate() {
                top.insert(v, s);
            }
            let mut expect: Vec<usize> =
                (0..scores.len()).filter(|&v| scores[v].is_finite()).collect();
            expect.sort_unstable_by(|&a, &b| {
                scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b))
            });
            expect.truncate(k);
            assert_eq!(top.into_sorted_candidates(), expect, "k = {k}");
        }
    }

    #[test]
    fn bounded_topk_entries_keep_scores() {
        let mut top = BoundedTopK::new(2);
        top.insert(7, 0.5);
        top.insert(3, 0.9);
        top.insert(5, 0.1);
        assert_eq!(top.len(), 2);
        assert!(!top.is_empty());
        assert_eq!(top.k(), 2);
        assert_eq!(top.into_sorted_entries(), vec![(3, 0.9), (7, 0.5)]);
    }

    #[test]
    fn bounded_topk_of_usize_max_keeps_every_entry() {
        let mut top = BoundedTopK::new(usize::MAX);
        assert_eq!(top.floor(), None);
        for (candidate, score) in [(3, 0.2), (1, 0.7), (8, 0.2)] {
            top.insert(candidate, score);
        }
        assert_eq!(top.len(), 3);
        assert_eq!(top.into_sorted_entries(), vec![(1, 0.7), (3, 0.2), (8, 0.2)]);
    }

    #[test]
    fn bounded_topk_zero_k_keeps_nothing() {
        let mut top = BoundedTopK::new(0);
        top.insert(0, 1.0);
        assert!(top.is_empty());
        assert!(top.into_sorted_candidates().is_empty());
    }

    #[test]
    fn bounded_topk_ties_break_toward_smaller_ids() {
        // Five equal-score candidates at a k = 3 boundary: the kept set
        // must be the three smallest ids, in every insertion order. This
        // is what makes shard order unable to reorder equal-score
        // candidates — the engine's cross-thread determinism rests on it.
        let ids = [4usize, 1, 3, 0, 2];
        let orders: Vec<Vec<usize>> = vec![
            ids.to_vec(),
            ids.iter().rev().copied().collect(),
            vec![0, 1, 2, 3, 4],
            vec![2, 0, 4, 1, 3],
        ];
        for order in orders {
            let mut top = BoundedTopK::new(3);
            for &v in &order {
                top.insert(v, 0.5);
            }
            assert_eq!(top.into_sorted_candidates(), vec![0, 1, 2], "order {order:?}");
        }
    }

    #[test]
    fn floor_appears_once_full_and_tracks_worst() {
        let mut top = BoundedTopK::new(2);
        assert_eq!(top.floor(), None);
        top.insert(0, 0.9);
        assert_eq!(top.floor(), None, "not full yet");
        top.insert(1, 0.4);
        assert_eq!(top.floor(), Some(0.4));
        // A better insertion evicts the floor entry and raises the floor.
        top.insert(2, 0.7);
        assert_eq!(top.floor(), Some(0.7));
        // A worse insertion leaves it untouched.
        top.insert(3, 0.1);
        assert_eq!(top.floor(), Some(0.7));
    }

    #[test]
    fn floor_of_zero_k_rejects_everything() {
        let top = BoundedTopK::new(0);
        assert_eq!(top.floor(), Some(f64::INFINITY));
    }

    #[test]
    fn floor_is_monotone_under_insertions() {
        // The pruning argument needs the floor to never decrease: a pair
        // pruned against today's floor must also lose against every later
        // floor.
        let scores = [0.3, 0.9, 0.1, 0.5, 0.7, 0.2, 0.8];
        let mut top = BoundedTopK::new(3);
        let mut last = f64::NEG_INFINITY;
        for (v, &s) in scores.iter().enumerate() {
            top.insert(v, s);
            if let Some(f) = top.floor() {
                assert!(f >= last, "floor regressed: {f} < {last}");
                last = f;
            }
        }
        assert_eq!(last, 0.7);
    }

    #[test]
    fn bounded_topk_insertion_order_is_irrelevant() {
        // The incremental engine pushes chunks in arrival order; the kept
        // set must only depend on the multiset of scored pairs.
        let pairs = [(0, 0.3), (1, 0.8), (2, 0.8), (3, 0.2), (4, 0.95)];
        let mut forward = BoundedTopK::new(3);
        let mut backward = BoundedTopK::new(3);
        for &(v, s) in &pairs {
            forward.insert(v, s);
        }
        for &(v, s) in pairs.iter().rev() {
            backward.insert(v, s);
        }
        assert_eq!(forward.into_sorted_candidates(), backward.into_sorted_candidates());
    }
}
