//! k-nearest-neighbour classifier (the paper's "KNN algorithm", reference 31).

use std::collections::BinaryHeap;

use crate::dataset::{cosine, euclidean, Classifier, Dataset, Prediction, Samples};

/// Distance/similarity metric for [`Knn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KnnMetric {
    /// Euclidean distance (smaller = closer).
    #[default]
    Euclidean,
    /// Cosine similarity (larger = closer); suits sparse frequency vectors.
    Cosine,
}

impl KnnMetric {
    /// Closeness of `a` and `b`: larger is always closer.
    fn closeness(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            // Negate distance so that larger is always closer.
            KnnMetric::Euclidean => -euclidean(a, b),
            KnnMetric::Cosine => cosine(a, b),
        }
    }
}

/// One `(closeness, train index)` neighbour candidate. The ordering makes
/// the *worst* neighbour the heap maximum (the eviction victim): worse =
/// lower closeness, ties toward the larger train index — so the kept set
/// and its best-first order match a stable descending sort exactly.
#[derive(Debug, Clone, Copy)]
struct Neighbour {
    closeness: f64,
    index: usize,
}

impl PartialEq for Neighbour {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Neighbour {}

impl PartialOrd for Neighbour {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbour {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.closeness.total_cmp(&self.closeness).then_with(|| self.index.cmp(&other.index))
    }
}

/// Majority vote over the `k` highest-closeness items of a scored stream.
///
/// `scores` yields item `i`'s closeness (larger = closer) in index order;
/// `label_of` maps an item index to its class. The neighbourhood is
/// selected with a bounded `O(n log k)` heap instead of sorting all `n`
/// closeness values; the kept neighbours (and their best-first order) are
/// identical to a full stable sort by decreasing closeness, so the
/// decision is too. Ties are broken toward the closest neighbour's class
/// for determinism.
///
/// This is the voting core of [`knn_predict`]; callers with their own
/// distance kernel (e.g. a sparse-vector scorer) feed closeness values in
/// directly and inherit identical selection and tie-break semantics.
///
/// # Panics
/// Panics if `k == 0` or `scores` is empty.
#[must_use]
pub fn knn_vote_scored(
    scores: impl Iterator<Item = f64>,
    label_of: impl Fn(usize) -> usize,
    k: usize,
) -> Prediction {
    assert!(k > 0, "k must be positive");
    let mut heap: BinaryHeap<Neighbour> = BinaryHeap::with_capacity(k + 1);
    let mut n = 0usize;
    for (i, closeness) in scores.enumerate() {
        n += 1;
        let entry = Neighbour { closeness, index: i };
        if heap.len() < k {
            heap.push(entry);
        } else if let Some(worst) = heap.peek() {
            if entry < *worst {
                heap.pop();
                heap.push(entry);
            }
        }
    }
    assert!(n > 0, "predict before fit");
    let k = k.min(n);
    // Ascending by `Ord` = best-first (greater = worse).
    let top = heap.into_sorted_vec();
    // `(class, votes)` in the order each class first appears best-first:
    // at most k entries.
    let mut votes: Vec<(usize, usize)> = Vec::with_capacity(top.len());
    for neighbour in &top {
        let label = label_of(neighbour.index);
        match votes.iter_mut().find(|(l, _)| *l == label) {
            Some((_, count)) => *count += 1,
            None => votes.push((label, 1)),
        }
    }
    let best_count = votes.iter().map(|&(_, count)| count).max().expect("k >= 1");
    // Tie-break: first (closest) neighbour whose class reached the max —
    // the first such class in first-appearance order.
    let (label, _) =
        *votes.iter().find(|&&(_, count)| count == best_count).expect("at least one neighbour");
    Prediction { label, score: best_count as f64 / k as f64 }
}

/// Classify `x` against a borrowed training set: majority vote over the
/// `k` nearest neighbours via [`knn_vote_scored`]. Training data is
/// accessed through [`Samples`], so callers holding rows in a shared
/// arena classify without copying a training set at all.
///
/// # Panics
/// Panics if `k == 0` or the training set is empty.
#[must_use]
pub fn knn_predict(train: &dyn Samples, k: usize, metric: KnnMetric, x: &[f64]) -> Prediction {
    assert!(!train.is_empty(), "predict before fit");
    knn_vote_scored(
        (0..train.len()).map(|i| metric.closeness(x, train.sample(i))),
        |i| train.label(i),
        k,
    )
}

/// k-nearest-neighbour voting classifier. Ties are broken toward the
/// closest neighbour's class for determinism.
#[derive(Debug, Clone)]
pub struct Knn {
    k: usize,
    metric: KnnMetric,
    train: Dataset,
}

impl Knn {
    /// Create an unfitted KNN with neighbourhood size `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize, metric: KnnMetric) -> Self {
        assert!(k > 0, "k must be positive");
        Self { k, metric, train: Dataset::new(0) }
    }
}

impl Classifier for Knn {
    fn fit(&mut self, train: &dyn Samples) {
        assert!(!train.is_empty(), "empty training set");
        self.train = Dataset::from_samples(train);
    }

    fn predict(&self, x: &[f64]) -> Prediction {
        knn_predict(&self.train, self.k, self.metric, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetView;

    fn two_blobs() -> Dataset {
        let mut d = Dataset::new(2);
        for &(x, y) in &[(0.0, 0.0), (0.1, 0.0), (0.0, 0.1)] {
            d.push(&[x, y], 0);
        }
        for &(x, y) in &[(5.0, 5.0), (5.1, 5.0), (5.0, 5.1)] {
            d.push(&[x, y], 1);
        }
        d
    }

    #[test]
    fn classifies_blobs() {
        let mut knn = Knn::new(3, KnnMetric::Euclidean);
        knn.fit(&two_blobs());
        assert_eq!(knn.predict(&[0.05, 0.05]).label, 0);
        assert_eq!(knn.predict(&[4.9, 5.2]).label, 1);
    }

    #[test]
    fn k1_returns_nearest() {
        let mut knn = Knn::new(1, KnnMetric::Euclidean);
        knn.fit(&two_blobs());
        let p = knn.predict(&[5.1, 5.0]);
        assert_eq!(p.label, 1);
        assert!((p.score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vote_fraction_score() {
        let mut d = two_blobs();
        // One label-1 point close to the label-0 blob to create a 2/3 vote.
        d.push(&[0.05, 0.0], 1);
        let mut knn = Knn::new(3, KnnMetric::Euclidean);
        knn.fit(&d);
        let p = knn.predict(&[0.02, 0.02]);
        assert_eq!(p.label, 0);
        assert!((p.score - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_metric() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 0.0], 0);
        d.push(&[0.0, 1.0], 1);
        let mut knn = Knn::new(1, KnnMetric::Cosine);
        knn.fit(&d);
        assert_eq!(knn.predict(&[10.0, 0.5]).label, 0);
        assert_eq!(knn.predict(&[0.5, 10.0]).label, 1);
    }

    #[test]
    fn k_larger_than_train_is_clamped() {
        let mut knn = Knn::new(100, KnnMetric::Euclidean);
        knn.fit(&two_blobs());
        // All 6 points vote: tie 3-3, broken toward the closest point.
        assert_eq!(knn.predict(&[0.0, 0.0]).label, 0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = Knn::new(0, KnnMetric::Euclidean);
    }

    #[test]
    fn borrowed_view_matches_owned_fit() {
        // knn_predict over a gathered view must agree with the owned path
        // on every k (the refined-DA fast path relies on this identity).
        let d = two_blobs();
        let arena: Vec<f64> = (0..d.len()).flat_map(|i| d.sample(i).to_vec()).collect();
        let rows: Vec<u32> = (0..d.len() as u32).collect();
        let labels: Vec<usize> = (0..d.len()).map(|i| d.label(i)).collect();
        let view = DatasetView::gathered(&arena, 2, &rows, &labels);
        for k in 1..=7 {
            let mut knn = Knn::new(k, KnnMetric::Euclidean);
            knn.fit(&d);
            for x in [[0.05, 0.02], [5.0, 5.05], [2.5, 2.5]] {
                let owned = knn.predict(&x);
                let viewed = knn_predict(&view, k, KnnMetric::Euclidean, &x);
                assert_eq!(owned, viewed, "k={k} x={x:?}");
            }
        }
    }

    #[test]
    fn tied_vote_goes_to_the_closest_tied_class() {
        // Best-first labels [1, 0, 0, 1]: classes 0 and 1 tie at two votes,
        // and the closest neighbour's class wins.
        let scores = [0.9, 0.8, 0.7, 0.95, 0.1];
        let labels = [0, 0, 1, 1, 2];
        let p = knn_vote_scored(scores.into_iter(), |i| labels[i], 4);
        assert_eq!(p.label, 1);
        assert!((p.score - 0.5).abs() < 1e-12);
        // Best-first labels [2, 0, 0, 1, 1]: a class that reached the top
        // count beats a closer class that did not, and among the tied
        // classes 0 and 1 the one seen first wins.
        let scores = [0.8, 0.7, 0.6, 0.5, 0.9];
        let labels = [0, 0, 1, 1, 2];
        let p = knn_vote_scored(scores.into_iter(), |i| labels[i], 5);
        assert_eq!(p.label, 0);
        assert!((p.score - 0.4).abs() < 1e-12);
    }

    #[test]
    fn bounded_selection_matches_full_sort() {
        // Duplicated closeness values at the selection boundary: the heap
        // must keep the same neighbours (smallest indices) a stable
        // descending sort would.
        let mut d = Dataset::new(1);
        for (i, &v) in [0.0, 1.0, 1.0, 1.0, 1.0, 2.0].iter().enumerate() {
            d.push(&[v], i);
        }
        for k in 1..=6 {
            let got = knn_predict(&d, k, KnnMetric::Euclidean, &[1.0]);
            // Stable-sort reference.
            let mut scored: Vec<(f64, usize)> =
                (0..d.len()).map(|i| (-euclidean(&[1.0], d.sample(i)), d.label(i))).collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let top = &scored[..k];
            let mut votes = std::collections::HashMap::new();
            for &(_, l) in top {
                *votes.entry(l).or_insert(0usize) += 1;
            }
            let best = *votes.values().max().unwrap();
            let want = top.iter().find(|(_, l)| votes[l] == best).unwrap().1;
            assert_eq!(got.label, want, "k={k}");
        }
    }
}
