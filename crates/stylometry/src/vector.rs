//! Sparse feature vectors and per-user aggregation.
//!
//! A post exhibits only a small fraction of the `M` features (most
//! function words, misspellings and POS bigrams never occur), so vectors
//! are stored sparsely as sorted `(index, value)` pairs.
//!
//! At the user level, Section II-B defines the *attributes*: user `u` has
//! attribute `A_i` iff some post of `u` has feature `F_i ≠ 0`, with weight
//! `l_u(A_i)` = number of posts of `u` having the feature. That projection
//! is [`UserAttributes`]; the continuous per-user mean vector used by the
//! refined-DA classifiers is [`UserProfile`].

use crate::registry::M;

/// A sparse non-negative feature vector in the [`crate::registry`] space.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureVector {
    entries: Vec<(u32, f64)>,
}

impl FeatureVector {
    /// Build from a dense slice, keeping non-zero finite entries.
    ///
    /// # Panics
    /// Panics if `dense.len() != M`.
    #[must_use]
    pub fn from_dense(dense: Vec<f64>) -> Self {
        assert_eq!(dense.len(), M, "dense vector must have length M");
        let entries = dense
            .into_iter()
            .enumerate()
            .filter(|&(_, v)| v != 0.0 && v.is_finite())
            .map(|(i, v)| (i as u32, v))
            .collect();
        Self { entries }
    }

    /// Build directly from sorted non-zero `(index, value)` entries — the
    /// deserialization constructor (snapshot loading reconstructs vectors
    /// from persisted entry lists without densifying).
    ///
    /// # Errors
    /// Returns a description of the violated invariant when indices are
    /// not strictly increasing, an index is `>= M`, or a value is zero or
    /// non-finite — exactly the states [`FeatureVector::from_dense`] can
    /// never produce.
    pub fn try_from_sorted_entries(entries: Vec<(u32, f64)>) -> Result<Self, &'static str> {
        let mut prev = None;
        for &(i, v) in &entries {
            if prev.is_some_and(|p| i <= p) {
                return Err("feature indices must be strictly increasing");
            }
            if i as usize >= M {
                return Err("feature index out of registry range");
            }
            if v == 0.0 || !v.is_finite() {
                return Err("feature values must be non-zero and finite");
            }
            prev = Some(i);
        }
        Ok(Self { entries })
    }

    /// Value of feature `i` (0 when absent).
    #[must_use]
    pub fn get(&self, i: usize) -> f64 {
        self.entries
            .binary_search_by_key(&(i as u32), |&(j, _)| j)
            .map(|k| self.entries[k].1)
            .unwrap_or(0.0)
    }

    /// Iterate non-zero `(index, value)` pairs in increasing index order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.entries.iter().map(|&(i, v)| (i as usize, v))
    }

    /// Number of non-zero features.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Materialize as a dense vector of length `M`.
    #[must_use]
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; M];
        for &(i, v) in &self.entries {
            out[i as usize] = v;
        }
        out
    }

    /// Cosine similarity with another vector (0 if either is empty).
    #[must_use]
    pub fn cosine(&self, other: &FeatureVector) -> f64 {
        let mut dot = 0.0;
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.entries.len() && b < other.entries.len() {
            match self.entries[a].0.cmp(&other.entries[b].0) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    dot += self.entries[a].1 * other.entries[b].1;
                    a += 1;
                    b += 1;
                }
            }
        }
        let na: f64 = self.entries.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt();
        let nb: f64 = other.entries.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }
}

/// Per-user continuous profile: the mean of the user's post vectors.
#[derive(Debug, Clone, Default)]
pub struct UserProfile {
    sum: Vec<(u32, f64)>,
    n_posts: usize,
}

impl UserProfile {
    /// Empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one post's feature vector.
    pub fn add_post(&mut self, v: &FeatureVector) {
        self.n_posts += 1;
        // Merge two sorted lists.
        let mut merged = Vec::with_capacity(self.sum.len() + v.entries.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.sum.len() || b < v.entries.len() {
            match (self.sum.get(a), v.entries.get(b)) {
                (Some(&(i, x)), Some(&(j, y))) => match i.cmp(&j) {
                    std::cmp::Ordering::Less => {
                        merged.push((i, x));
                        a += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((j, y));
                        b += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((i, x + y));
                        a += 1;
                        b += 1;
                    }
                },
                (Some(&(i, x)), None) => {
                    merged.push((i, x));
                    a += 1;
                }
                (None, Some(&(j, y))) => {
                    merged.push((j, y));
                    b += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.sum = merged;
    }

    /// Number of posts aggregated.
    #[must_use]
    pub fn n_posts(&self) -> usize {
        self.n_posts
    }

    /// Mean feature vector over the aggregated posts.
    #[must_use]
    pub fn mean(&self) -> FeatureVector {
        if self.n_posts == 0 {
            return FeatureVector::default();
        }
        let n = self.n_posts as f64;
        FeatureVector { entries: self.sum.iter().map(|&(i, v)| (i, v / n)).collect() }
    }
}

/// Dense per-user aggregation: a user's [`UserAttributes`] and mean
/// profile, accumulated post by post in reusable `M`-wide count and sum
/// arrays, with a bitmap of the features touched.
///
/// [`Self::take`] equals [`UserAttributes::add_post`] and
/// [`UserProfile::add_post`] over the same posts in the same order, field
/// for field and bit for bit: each sum adds the same values in the same
/// order, the first add is `0.0 + x == x` (feature values are non-zero),
/// and counts saturate alike. It costs one array update per feature entry
/// instead of one merge of the user's whole running list per post.
#[derive(Debug, Clone)]
pub struct UserAccumulator {
    counts: Vec<u32>,
    sums: Vec<f64>,
    /// Bit `i` is set when feature `i` has a nonzero count.
    touched: Vec<u64>,
    n_posts: usize,
}

impl Default for UserAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl UserAccumulator {
    /// An accumulator holding no posts.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; M],
            sums: vec![0.0; M],
            touched: vec![0; M.div_ceil(64)],
            n_posts: 0,
        }
    }

    /// Add one post's feature vector to the current user.
    pub fn add_post(&mut self, v: &FeatureVector) {
        self.n_posts += 1;
        for &(i, x) in &v.entries {
            let k = i as usize;
            self.counts[k] = self.counts[k].saturating_add(1);
            self.sums[k] += x;
            self.touched[k / 64] |= 1 << (k % 64);
        }
    }

    /// The current user's attributes and mean profile (empty for a user
    /// with no posts), read off in index order from the touched bitmap,
    /// which also resets the accumulator for the next user.
    pub fn take(&mut self) -> (UserAttributes, FeatureVector) {
        let len = self.touched.iter().map(|w| w.count_ones() as usize).sum();
        let mut weights = Vec::with_capacity(len);
        let mut mean = Vec::with_capacity(len);
        let n = self.n_posts as f64;
        for (word_at, word) in self.touched.iter_mut().enumerate() {
            while *word != 0 {
                let k = word_at * 64 + word.trailing_zeros() as usize;
                weights.push((k as u32, self.counts[k]));
                mean.push((k as u32, self.sums[k] / n));
                self.counts[k] = 0;
                self.sums[k] = 0.0;
                *word &= *word - 1;
            }
        }
        self.n_posts = 0;
        (UserAttributes { weights }, FeatureVector { entries: mean })
    }
}

/// Per-user binary attributes with weights (Section II-B).
///
/// `weights[k] = (i, l_u(A_i))` where `l_u(A_i)` counts the user's posts
/// that exhibit feature `i`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UserAttributes {
    weights: Vec<(u32, u32)>,
}

impl UserAttributes {
    /// Empty attribute set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build directly from `(attribute index, l_u(A_i))` pairs — the
    /// posting-list constructor used by index builders and tests.
    ///
    /// # Panics
    /// Panics if the pairs are not strictly increasing by index or if any
    /// weight is zero (a zero-weight attribute is an absent attribute).
    #[must_use]
    pub fn from_weights(weights: Vec<(u32, u32)>) -> Self {
        assert!(
            weights.windows(2).all(|w| w[0].0 < w[1].0),
            "attribute indices must be strictly increasing"
        );
        assert!(weights.iter().all(|&(_, w)| w > 0), "attribute weights must be positive");
        Self { weights }
    }

    /// The raw sorted `(attribute index, l_u(A_i))` slice — the
    /// posting-friendly view used by inverted-index builders.
    #[must_use]
    pub fn as_weights(&self) -> &[(u32, u32)] {
        &self.weights
    }

    /// Sum of all attribute weights `Σ_i l_u(A_i)` (the `WA(u)` mass).
    /// Together with an intersection min-sum this reconstructs the
    /// weighted-Jaccard union exactly: `union = Σ_u + Σ_v - Σ min`.
    #[must_use]
    pub fn weight_sum(&self) -> u64 {
        self.weights.iter().map(|&(_, w)| u64::from(w)).sum()
    }

    /// Record one post: every non-zero feature contributes 1 to its
    /// attribute weight.
    pub fn add_post(&mut self, v: &FeatureVector) {
        let mut merged = Vec::with_capacity(self.weights.len() + v.entries.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.weights.len() || b < v.entries.len() {
            match (self.weights.get(a), v.entries.get(b)) {
                (Some(&(i, w)), Some(&(j, _))) => match i.cmp(&j) {
                    std::cmp::Ordering::Less => {
                        merged.push((i, w));
                        a += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((j, 1));
                        b += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((i, w.saturating_add(1)));
                        a += 1;
                        b += 1;
                    }
                },
                (Some(&(i, w)), None) => {
                    merged.push((i, w));
                    a += 1;
                }
                (None, Some(&(j, _))) => {
                    merged.push((j, 1));
                    b += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.weights = merged;
    }

    /// `true` if the user has attribute `i`.
    #[must_use]
    pub fn has(&self, i: usize) -> bool {
        self.weights.binary_search_by_key(&(i as u32), |&(j, _)| j).is_ok()
    }

    /// Number of attributes (`|A(u)|`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if the user has no attributes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Iterate `(attribute index, l_u(A_i))` in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.weights.iter().map(|&(i, w)| (i as usize, w))
    }

    /// Jaccard similarity `|A(u) ∩ A(v)| / |A(u) ∪ A(v)|` (0 when both
    /// empty).
    #[must_use]
    pub fn jaccard(&self, other: &UserAttributes) -> f64 {
        let (mut inter, mut union) = (0usize, 0usize);
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.weights.len() || b < other.weights.len() {
            match (self.weights.get(a), other.weights.get(b)) {
                (Some(&(i, _)), Some(&(j, _))) => match i.cmp(&j) {
                    std::cmp::Ordering::Less => {
                        union += 1;
                        a += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        union += 1;
                        b += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        inter += 1;
                        union += 1;
                        a += 1;
                        b += 1;
                    }
                },
                (Some(_), None) => {
                    union += self.weights.len() - a;
                    break;
                }
                (None, Some(_)) => {
                    union += other.weights.len() - b;
                    break;
                }
                (None, None) => unreachable!(),
            }
        }
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Weighted Jaccard `|WA(u) ∩ WA(v)| / |WA(u) ∪ WA(v)|` with
    /// min-weights on the intersection and max-weights on the union
    /// (Section III-B's `s^a` second term). 0 when both empty.
    #[must_use]
    pub fn weighted_jaccard(&self, other: &UserAttributes) -> f64 {
        let (mut inter, mut union) = (0u64, 0u64);
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.weights.len() || b < other.weights.len() {
            match (self.weights.get(a), other.weights.get(b)) {
                (Some(&(i, x)), Some(&(j, y))) => match i.cmp(&j) {
                    std::cmp::Ordering::Less => {
                        union += u64::from(x);
                        a += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        union += u64::from(y);
                        b += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        inter += u64::from(x.min(y));
                        union += u64::from(x.max(y));
                        a += 1;
                        b += 1;
                    }
                },
                (Some(&(_, x)), None) => {
                    union += u64::from(x);
                    a += 1;
                }
                (None, Some(&(_, y))) => {
                    union += u64::from(y);
                    b += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;

    fn fv(pairs: &[(usize, f64)]) -> FeatureVector {
        let mut dense = vec![0.0; M];
        for &(i, v) in pairs {
            dense[i] = v;
        }
        FeatureVector::from_dense(dense)
    }

    #[test]
    fn sparse_roundtrip() {
        let v = fv(&[(3, 1.5), (100, 2.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(3), 1.5);
        assert_eq!(v.get(4), 0.0);
        let d = v.to_dense();
        assert_eq!(d.len(), M);
        assert_eq!(d[100], 2.0);
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let v = extract("the doctor prescribed the medicine");
        assert!((v.cosine(&v) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_disjoint_is_zero() {
        let a = fv(&[(1, 1.0)]);
        let b = fv(&[(2, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(a.cosine(&FeatureVector::default()), 0.0);
    }

    #[test]
    fn profile_mean() {
        let mut p = UserProfile::new();
        p.add_post(&fv(&[(0, 2.0), (5, 4.0)]));
        p.add_post(&fv(&[(0, 4.0)]));
        let m = p.mean();
        assert_eq!(p.n_posts(), 2);
        assert_eq!(m.get(0), 3.0);
        assert_eq!(m.get(5), 2.0);
    }

    #[test]
    fn accumulator_matches_merges_and_resets() {
        let posts = [fv(&[(0, 2.0), (5, 4.0)]), fv(&[(0, 0.1), (7, 1.0)]), fv(&[(5, 0.2)])];
        let mut acc = UserAccumulator::new();
        for round in 0..2 {
            let (mut attrs, mut profile) = (UserAttributes::new(), UserProfile::new());
            for v in &posts[round..] {
                acc.add_post(v);
                attrs.add_post(v);
                profile.add_post(v);
            }
            let (got_attrs, got_mean) = acc.take();
            assert_eq!(got_attrs, attrs, "round {round}");
            let bits = |v: &FeatureVector| -> Vec<(usize, u64)> {
                v.iter_nonzero().map(|(i, x)| (i, x.to_bits())).collect()
            };
            assert_eq!(bits(&got_mean), bits(&profile.mean()), "round {round}");
        }
        let (attrs, mean) = acc.take();
        assert!(attrs.is_empty() && mean.nnz() == 0, "a user with no posts is empty");
    }

    #[test]
    fn empty_profile_mean_is_empty() {
        assert_eq!(UserProfile::new().mean().nnz(), 0);
    }

    #[test]
    fn attribute_weights_count_posts() {
        let mut a = UserAttributes::new();
        a.add_post(&fv(&[(1, 0.5), (2, 0.1)]));
        a.add_post(&fv(&[(1, 9.0)]));
        assert!(a.has(1) && a.has(2) && !a.has(3));
        let w: Vec<(usize, u32)> = a.iter().collect();
        assert_eq!(w, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn jaccard_values() {
        let mut a = UserAttributes::new();
        a.add_post(&fv(&[(1, 1.0), (2, 1.0)]));
        let mut b = UserAttributes::new();
        b.add_post(&fv(&[(2, 1.0), (3, 1.0)]));
        assert!((a.jaccard(&b) - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
        assert_eq!(UserAttributes::new().jaccard(&UserAttributes::new()), 0.0);
    }

    #[test]
    fn weighted_jaccard_uses_min_max() {
        let mut a = UserAttributes::new();
        // attr 1 weight 2 (two posts), attr 2 weight 1.
        a.add_post(&fv(&[(1, 1.0), (2, 1.0)]));
        a.add_post(&fv(&[(1, 1.0)]));
        let mut b = UserAttributes::new();
        // attr 1 weight 1, attr 3 weight 1.
        b.add_post(&fv(&[(1, 1.0), (3, 1.0)]));
        // inter = min(2,1) = 1; union = max(2,1) + 1 + 1 = 4.
        assert!((a.weighted_jaccard(&b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weighted_jaccard_bounded_by_one() {
        let mut a = UserAttributes::new();
        a.add_post(&fv(&[(1, 1.0)]));
        assert!((a.weighted_jaccard(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_both_empty_is_zero() {
        let e = UserAttributes::new();
        assert_eq!(e.jaccard(&e), 0.0);
        assert_eq!(e.weighted_jaccard(&e), 0.0);
    }

    #[test]
    fn jaccard_one_empty_is_zero() {
        let mut a = UserAttributes::new();
        a.add_post(&fv(&[(1, 1.0), (7, 2.0)]));
        let e = UserAttributes::new();
        assert_eq!(a.jaccard(&e), 0.0);
        assert_eq!(e.jaccard(&a), 0.0);
        assert_eq!(a.weighted_jaccard(&e), 0.0);
        assert_eq!(e.weighted_jaccard(&a), 0.0);
    }

    #[test]
    fn jaccard_disjoint_is_zero() {
        let a = UserAttributes::from_weights(vec![(1, 2), (3, 1)]);
        let b = UserAttributes::from_weights(vec![(2, 5), (4, 1)]);
        assert_eq!(a.jaccard(&b), 0.0);
        assert_eq!(a.weighted_jaccard(&b), 0.0);
    }

    #[test]
    fn jaccard_identical_is_one() {
        let a = UserAttributes::from_weights(vec![(0, 3), (9, 7), (100, 1)]);
        assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
        assert!((a.weighted_jaccard(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn saturating_weights_do_not_overflow() {
        // A weight already at u32::MAX stays there when another post adds
        // the same attribute, and weighted Jaccard stays finite in [0, 1]
        // (sums run in u64, so even saturated weights cannot overflow).
        let mut a = UserAttributes::from_weights(vec![(1, u32::MAX)]);
        a.add_post(&fv(&[(1, 1.0)]));
        assert_eq!(a.as_weights(), &[(1, u32::MAX)]);
        let b = UserAttributes::from_weights(vec![(1, 1), (2, u32::MAX)]);
        let wj = a.weighted_jaccard(&b);
        assert!(wj.is_finite() && (0.0..=1.0).contains(&wj));
        assert_eq!(a.weight_sum(), u64::from(u32::MAX));
        assert_eq!(b.weight_sum(), u64::from(u32::MAX) + 1);
    }

    #[test]
    fn posting_view_matches_iter() {
        let mut a = UserAttributes::new();
        a.add_post(&fv(&[(2, 1.0), (5, 1.0)]));
        a.add_post(&fv(&[(5, 3.0)]));
        let from_iter: Vec<(u32, u32)> = a.iter().map(|(i, w)| (i as u32, w)).collect();
        assert_eq!(a.as_weights(), from_iter.as_slice());
        assert_eq!(a.weight_sum(), 3);
        assert_eq!(a, UserAttributes::from_weights(vec![(2, 1), (5, 2)]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_weights_rejects_unsorted() {
        let _ = UserAttributes::from_weights(vec![(3, 1), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn from_weights_rejects_zero_weight() {
        let _ = UserAttributes::from_weights(vec![(1, 0)]);
    }
}
