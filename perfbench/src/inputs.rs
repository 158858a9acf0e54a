//! Workload inputs: seeded generation helpers, the reproducibility digest
//! and the seeded sampler the output checks draw from.

use std::collections::BTreeSet;

use dehealth_corpus::snapshot::{encode_forum, fnv1a, SectionBuf};
use dehealth_corpus::{Forum, Post};

/// FNV-1a over the snapshot encoding of `forums`, in order — the same
/// fingerprint `repro scale` prints, so equal digests mean both sides of
/// a comparison attacked byte-identical inputs.
#[must_use]
pub fn digest(forums: &[&Forum]) -> u64 {
    let mut buf = SectionBuf::new();
    for forum in forums {
        encode_forum(forum, &mut buf);
    }
    fnv1a(&buf.into_bytes())
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `k` distinct seeded indices from `0..n`, ascending.
#[must_use]
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    let mut picked = BTreeSet::new();
    while picked.len() < k.min(n) {
        picked.insert((splitmix64(&mut state) % n as u64) as usize);
    }
    picked.into_iter().collect()
}

/// A forum made of whole users of `source`, renumbered `0..users.len()`
/// in the given order, with thread ids compacted to `0..t` in order of
/// first use (co-posting within the batch is kept).
#[must_use]
pub fn sub_forum(source: &Forum, users: &[usize]) -> Forum {
    let mut thread_ids: Vec<Option<usize>> = vec![None; source.n_threads];
    let mut n_threads = 0;
    let mut posts = Vec::new();
    for (local, &u) in users.iter().enumerate() {
        for &pi in source.user_posts(u) {
            let post = &source.posts[pi];
            let thread = *thread_ids[post.thread].get_or_insert_with(|| {
                n_threads += 1;
                n_threads - 1
            });
            posts.push(Post { author: local, thread, text: post.text.clone() });
        }
    }
    Forum::from_posts(users.len(), n_threads, posts)
}

/// Users of `source` taken in `order`, grouped into batches of at most
/// `max_posts` posts each until `n_batches` batches exist. Users with no
/// posts, or with more than `max_posts` posts, are never sent. With
/// `wrap` the order repeats once exhausted. Returns the user ids of each
/// batch.
///
/// # Panics
/// Panics if no user of `order` fits the post budget, or if `order` runs
/// out without `wrap`.
#[must_use]
pub fn post_budget_batches(
    source: &Forum,
    order: &[usize],
    max_posts: usize,
    n_batches: usize,
    wrap: bool,
) -> Vec<Vec<usize>> {
    let eligible: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&u| (1..=max_posts).contains(&source.post_count(u)))
        .collect();
    assert!(!eligible.is_empty(), "no user fits a {max_posts}-post request");
    let mut batches = Vec::with_capacity(n_batches);
    let mut current: Vec<usize> = Vec::new();
    let mut posts = 0;
    let mut next = 0;
    while batches.len() < n_batches {
        if next == eligible.len() {
            assert!(wrap, "source forum exhausted after {} batches", batches.len());
            next = 0;
        }
        let u = eligible[next];
        let n = source.post_count(u);
        if posts + n > max_posts {
            batches.push(std::mem::take(&mut current));
            posts = 0;
            continue;
        }
        current.push(u);
        posts += n;
        next += 1;
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::ForumConfig;

    #[test]
    fn batches_respect_the_post_budget_and_wrap() {
        let forum = Forum::generate(&ForumConfig::tiny(), 5);
        let order: Vec<usize> = (0..forum.n_users).rev().collect();
        let batches = post_budget_batches(&forum, &order, 12, 40, true);
        assert_eq!(
            batches[0][0],
            *order.iter().find(|&&u| (1..=12).contains(&forum.post_count(u))).unwrap()
        );
        assert_eq!(batches.len(), 40);
        for b in &batches {
            assert!(!b.is_empty());
            assert!(b.iter().map(|&u| forum.post_count(u)).sum::<usize>() <= 12);
        }
        let sub = sub_forum(&forum, &batches[0]);
        assert_eq!(sub.n_users, batches[0].len());
        assert_eq!(sub.posts.len(), batches[0].iter().map(|&u| forum.post_count(u)).sum::<usize>());
        assert!(sub.posts.iter().all(|p| p.thread < sub.n_threads));
    }

    #[test]
    fn digests_and_samples_are_seeded() {
        let a = Forum::generate(&ForumConfig::tiny(), 1);
        let b = Forum::generate(&ForumConfig::tiny(), 1);
        assert_eq!(digest(&[&a]), digest(&[&b]));
        assert_ne!(digest(&[&a]), digest(&[&a, &b]));
        assert_eq!(sample_indices(100, 5, 9), sample_indices(100, 5, 9));
        assert_eq!(sample_indices(3, 10, 9), vec![0, 1, 2]);
    }
}
