//! The simulated forum: users, threads, posts, and paper-calibrated
//! presets.
//!
//! Substitute for the paper's crawled WebMD (89,393 users, 506K posts,
//! mean 127.59 words/post, 87.3% of users < 5 posts) and HealthBoards
//! (388,398 users, 4.7M posts, mean 147.24 words/post, 75.4% of users < 5
//! posts) corpora. Post counts follow a truncated discrete power law,
//! thread participation follows a recency-biased preferential process, and
//! post text is persona-generated — reproducing the marginals the paper
//! publishes (Figs. 1, 2, 7, 8) with controllable scale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generator::generate_post;
use crate::persona::Persona;
use crate::vocab;

/// One post: author, thread, and generated text.
#[derive(Debug, Clone)]
pub struct Post {
    /// Author user id (`0..n_users`).
    pub author: usize,
    /// Thread id (`0..n_threads`).
    pub thread: usize,
    /// Post text.
    pub text: String,
}

/// Simulator parameters.
#[derive(Debug, Clone)]
pub struct ForumConfig {
    /// Number of registered users.
    pub n_users: usize,
    /// Number of boards (HealthBoards has "more than 200 message boards").
    pub n_boards: usize,
    /// Fraction of users in the low-activity component (1-4 posts); the
    /// paper reports 87.3% of WebMD and 75.4% of HealthBoards users with
    /// < 5 posts.
    pub low_posts_p: f64,
    /// Power-law exponent of the high-activity tail (5..=max posts).
    pub posts_alpha: f64,
    /// Cap on posts per user (Fig. 1's x-axis extends to 500).
    pub max_posts: usize,
    /// Forum-wide mean post length in words.
    pub mean_post_words: f64,
    /// Probability a post starts a new thread instead of joining one.
    pub new_thread_p: f64,
    /// How many recent threads per board are candidates for joining.
    pub thread_window: usize,
    /// Persona distinctiveness in `[0, 1]`.
    pub style_strength: f64,
    /// When set, every user gets exactly this many posts instead of a
    /// power-law draw (the refined-DA evaluations use 50 users with 20 or
    /// 40 posts each).
    pub fixed_posts: Option<usize>,
}

impl ForumConfig {
    /// WebMD-calibrated marginals at a chosen scale.
    #[must_use]
    pub fn webmd_like(n_users: usize) -> Self {
        Self {
            n_users,
            n_boards: 60,
            low_posts_p: 0.873,
            posts_alpha: 1.75,
            max_posts: 500,
            mean_post_words: 127.59,
            new_thread_p: 0.35,
            thread_window: 8,
            style_strength: 0.9,
            fixed_posts: None,
        }
    }

    /// HealthBoards-calibrated marginals at a chosen scale: more boards,
    /// more posts per user (mean 12.06 vs 5.66), longer posts.
    #[must_use]
    pub fn healthboards_like(n_users: usize) -> Self {
        Self {
            n_users,
            n_boards: 200,
            low_posts_p: 0.754,
            posts_alpha: 1.67,
            max_posts: 800,
            mean_post_words: 147.24,
            new_thread_p: 0.3,
            thread_window: 10,
            style_strength: 0.9,
            fixed_posts: None,
        }
    }

    /// A 60-user forum for doctests and fast unit tests.
    #[must_use]
    pub fn tiny() -> Self {
        let mut c = Self::webmd_like(60);
        c.mean_post_words = 60.0;
        c
    }
}

/// A simulated health forum.
#[derive(Debug, Clone)]
pub struct Forum {
    /// Number of users.
    pub n_users: usize,
    /// Number of threads.
    pub n_threads: usize,
    /// All posts in generation order.
    pub posts: Vec<Post>,
    /// Board of each thread.
    pub thread_board: Vec<usize>,
    /// Topic word of each thread.
    pub thread_topic: Vec<&'static str>,
    post_index: Vec<Vec<usize>>,
}

/// Phase-1 output: everything about a post except its text.
struct PostPlan {
    author: usize,
    thread: usize,
    /// Seed of the private RNG that renders this post's text. Drawn from
    /// the sequential structure stream, so the text of post `i` depends
    /// only on `(seed, i)` — never on which worker thread renders it.
    text_seed: u64,
}

impl Forum {
    /// Generate a forum from `config` with a fixed `seed`.
    ///
    /// Text rendering is spread over the available cores; the output is
    /// byte-identical regardless of thread count (see
    /// [`Forum::generate_with_threads`]).
    ///
    /// # Panics
    /// Panics if `config.n_users == 0` or `config.n_boards == 0`.
    #[must_use]
    pub fn generate(config: &ForumConfig, seed: u64) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::generate_with_threads(config, seed, threads)
    }

    /// Generate a forum using up to `n_threads` worker threads for post
    /// text.
    ///
    /// Generation is two-phase: phase 1 runs the *structure* process
    /// (personas, post budgets, board preferences, the global event
    /// shuffle, and the sequential thread process) on one seeded RNG and
    /// assigns each post a private text seed; phase 2 renders each post's
    /// text from its own `StdRng` seeded with that value. Because no text
    /// draw touches the shared stream, the corpus is byte-identical for
    /// any `n_threads`.
    ///
    /// # Panics
    /// Panics if `config.n_users == 0` or `config.n_boards == 0`.
    #[must_use]
    pub fn generate_with_threads(config: &ForumConfig, seed: u64, n_threads: usize) -> Self {
        assert!(config.n_users > 0, "need at least one user");
        assert!(config.n_boards > 0, "need at least one board");
        let mut rng = StdRng::seed_from_u64(seed);

        // 1. Personas and per-user post budgets.
        let personas: Vec<Persona> = (0..config.n_users)
            .map(|_| Persona::sample(&mut rng, config.mean_post_words, config.style_strength))
            .collect();
        let budgets: Vec<usize> = (0..config.n_users)
            .map(|_| match config.fixed_posts {
                Some(k) => k.max(1),
                None => sample_post_count(
                    &mut rng,
                    config.low_posts_p,
                    config.posts_alpha,
                    config.max_posts,
                ),
            })
            .collect();

        // 2. Per-user preferred boards (1-3).
        let prefs: Vec<Vec<usize>> = (0..config.n_users)
            .map(|_| {
                let k = rng.gen_range(1..=3usize);
                (0..k).map(|_| rng.gen_range(0..config.n_boards)).collect()
            })
            .collect();

        // 3. Global posting order: a shuffled multiset of user events.
        let mut events: Vec<usize> =
            budgets.iter().enumerate().flat_map(|(u, &b)| std::iter::repeat_n(u, b)).collect();
        shuffle(&mut rng, &mut events);

        // 4. Sequential thread process: per board keep a sliding window of
        //    recent threads; posting either opens a thread or joins one.
        let mut thread_board: Vec<usize> = Vec::new();
        let mut thread_topic: Vec<&'static str> = Vec::new();
        let mut recent: Vec<Vec<usize>> = vec![Vec::new(); config.n_boards];
        let mut plans: Vec<PostPlan> = Vec::with_capacity(events.len());
        for &user in &events {
            let board = prefs[user][rng.gen_range(0..prefs[user].len())];
            let window = &recent[board];
            let thread = if window.is_empty() || rng.gen::<f64>() < config.new_thread_p {
                let t = thread_board.len();
                thread_board.push(board);
                let bank = vocab::NOUN_BANKS[rng.gen_range(0..vocab::NOUN_BANKS.len())];
                thread_topic.push(bank[rng.gen_range(0..bank.len())]);
                recent[board].push(t);
                if recent[board].len() > config.thread_window {
                    recent[board].remove(0);
                }
                t
            } else {
                // Recency-biased choice: newest threads twice as likely.
                let k = window.len();
                let pick = if rng.gen::<f64>() < 0.5 {
                    rng.gen_range(k.saturating_sub(3)..k)
                } else {
                    rng.gen_range(0..k)
                };
                window[pick]
            };
            plans.push(PostPlan { author: user, thread, text_seed: rng.gen::<u64>() });
        }

        // 5. Render post text. Each post has its own RNG, so chunks can be
        //    rendered on any number of threads without changing a byte.
        let posts = render_posts(&plans, &personas, &thread_topic, n_threads);

        let mut post_index = vec![Vec::new(); config.n_users];
        for (i, p) in posts.iter().enumerate() {
            post_index[p.author].push(i);
        }
        Self {
            n_users: config.n_users,
            n_threads: thread_board.len(),
            posts,
            thread_board,
            thread_topic,
            post_index,
        }
    }

    /// Build a forum directly from posts (used by dataset splits).
    #[must_use]
    pub fn from_posts(n_users: usize, n_threads: usize, posts: Vec<Post>) -> Self {
        let mut post_index = vec![Vec::new(); n_users];
        for (i, p) in posts.iter().enumerate() {
            assert!(p.author < n_users && p.thread < n_threads, "post references out of range");
            post_index[p.author].push(i);
        }
        Self {
            n_users,
            n_threads,
            posts,
            thread_board: Vec::new(),
            thread_topic: Vec::new(),
            post_index,
        }
    }

    /// Append a disjoint cohort: `chunk`'s users and threads take the ids
    /// after this forum's, and its posts follow this forum's posts. The
    /// result equals [`Forum::from_posts`] over the merged posts, field
    /// for field; like it, the merged forum carries no per-thread
    /// metadata (`thread_board` and `thread_topic` end up empty).
    pub fn append(&mut self, chunk: Forum) {
        let (user_offset, thread_offset) = (self.n_users, self.n_threads);
        let post_offset = self.posts.len();
        self.posts.extend(chunk.posts.into_iter().map(|p| Post {
            author: p.author + user_offset,
            thread: p.thread + thread_offset,
            text: p.text,
        }));
        self.post_index.extend(chunk.post_index.into_iter().map(|mut ids| {
            for i in &mut ids {
                *i += post_offset;
            }
            ids
        }));
        self.n_users += chunk.n_users;
        self.n_threads += chunk.n_threads;
        self.thread_board.clear();
        self.thread_topic.clear();
    }

    /// Indices into [`Forum::posts`] of user `u`'s posts.
    #[must_use]
    pub fn user_posts(&self, u: usize) -> &[usize] {
        &self.post_index[u]
    }

    /// Number of posts of user `u`.
    #[must_use]
    pub fn post_count(&self, u: usize) -> usize {
        self.post_index[u].len()
    }

    /// CDF of users by post count (Fig. 1): fraction of users with at most
    /// `k` posts, for each distinct `k`.
    #[must_use]
    pub fn posts_per_user_cdf(&self) -> Vec<(usize, f64)> {
        let mut counts: Vec<usize> = (0..self.n_users).map(|u| self.post_count(u)).collect();
        counts.sort_unstable();
        let n = counts.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let k = counts[i];
            let mut j = i;
            while j < n && counts[j] == k {
                j += 1;
            }
            out.push((k, j as f64 / n as f64));
            i = j;
        }
        out
    }

    /// Histogram of post lengths in words (Fig. 2): `(bucket_words,
    /// fraction_of_posts)` with bucket width `bucket`.
    #[must_use]
    pub fn post_length_histogram(&self, bucket: usize) -> Vec<(usize, f64)> {
        assert!(bucket > 0, "bucket width must be positive");
        let mut hist: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
        for p in &self.posts {
            let words = p.text.split_whitespace().count();
            *hist.entry(words / bucket * bucket).or_insert(0) += 1;
        }
        let total = self.posts.len().max(1) as f64;
        hist.into_iter().map(|(k, c)| (k, c as f64 / total)).collect()
    }

    /// Mean post length in words.
    #[must_use]
    pub fn mean_post_words(&self) -> f64 {
        if self.posts.is_empty() {
            return 0.0;
        }
        let total: usize = self.posts.iter().map(|p| p.text.split_whitespace().count()).sum();
        total as f64 / self.posts.len() as f64
    }

    /// Fraction of users with fewer than `k` posts (the paper reports 87.3%
    /// for k=5 on WebMD and 75.4% on HealthBoards).
    #[must_use]
    pub fn fraction_users_below(&self, k: usize) -> f64 {
        let below = (0..self.n_users).filter(|&u| self.post_count(u) < k).count();
        below as f64 / self.n_users as f64
    }
}

/// Render post text for every plan, splitting the work across up to
/// `n_threads` scoped threads. Each post is rendered from its own
/// `StdRng::seed_from_u64(plan.text_seed)`, so the result is independent
/// of the chunking.
fn render_posts(
    plans: &[PostPlan],
    personas: &[Persona],
    thread_topic: &[&'static str],
    n_threads: usize,
) -> Vec<Post> {
    let render = |plan: &PostPlan| -> Post {
        let mut rng = StdRng::seed_from_u64(plan.text_seed);
        let text = generate_post(&mut rng, &personas[plan.author], thread_topic[plan.thread]);
        Post { author: plan.author, thread: plan.thread, text }
    };
    let n_threads = n_threads.clamp(1, plans.len().max(1));
    if n_threads == 1 {
        return plans.iter().map(render).collect();
    }
    let chunk = plans.len().div_ceil(n_threads);
    let mut parts: Vec<Vec<Post>> = Vec::with_capacity(n_threads);
    std::thread::scope(|s| {
        let render = &render;
        let handles: Vec<_> = plans
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(render).collect::<Vec<Post>>()))
            .collect();
        for h in handles {
            parts.push(h.join().expect("post rendering panicked"));
        }
    });
    parts.concat()
}

/// Posts-per-user sampler: a two-component mixture matching the paper's
/// joint marginals (fraction of < 5-post users *and* the overall mean).
/// With probability `low_p` the user is low-activity (1-4 posts, pmf ∝
/// k^-1.5); otherwise the count comes from a truncated power-law tail on
/// `5..=max` with exponent `alpha`.
fn sample_post_count(rng: &mut StdRng, low_p: f64, alpha: f64, max: usize) -> usize {
    if rng.gen::<f64>() < low_p {
        // pmf ∝ k^-1.5 on {1, 2, 3, 4}.
        const W: [f64; 4] = [1.0, 0.353_553, 0.192_450, 0.125];
        let total: f64 = W.iter().sum();
        let mut r = rng.gen::<f64>() * total;
        for (i, w) in W.iter().enumerate() {
            r -= w;
            if r <= 0.0 {
                return i + 1;
            }
        }
        4
    } else {
        sample_power_law_range(rng, alpha, 5.0, max.max(5) as f64)
    }
}

/// Truncated power law on `[lo, hi]`: `P(x) ∝ x^-alpha`, via inverse-CDF
/// sampling on the continuous relaxation.
fn sample_power_law_range(rng: &mut StdRng, alpha: f64, lo: f64, hi: f64) -> usize {
    debug_assert!(alpha > 1.0, "alpha must exceed 1");
    let u: f64 = rng.gen::<f64>().max(1e-12);
    let one_m_a = 1.0 - alpha;
    let x = (lo.powf(one_m_a) + u * (hi.powf(one_m_a) - lo.powf(one_m_a))).powf(1.0 / one_m_a);
    (x as usize).clamp(lo as usize, hi as usize)
}

/// Fisher-Yates shuffle with the crate's RNG (keeps `rand` usage seedable).
fn shuffle<T>(rng: &mut StdRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_forum() -> Forum {
        Forum::generate(&ForumConfig::tiny(), 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Forum::generate(&ForumConfig::tiny(), 1);
        let b = Forum::generate(&ForumConfig::tiny(), 1);
        assert_eq!(a.posts.len(), b.posts.len());
        assert_eq!(a.posts[0].text, b.posts[0].text);
        let c = Forum::generate(&ForumConfig::tiny(), 2);
        assert!(a.posts.len() != c.posts.len() || a.posts[0].text != c.posts[0].text);
    }

    #[test]
    fn generation_is_thread_count_invariant() {
        let cfg = ForumConfig::tiny();
        let base = Forum::generate_with_threads(&cfg, 9, 1);
        for threads in [2, 3, 8] {
            let alt = Forum::generate_with_threads(&cfg, 9, threads);
            assert_eq!(base.n_threads, alt.n_threads);
            assert_eq!(base.posts.len(), alt.posts.len());
            for (a, b) in base.posts.iter().zip(&alt.posts) {
                assert_eq!(a.author, b.author);
                assert_eq!(a.thread, b.thread);
                assert_eq!(a.text, b.text);
            }
        }
    }

    #[test]
    fn every_user_has_at_least_one_post() {
        let f = small_forum();
        assert!((0..f.n_users).all(|u| f.post_count(u) >= 1));
    }

    #[test]
    fn post_index_consistent() {
        let f = small_forum();
        for u in 0..f.n_users {
            for &i in f.user_posts(u) {
                assert_eq!(f.posts[i].author, u);
            }
        }
        let total: usize = (0..f.n_users).map(|u| f.post_count(u)).sum();
        assert_eq!(total, f.posts.len());
    }

    #[test]
    fn threads_are_referenced_consistently() {
        let f = small_forum();
        assert!(f.posts.iter().all(|p| p.thread < f.n_threads));
        assert_eq!(f.thread_board.len(), f.n_threads);
        assert_eq!(f.thread_topic.len(), f.n_threads);
    }

    #[test]
    fn posts_per_user_is_heavy_tailed() {
        let f = Forum::generate(&ForumConfig::webmd_like(2000), 7);
        // The paper reports 87.3% of WebMD users with < 5 posts; the
        // simulator should land in a broad band around that.
        let frac = f.fraction_users_below(5);
        assert!(frac > 0.7 && frac < 0.95, "fraction below 5 = {frac}");
        // And somebody should have many posts.
        let max = (0..f.n_users).map(|u| f.post_count(u)).max().unwrap();
        assert!(max >= 20, "max posts = {max}");
    }

    #[test]
    fn healthboards_has_more_posts_per_user_than_webmd() {
        let w = Forum::generate(&ForumConfig::webmd_like(1500), 3);
        let h = Forum::generate(&ForumConfig::healthboards_like(1500), 3);
        let mean = |f: &Forum| f.posts.len() as f64 / f.n_users as f64;
        assert!(mean(&h) > mean(&w));
    }

    #[test]
    fn mean_post_length_near_target() {
        let f = Forum::generate(&ForumConfig::webmd_like(300), 11);
        let m = f.mean_post_words();
        assert!(m > 60.0 && m < 260.0, "mean post words = {m}");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let f = small_forum();
        let cdf = f.posts_per_user_cdf();
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_fractions_sum_to_one() {
        let f = small_forum();
        let h = f.post_length_histogram(25);
        let sum: f64 = h.iter().map(|&(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn post_count_sampler_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let k = sample_post_count(&mut rng, 0.873, 1.75, 500);
            assert!((1..=500).contains(&k));
        }
    }

    #[test]
    fn post_count_marginals_match_paper() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 50_000;
        let xs: Vec<usize> =
            (0..n).map(|_| sample_post_count(&mut rng, 0.873, 1.75, 500)).collect();
        let mean = xs.iter().sum::<usize>() as f64 / n as f64;
        let below5 = xs.iter().filter(|&&k| k < 5).count() as f64 / n as f64;
        // Paper: WebMD mean 5.66 posts/user, 87.3% below 5 posts.
        assert!((mean - 5.66).abs() < 1.0, "mean = {mean}");
        assert!((below5 - 0.873).abs() < 0.02, "below5 = {below5}");
    }

    #[test]
    fn append_matches_from_posts_over_the_merged_posts() {
        let f = small_forum();
        let cut = f.posts.len() / 2;
        let head = Forum::from_posts(f.n_users, f.n_threads, f.posts[..cut].to_vec());
        let tail = Forum::from_posts(f.n_users + 2, f.n_threads + 1, f.posts[cut..].to_vec());
        let mut merged_posts = head.posts.clone();
        merged_posts.extend(tail.posts.iter().map(|p| Post {
            author: p.author + f.n_users,
            thread: p.thread + f.n_threads,
            text: p.text.clone(),
        }));
        let want = Forum::from_posts(2 * f.n_users + 2, 2 * f.n_threads + 1, merged_posts);

        // A base with thread metadata: the merged forum drops it.
        let mut got = head;
        got.thread_board = f.thread_board.clone();
        got.thread_topic = f.thread_topic.clone();
        got.append(tail);
        assert_eq!((got.n_users, got.n_threads), (want.n_users, want.n_threads));
        assert!(got.thread_board.is_empty() && got.thread_topic.is_empty());
        let triple = |p: &Post| (p.author, p.thread, p.text.clone());
        assert!(got.posts.iter().map(triple).eq(want.posts.iter().map(triple)));
        for u in 0..want.n_users {
            assert_eq!(got.user_posts(u), want.user_posts(u), "user {u}");
        }
    }

    #[test]
    fn from_posts_roundtrip() {
        let f = small_forum();
        let g = Forum::from_posts(f.n_users, f.n_threads, f.posts.clone());
        assert_eq!(g.posts.len(), f.posts.len());
        assert_eq!(g.post_count(0), f.post_count(0));
    }
}
