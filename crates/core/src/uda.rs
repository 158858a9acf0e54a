//! The User-Data-Attribute (UDA) graph of Section II-B.
//!
//! A [`UdaGraph`] bundles, for one forum (auxiliary or anonymized):
//!
//! - the *correlation graph*: users are nodes, an edge `e_ij` with weight
//!   `w_ij` counts threads users `i` and `j` both posted in;
//! - the per-user *attributes* `A(u)` / `WA(u)`: binary projections of the
//!   Table-I stylometric features with post-count weights `l_u(A_i)`;
//! - the per-user mean stylometric profile (used by refined DA);
//! - landmark distance features `H_u(S)` and `WH_u(S)`.

use dehealth_corpus::{Forum, Post};
use dehealth_graph::{bfs_hops, dijkstra_weighted, Graph, GraphBuilder};
use dehealth_stylometry::{extract, FeatureVector, UserAccumulator, UserAttributes};

/// Posts each extraction thread gets at least: below that, starting a
/// thread costs more than it saves.
const POSTS_PER_THREAD: usize = 16;

/// Extract the Table-I features of every post over the machine's
/// available parallelism: [`extract_post_features_with_threads`] with
/// [`std::thread::available_parallelism`] threads.
#[must_use]
pub fn extract_post_features(forum: &Forum) -> Vec<FeatureVector> {
    let n_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    extract_post_features_with_threads(forum, n_threads)
}

/// Extract the Table-I features of every post, in post order, on up to
/// `n_threads` threads: one per 16 posts at most, the calling thread
/// included, each on a contiguous run of posts (scoped `std::thread`;
/// posts are independent and extraction dominates the attack's
/// preprocessing time). The result does not depend on the thread count.
#[must_use]
pub fn extract_post_features_with_threads(forum: &Forum, n_threads: usize) -> Vec<FeatureVector> {
    let n = forum.posts.len();
    let n_threads = n_threads.min(n / POSTS_PER_THREAD).max(1);
    fn features(posts: &[Post]) -> impl Iterator<Item = FeatureVector> + '_ {
        posts.iter().map(|p| extract(&p.text))
    }
    if n_threads == 1 {
        return features(&forum.posts).collect();
    }
    let mut chunks = forum.posts.chunks(n.div_ceil(n_threads));
    let first = chunks.next().expect("at least one post per thread");
    std::thread::scope(|scope| {
        let helpers: Vec<_> =
            chunks.map(|posts| scope.spawn(move || features(posts).collect::<Vec<_>>())).collect();
        let mut out = Vec::with_capacity(n);
        out.extend(features(first));
        for h in helpers {
            out.extend(h.join().expect("feature extraction worker panicked"));
        }
        out
    })
}

/// The UDA graph of one forum.
#[derive(Debug, Clone, Default)]
pub struct UdaGraph {
    /// Correlation graph over the forum's users.
    pub graph: Graph,
    /// Per-user binary attributes with weights (`A(u)`, `WA(u)`).
    pub attributes: Vec<UserAttributes>,
    /// Per-user mean stylometric vector.
    pub profiles: Vec<FeatureVector>,
    /// Per-user post count (0 = user absent from this dataset).
    pub post_counts: Vec<usize>,
}

impl UdaGraph {
    /// Build the UDA graph of `forum`: extract the Table-I features of
    /// every post, project attributes, and connect co-thread users.
    #[must_use]
    pub fn build(forum: &Forum) -> Self {
        Self::build_with_features(forum, &extract_post_features(forum))
    }

    /// Build the UDA graph from pre-extracted per-post features (parallel
    /// extraction via [`extract_post_features`]; `features` must be
    /// parallel to `forum.posts`).
    ///
    /// Each user's attributes and profile are aggregated densely: the
    /// user's posts ([`Forum::user_posts`], in post order) go through one
    /// reused [`UserAccumulator`], which equals merging them one by one
    /// into [`UserAttributes`] and a `UserProfile`, bit for bit.
    ///
    /// # Panics
    /// Panics if `features.len() != forum.posts.len()`.
    #[must_use]
    pub fn build_with_features(forum: &Forum, features: &[FeatureVector]) -> Self {
        assert_eq!(features.len(), forum.posts.len(), "features/posts mismatch");
        let n = forum.n_users;
        let mut acc = UserAccumulator::new();
        let mut attributes = Vec::with_capacity(n);
        let mut profiles = Vec::with_capacity(n);
        for u in 0..n {
            for &p in forum.user_posts(u) {
                acc.add_post(&features[p]);
            }
            let (attrs, profile) = acc.take();
            attributes.push(attrs);
            profiles.push(profile);
        }

        // Thread membership for the correlation graph.
        let mut thread_members: Vec<Vec<u32>> = vec![Vec::new(); forum.n_threads];
        for post in &forum.posts {
            let members = &mut thread_members[post.thread];
            if !members.contains(&(post.author as u32)) {
                members.push(post.author as u32);
            }
        }

        let mut builder = GraphBuilder::new(n);
        for members in &thread_members {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    builder.add_edge(a as usize, b as usize, 1.0);
                }
            }
        }

        Self {
            graph: builder.build(),
            attributes,
            profiles,
            post_counts: (0..n).map(|u| forum.post_count(u)).collect(),
        }
    }

    /// Append the UDA graph of a disjoint cohort: `other`'s user `i`
    /// becomes user `n_users() + i`, with its attributes, profile and post
    /// count, and its edges shifted by the same offset.
    ///
    /// A cohort that brings its own threads shares no edge with the users
    /// already here, and their attributes, profiles and post counts do not
    /// change. Each new user's posts arrive in the order a union build
    /// would merge them, and co-thread weights are sums of `1.0`, exact in
    /// any order. So appending the cohort's own graph equals
    /// [`UdaGraph::build_with_features`] over the union, bit for bit.
    pub fn append(&mut self, other: UdaGraph) {
        self.graph.append(other.graph);
        self.attributes.extend(other.attributes);
        self.profiles.extend(other.profiles);
        self.post_counts.extend(other.post_counts);
    }

    /// Number of users (including absent ones).
    #[must_use]
    pub fn n_users(&self) -> usize {
        self.post_counts.len()
    }

    /// Users that actually have posts in this dataset.
    #[must_use]
    pub fn present_users(&self) -> Vec<usize> {
        (0..self.n_users()).filter(|&u| self.post_counts[u] > 0).collect()
    }

    /// Landmark users: the `k` present users with the largest degrees,
    /// sorted by decreasing degree (Section III-B).
    #[must_use]
    pub fn landmarks(&self, k: usize) -> Vec<usize> {
        let mut ids = self.present_users();
        ids.sort_unstable_by(|&a, &b| {
            self.graph.degree(b).cmp(&self.graph.degree(a)).then(a.cmp(&b))
        });
        ids.truncate(k);
        ids
    }

    /// Landmark *closeness* features: for each user, `1/(1+h)` per landmark
    /// (hop distances) and `1/(1+wh)` (weighted distances), with 0 for
    /// unreachable pairs.
    ///
    /// The paper takes cosines of raw distance vectors; the correlation
    /// graphs here are heavily disconnected (Appendix B), so raw distances
    /// are mostly infinite. The monotone `1/(1+d)` transform keeps the
    /// cosine well-defined while preserving the ordering information.
    #[must_use]
    pub fn landmark_closeness(&self, landmarks: &[usize]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let n = self.n_users();
        let mut hops = vec![vec![0.0; landmarks.len()]; n];
        let mut weighted = vec![vec![0.0; landmarks.len()]; n];
        for (k, &lm) in landmarks.iter().enumerate() {
            let h = bfs_hops(&self.graph, lm);
            let w = dijkstra_weighted(&self.graph, lm);
            for u in 0..n {
                if h[u] != u32::MAX {
                    hops[u][k] = 1.0 / (1.0 + f64::from(h[u]));
                }
                if w[u].is_finite() {
                    weighted[u][k] = 1.0 / (1.0 + w[u]);
                }
            }
        }
        (hops, weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::{Forum, Post};

    fn forum_with_threads() -> Forum {
        // Users 0,1 share thread 0; users 1,2 share thread 1; user 3 alone.
        let posts = vec![
            Post { author: 0, thread: 0, text: "I have a headache.".into() },
            Post { author: 1, thread: 0, text: "me too, realy bad!".into() },
            Post { author: 1, thread: 1, text: "my doctor said rest".into() },
            Post { author: 2, thread: 1, text: "The doctor helped me with 20 mg".into() },
            Post { author: 3, thread: 2, text: "alone in here".into() },
        ];
        Forum::from_posts(4, 3, posts)
    }

    #[test]
    fn correlation_edges_from_cothreads() {
        let uda = UdaGraph::build(&forum_with_threads());
        assert_eq!(uda.graph.edge_weight(0, 1), Some(1.0));
        assert_eq!(uda.graph.edge_weight(1, 2), Some(1.0));
        assert_eq!(uda.graph.edge_weight(0, 2), None);
        assert_eq!(uda.graph.degree(3), 0);
    }

    #[test]
    fn repeated_cothreads_increase_weight() {
        let posts = vec![
            Post { author: 0, thread: 0, text: "a b".into() },
            Post { author: 1, thread: 0, text: "c d".into() },
            Post { author: 0, thread: 1, text: "e f".into() },
            Post { author: 1, thread: 1, text: "g h".into() },
        ];
        let uda = UdaGraph::build(&Forum::from_posts(2, 2, posts));
        assert_eq!(uda.graph.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn multiple_posts_same_thread_count_once() {
        let posts = vec![
            Post { author: 0, thread: 0, text: "a".into() },
            Post { author: 0, thread: 0, text: "b".into() },
            Post { author: 1, thread: 0, text: "c".into() },
        ];
        let uda = UdaGraph::build(&Forum::from_posts(2, 1, posts));
        assert_eq!(uda.graph.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn attributes_reflect_posts() {
        let uda = UdaGraph::build(&forum_with_threads());
        // User 1 used the misspelling "realy".
        assert!(!uda.attributes[1].is_empty());
        assert_eq!(uda.post_counts, vec![1, 2, 1, 1]);
        assert!(uda.profiles[0].nnz() > 0);
    }

    #[test]
    fn landmarks_prefer_high_degree() {
        let uda = UdaGraph::build(&forum_with_threads());
        let lms = uda.landmarks(2);
        assert_eq!(lms[0], 1); // degree 2
        assert_eq!(lms.len(), 2);
    }

    #[test]
    fn landmark_closeness_values() {
        let uda = UdaGraph::build(&forum_with_threads());
        let (hops, _) = uda.landmark_closeness(&[1]);
        assert!((hops[1][0] - 1.0).abs() < 1e-12); // self: 1/(1+0)
        assert!((hops[0][0] - 0.5).abs() < 1e-12); // one hop
        assert_eq!(hops[3][0], 0.0); // unreachable
    }

    /// The reference aggregation: every post merged into its author's
    /// running attribute and profile lists, in post order.
    fn merged_reference(
        forum: &Forum,
        features: &[FeatureVector],
    ) -> (Vec<UserAttributes>, Vec<FeatureVector>) {
        use dehealth_stylometry::UserProfile;
        let mut attributes = vec![UserAttributes::new(); forum.n_users];
        let mut profiles = vec![UserProfile::new(); forum.n_users];
        for (post, v) in forum.posts.iter().zip(features) {
            attributes[post.author].add_post(v);
            profiles[post.author].add_post(v);
        }
        (attributes, profiles.iter().map(UserProfile::mean).collect())
    }

    #[test]
    fn dense_aggregation_matches_merged_reference() {
        use dehealth_corpus::ForumConfig;
        let bits = |v: &FeatureVector| -> Vec<(usize, u64)> {
            v.iter_nonzero().map(|(i, x)| (i, x.to_bits())).collect()
        };
        for (name, config) in [
            ("tiny", ForumConfig::tiny()),
            ("webmd-like", ForumConfig::webmd_like(120)),
            ("hb-like", ForumConfig::healthboards_like(120)),
        ] {
            let generated = Forum::generate(&config, 23);
            // Five extra declared users with no posts.
            let forum =
                Forum::from_posts(generated.n_users + 5, generated.n_threads, generated.posts);
            let features = extract_post_features(&forum);
            let uda = UdaGraph::build_with_features(&forum, &features);
            let (attributes, profiles) = merged_reference(&forum, &features);
            assert_eq!(uda.n_users(), forum.n_users, "{name}");
            assert!(uda.post_counts.iter().filter(|&&c| c == 0).count() >= 5, "{name}");
            for u in 0..forum.n_users {
                assert_eq!(uda.attributes[u], attributes[u], "{name} user {u}: attributes");
                assert_eq!(bits(&uda.profiles[u]), bits(&profiles[u]), "{name} user {u}: profile");
                assert_eq!(uda.post_counts[u], forum.user_posts(u).len(), "{name} user {u}");
            }
        }
    }

    #[test]
    fn present_users_excludes_postless() {
        let posts = vec![Post { author: 2, thread: 0, text: "x".into() }];
        let uda = UdaGraph::build(&Forum::from_posts(4, 1, posts));
        assert_eq!(uda.present_users(), vec![2]);
    }

    #[test]
    fn extraction_is_independent_of_the_thread_count() {
        use dehealth_corpus::ForumConfig;
        let forum = Forum::generate(&ForumConfig::tiny(), 31);
        let serial: Vec<FeatureVector> = forum.posts.iter().map(|p| extract(&p.text)).collect();
        // Prefixes across the one-thread-per-16-posts steps, at thread
        // counts below, at and above what the posts allow.
        for n_posts in [0, 1, 15, 16, 31, 32, 33, 56, forum.posts.len()] {
            let prefix = Forum::from_posts(forum.n_users, forum.n_threads, {
                forum.posts[..n_posts.min(forum.posts.len())].to_vec()
            });
            for n_threads in [0, 1, 2, 3, 8] {
                let got = extract_post_features_with_threads(&prefix, n_threads);
                assert_eq!(
                    got,
                    serial[..prefix.posts.len()],
                    "{n_posts} posts, {n_threads} threads"
                );
            }
        }
        assert_eq!(extract_post_features(&forum), serial);
    }
}
