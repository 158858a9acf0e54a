//! Compact weighted undirected graph with the local correlation features of
//! Section II-B: degree `d_i`, weighted degree `wd_i = Σ_j w_ij`, and the
//! Neighborhood Correlation Strength (NCS) vector `D_i` (edge weights in
//! decreasing order).

/// A weighted undirected graph over nodes `0..n`.
///
/// Parallel `add_edge` calls accumulate weight on the same edge, matching
/// the paper's definition of `w_ij` as the number of co-discussed threads.
/// Self-loops are ignored.
///
/// ```
/// use dehealth_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1.0);
/// b.add_edge(0, 1, 1.0); // same thread pair again
/// b.add_edge(1, 2, 2.0);
/// let g = b.build();
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.edge_weight(0, 1), Some(2.0));
/// assert_eq!(g.ncs_vector(1), vec![2.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<(u32, f64)>>,
    n_edges: usize,
}

/// Incremental builder for [`Graph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    weights: std::collections::HashMap<(u32, u32), f64>,
    n: usize,
}

impl GraphBuilder {
    /// Create a builder for a graph with `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { weights: std::collections::HashMap::new(), n }
    }

    /// Add `weight` to the undirected edge `(a, b)`. Self-loops are ignored.
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize, weight: f64) {
        assert!(a < self.n && b < self.n, "edge ({a},{b}) out of range (n={})", self.n);
        if a == b {
            return;
        }
        let key = if a < b { (a as u32, b as u32) } else { (b as u32, a as u32) };
        *self.weights.entry(key).or_insert(0.0) += weight;
    }

    /// Finish building.
    #[must_use]
    pub fn build(self) -> Graph {
        let mut adj = vec![Vec::new(); self.n];
        let n_edges = self.weights.len();
        for (&(a, b), &w) in &self.weights {
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable_by_key(|&(v, _)| v);
        }
        Graph { adj, n_edges }
    }
}

impl Graph {
    /// An empty graph with `n` isolated nodes.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// Neighbors of `u` with edge weights, sorted by neighbor id.
    #[must_use]
    pub fn neighbors(&self, u: usize) -> &[(u32, f64)] {
        &self.adj[u]
    }

    /// Degree `d_u`.
    #[must_use]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Weighted degree `wd_u = Σ_{j∈N_u} w_uj`.
    #[must_use]
    pub fn weighted_degree(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|&(_, w)| w).sum()
    }

    /// NCS vector `D_u`: the multiset of incident edge weights in
    /// decreasing order (Section II-B).
    #[must_use]
    pub fn ncs_vector(&self, u: usize) -> Vec<f64> {
        let mut ws: Vec<f64> = self.adj[u].iter().map(|&(_, w)| w).collect();
        ws.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite weights"));
        ws
    }

    /// Edge weight between `a` and `b`, if the edge exists.
    #[must_use]
    pub fn edge_weight(&self, a: usize, b: usize) -> Option<f64> {
        self.adj[a].binary_search_by_key(&(b as u32), |&(v, _)| v).ok().map(|i| self.adj[a][i].1)
    }

    /// Append `other` as a disjoint block: its node `i` becomes node
    /// `node_count() + i`, its neighbour ids shift by the same offset, and
    /// its edges add to the edge count. No edge joins the two blocks, so
    /// the result equals a build of both edge sets over the union.
    ///
    /// # Panics
    /// Panics if the union has more than `u32::MAX` nodes.
    pub fn append(&mut self, other: Graph) {
        let offset = self.node_count();
        assert!(u32::try_from(offset + other.node_count()).is_ok(), "more than u32::MAX nodes");
        self.adj.extend(other.adj.into_iter().map(|mut nbrs| {
            for (v, _) in &mut nbrs {
                *v += offset as u32;
            }
            nbrs
        }));
        self.n_edges += other.n_edges;
    }

    /// Node ids sorted by decreasing degree (ties by id), truncated to `k`.
    /// This is the paper's landmark selection ("ħ users with the largest
    /// degrees ... sorted in the degree decreasing order").
    #[must_use]
    pub fn top_degree_nodes(&self, k: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.node_count()).collect();
        ids.sort_unstable_by(|&a, &b| self.degree(b).cmp(&self.degree(a)).then(a.cmp(&b)));
        ids.truncate(k);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(0, 2, 3.0);
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn weights_accumulate() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 1.0);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 0), Some(2.0));
    }

    #[test]
    fn self_loops_ignored() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 5.0);
        let g = b.build();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn weighted_degree_and_ncs() {
        let g = triangle();
        assert!((g.weighted_degree(0) - 4.0).abs() < 1e-12);
        assert_eq!(g.ncs_vector(0), vec![3.0, 1.0]);
        assert_eq!(g.ncs_vector(3), Vec::<f64>::new());
    }

    #[test]
    fn top_degree_nodes_ordering() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(0, 3, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        assert_eq!(g.top_degree_nodes(3), vec![0, 1, 2]);
        assert_eq!(g.top_degree_nodes(99).len(), 5);
    }

    #[test]
    fn disjoint_append_matches_a_build_over_the_union() {
        let mut head = GraphBuilder::new(3);
        head.add_edge(0, 2, 1.0);
        head.add_edge(1, 2, 2.0);
        let mut tail = GraphBuilder::new(4);
        tail.add_edge(0, 3, 1.0);
        tail.add_edge(3, 0, 1.0);
        tail.add_edge(1, 2, 5.0);
        let mut union = GraphBuilder::new(7);
        union.add_edge(0, 2, 1.0);
        union.add_edge(1, 2, 2.0);
        union.add_edge(3, 6, 2.0);
        union.add_edge(4, 5, 5.0);

        let mut appended = head.build();
        appended.append(tail.build());
        let union = union.build();
        assert_eq!(appended.node_count(), 7);
        assert_eq!(appended.edge_count(), union.edge_count());
        for u in 0..7 {
            assert_eq!(appended.neighbors(u), union.neighbors(u), "node {u}");
        }
        assert_eq!(appended.edge_weight(6, 3), Some(2.0));
        assert_eq!(appended.edge_weight(2, 3), None);

        // Appending to or from an empty graph changes nothing else.
        let mut empty = Graph::default();
        empty.append(appended.clone());
        empty.append(Graph::empty(2));
        assert_eq!(empty.node_count(), 9);
        assert_eq!(empty.edge_count(), union.edge_count());
        assert_eq!(empty.neighbors(6), union.neighbors(6));
        assert_eq!(empty.degree(8), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1.0);
    }
}
