//! Gradient-boosted decision-tree forests (the LightGBM stand-in).
//!
//! The paper's LightGBM workload scores a large feature table against a
//! trained model. We reproduce the data-parallel inference path: a
//! [`Forest`] of binary decision trees evaluated row-by-row, summing leaf
//! values across trees. Training is out of scope (the paper only measures
//! inference over stored data), so forests are constructed directly —
//! typically pseudo-randomly by the workload generator.

use crate::canonical::CanonicalSink;
use crate::error::{LangError, Result};
use std::fmt;
use std::sync::Arc;

/// One node of a decision tree in array form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeNode {
    /// Feature column this node splits on.
    pub feature: u32,
    /// Split threshold: `x[feature] < threshold` goes left.
    pub threshold: f64,
    /// Index of the left child, or `u32::MAX` for a leaf.
    pub left: u32,
    /// Index of the right child, or `u32::MAX` for a leaf.
    pub right: u32,
    /// Leaf value (only meaningful when this is a leaf).
    pub value: f64,
}

impl TreeNode {
    /// Sentinel child index marking a leaf.
    pub const LEAF: u32 = u32::MAX;

    /// Whether this node is a leaf.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.left == Self::LEAF && self.right == Self::LEAF
    }

    /// Constructs a leaf.
    #[must_use]
    pub fn leaf(value: f64) -> Self {
        TreeNode {
            feature: 0,
            threshold: 0.0,
            left: Self::LEAF,
            right: Self::LEAF,
            value,
        }
    }

    /// Constructs an internal split node.
    #[must_use]
    pub fn split(feature: u32, threshold: f64, left: u32, right: u32) -> Self {
        TreeNode {
            feature,
            threshold,
            left,
            right,
            value: 0.0,
        }
    }
}

/// One binary decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    nodes: Vec<TreeNode>,
}

impl Tree {
    /// Builds a tree; node 0 is the root.
    ///
    /// # Errors
    ///
    /// Returns an error if the tree is empty or any child index is out of
    /// bounds / not strictly forward (which would allow cycles).
    pub fn new(nodes: Vec<TreeNode>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(LangError::runtime("a tree needs at least one node"));
        }
        for (i, n) in nodes.iter().enumerate() {
            if !n.is_leaf() {
                for child in [n.left, n.right] {
                    if child == TreeNode::LEAF {
                        return Err(LangError::runtime(format!(
                            "node {i} mixes leaf and split children"
                        )));
                    }
                    let child = child as usize;
                    if child >= nodes.len() || child <= i {
                        return Err(LangError::runtime(format!(
                            "node {i} has invalid child {child}"
                        )));
                    }
                }
            }
        }
        Ok(Tree { nodes })
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never true for a constructed tree).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Scores one feature row, returning the reached leaf's value and the
    /// number of nodes visited.
    ///
    /// Missing features (index beyond the row) read as `0.0`.
    #[must_use]
    pub fn score(&self, features: &[f64]) -> (f64, u32) {
        let mut idx = 0usize;
        let mut visited = 0u32;
        loop {
            let node = &self.nodes[idx];
            visited += 1;
            if node.is_leaf() {
                return (node.value, visited);
            }
            let x = features.get(node.feature as usize).copied().unwrap_or(0.0);
            idx = if x < node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// The nodes in array form (node 0 is the root). Exposed for
    /// serialization; rebuild with [`Tree::new`] so validation reruns.
    #[must_use]
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Maximum root-to-leaf depth.
    #[must_use]
    pub fn depth(&self) -> u32 {
        // Children sit strictly after their parent (`Tree::new`), so one
        // pass from the last node back has both children's depths before
        // it needs them — no recursion, however long the longest path.
        let mut depth = vec![1u32; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate().rev() {
            if !n.is_leaf() {
                depth[i] = 1 + depth[n.left as usize].max(depth[n.right as usize]);
            }
        }
        depth[0]
    }
}

/// An additive ensemble of trees.
#[derive(Debug, Clone, PartialEq)]
pub struct Forest {
    trees: Arc<Vec<Tree>>,
    features: u32,
}

impl Forest {
    /// Builds a forest over `features` feature columns.
    ///
    /// # Errors
    ///
    /// Returns an error if `trees` is empty.
    pub fn new(trees: Vec<Tree>, features: u32) -> Result<Self> {
        if trees.is_empty() {
            return Err(LangError::runtime("a forest needs at least one tree"));
        }
        Ok(Forest {
            trees: Arc::new(trees),
            features,
        })
    }

    /// Number of trees.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Number of feature columns the model expects.
    #[must_use]
    pub fn feature_count(&self) -> u32 {
        self.features
    }

    /// The ensemble's trees. Exposed for serialization; rebuild with
    /// [`Forest::new`] so validation reruns.
    #[must_use]
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Total node count across all trees.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.trees.iter().map(Tree::len).sum()
    }

    /// Mean tree depth (used for analytic per-row cost).
    #[must_use]
    pub fn mean_depth(&self) -> f64 {
        let total: u32 = self.trees.iter().map(Tree::depth).sum();
        f64::from(total) / self.trees.len() as f64
    }

    /// The forest's part of [`crate::Value::canonical`]: feature count,
    /// then every tree's nodes field by field.
    pub(crate) fn canonical(&self, sink: &mut impl CanonicalSink) {
        sink.u32(self.features);
        sink.len(self.trees.len());
        for tree in self.trees.iter() {
            sink.len(tree.nodes.len());
            for n in &tree.nodes {
                sink.u32(n.feature);
                sink.f64(n.threshold);
                sink.u32(n.left);
                sink.u32(n.right);
                sink.f64(n.value);
            }
        }
    }

    /// Model size in bytes (each node: 4 + 8 + 4 + 4 + 8).
    #[must_use]
    pub fn virtual_bytes(&self) -> u64 {
        self.node_count() as u64 * 28
    }

    /// Scores one feature row: the sum of all trees' leaf values, plus
    /// total nodes visited.
    #[must_use]
    pub fn score(&self, features: &[f64]) -> (f64, u32) {
        let mut acc = 0.0;
        let mut visited = 0;
        for t in self.trees.iter() {
            let (v, n) = t.score(features);
            acc += v;
            visited += n;
        }
        (acc, visited)
    }
}

impl fmt::Display for Forest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "forest[{} trees, {} nodes]",
            self.tree_count(),
            self.node_count()
        )
    }
}

/// One node of a [`FlatForest`], 24 bytes.
#[derive(Clone, Copy)]
struct FlatNode {
    /// A split's threshold; a leaf's value.
    value: f64,
    /// The matrix column a split reads. A leaf reads column 0 and ignores
    /// it.
    feature: u32,
    /// 1 for a split, 0 for a leaf: what a step taken here adds to the
    /// visit count.
    is_split: u32,
    /// Where a step goes next, as indices into the forest-wide node array:
    /// `child[usize::from(x < threshold)]`, so `[right, left]`. A leaf
    /// names itself.
    child: [u32; 2],
}

/// A [`Forest`] laid out for `forest_score` over one matrix: every tree's
/// nodes in one array, the next node picked by index instead of by branch,
/// so that several rows can walk a tree in lock step.
pub(crate) struct FlatForest {
    /// Width of the rows this layout scores.
    cols: usize,
    nodes: Vec<FlatNode>,
    /// Per tree, in forest order: the root's index in `nodes`, and the
    /// steps that bring any row from it to a leaf (`depth - 1`).
    trees: Vec<(u32, u32)>,
}

impl FlatForest {
    /// Rows that walk a tree together. Each row's walk is a chain of
    /// dependent loads; eight chains in flight hide each other's latency.
    const LANES: usize = 8;

    /// Flattens `forest` for scoring rows of `cols` features.
    ///
    /// A split on a feature at or past `cols` reads `0.0` whatever the row
    /// ([`Tree::score`]), so its outcome is settled here: both children
    /// become the side `0.0 < threshold` picks, and the walk never looks
    /// outside a row.
    pub(crate) fn new(forest: &Forest, cols: usize) -> Self {
        assert!(
            u32::try_from(forest.node_count()).is_ok(),
            "a flat forest indexes its nodes with u32"
        );
        let mut nodes = Vec::with_capacity(forest.node_count());
        let mut trees = Vec::with_capacity(forest.tree_count());
        for tree in forest.trees() {
            let root = nodes.len() as u32;
            trees.push((root, tree.depth() - 1));
            for n in tree.nodes() {
                nodes.push(if n.is_leaf() {
                    let this = nodes.len() as u32;
                    FlatNode {
                        value: n.value,
                        feature: 0,
                        is_split: 0,
                        child: [this, this],
                    }
                } else if (n.feature as usize) < cols {
                    FlatNode {
                        value: n.threshold,
                        feature: n.feature,
                        is_split: 1,
                        child: [root + n.right, root + n.left],
                    }
                } else {
                    let taken = root + if 0.0 < n.threshold { n.left } else { n.right };
                    FlatNode {
                        value: n.threshold,
                        feature: 0,
                        is_split: 1,
                        child: [taken, taken],
                    }
                });
            }
        }
        FlatForest { cols, nodes, trees }
    }

    /// Scores rows `rows` of the row-major `data`: per row the sum of every
    /// tree's leaf value, trees in forest order ([`Forest::score`]'s sum),
    /// and the nodes visited over all of them.
    pub(crate) fn score_rows(&self, data: &[f64], rows: std::ops::Range<usize>) -> (Vec<f64>, u64) {
        // A row of no columns still reads column 0 at a leaf or a settled
        // split (and ignores it): give every such row the same one cell.
        let data = if self.cols == 0 { &[0.0][..] } else { data };
        let mut scores = Vec::with_capacity(rows.len());
        // Every (row, tree) pair ends on one leaf; the walk counts splits.
        let mut visited = rows.len() as u64 * self.trees.len() as u64;
        let mut first = rows.start;
        while first + Self::LANES <= rows.end {
            visited += self.score_block::<{ Self::LANES }>(data, first, &mut scores);
            first += Self::LANES;
        }
        for row in first..rows.end {
            visited += self.score_block::<1>(data, row, &mut scores);
        }
        (scores, visited)
    }

    /// Walks rows `first..first + L` through every tree in lock step,
    /// pushes their scores and returns the splits they passed.
    fn score_block<const L: usize>(
        &self,
        data: &[f64],
        first: usize,
        scores: &mut Vec<f64>,
    ) -> u64 {
        let base: [usize; L] = std::array::from_fn(|lane| (first + lane) * self.cols);
        let mut acc = [0.0; L];
        let mut splits = [0u64; L];
        for (root, steps) in &self.trees {
            let mut at = [*root as usize; L];
            // A lane that reaches its leaf early stays on it: a leaf's
            // children are itself and it counts no split.
            for _ in 0..*steps {
                for lane in 0..L {
                    let node = &self.nodes[at[lane]];
                    let x = data[base[lane] + node.feature as usize];
                    splits[lane] += u64::from(node.is_split);
                    at[lane] = node.child[usize::from(x < node.value)] as usize;
                }
            }
            for lane in 0..L {
                acc[lane] += self.nodes[at[lane]].value;
            }
        }
        scores.extend_from_slice(&acc);
        splits.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::{call, weights, Storage};
    use crate::matrix::Matrix;
    use crate::value::Value;

    fn stump(feature: u32, threshold: f64, lo: f64, hi: f64) -> Tree {
        Tree::new(vec![
            TreeNode::split(feature, threshold, 1, 2),
            TreeNode::leaf(lo),
            TreeNode::leaf(hi),
        ])
        .expect("stump")
    }

    #[test]
    fn stump_scores_both_sides() {
        let t = stump(0, 0.5, -1.0, 1.0);
        assert_eq!(t.score(&[0.2]).0, -1.0);
        assert_eq!(t.score(&[0.7]).0, 1.0);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn forest_sums_trees() {
        let f = Forest::new(vec![stump(0, 0.5, -1.0, 1.0), stump(1, 10.0, 5.0, 7.0)], 2)
            .expect("forest");
        let (score, visited) = f.score(&[0.9, 3.0]);
        assert_eq!(score, 1.0 + 5.0);
        assert_eq!(visited, 4);
        assert_eq!(f.node_count(), 6);
        assert!((f.mean_depth() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn missing_feature_reads_zero() {
        let t = stump(5, 0.5, -1.0, 1.0);
        // Feature 5 is absent => 0.0 < 0.5 => left.
        assert_eq!(t.score(&[9.0]).0, -1.0);
    }

    #[test]
    fn invalid_children_rejected() {
        // Child pointing backwards (cycle risk).
        let e = Tree::new(vec![TreeNode::split(0, 0.5, 0, 1), TreeNode::leaf(1.0)]);
        assert!(e.is_err());
        // Child out of range.
        let e = Tree::new(vec![TreeNode::split(0, 0.5, 1, 9)]);
        assert!(e.is_err());
        // Empty forest.
        assert!(Forest::new(vec![], 1).is_err());
    }

    #[test]
    fn a_long_spine_needs_no_deep_stack() {
        // 100 000 splits down the left, a leaf off each: valid for
        // `Tree::new`, and what a warm file may hold.
        const SPLITS: u32 = 100_000;
        let walk = || {
            let mut nodes = Vec::new();
            for link in 0..SPLITS {
                nodes.push(TreeNode::split(0, 0.5, 2 * link + 2, 2 * link + 1));
                nodes.push(TreeNode::leaf(-1.0));
            }
            nodes.push(TreeNode::leaf(7.0));
            let tree = Tree::new(nodes).expect("strictly forward children");
            assert_eq!(tree.len(), 200_001);
            assert_eq!(tree.depth(), SPLITS + 1);
            let forest = Value::Forest(Forest::new(vec![tree], 1).expect("forest"));
            // One row that goes left all the way down.
            let feats = Value::Matrix(Matrix::new(vec![0.0], 1, 1).expect("feats"));
            let out = call("forest_score", &[forest, feats], &Storage::new()).expect("score");
            assert_eq!(out.value.as_array().expect("scores").data(), &[7.0]);
            assert_eq!(out.ops, weights::TREE_NODE * u64::from(SPLITS + 1));
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(walk)
            .expect("spawn")
            .join()
            .expect("no overflow");
    }

    #[test]
    fn virtual_bytes_counts_nodes() {
        let f = Forest::new(vec![stump(0, 0.5, 0.0, 1.0)], 1).expect("forest");
        assert_eq!(f.virtual_bytes(), 3 * 28);
    }
}
