//! A single regression tree of the boosted ensemble.
//!
//! A tree is one array of 16-byte [`Node`]s, root first. A node is four
//! words: a tag, an `f32` threshold and two `u32` child indices. The tag of
//! a split holds its feature, with the default direction in the high bit;
//! the tag of a leaf is a marker, and the leaf keeps the bits of its `f64`
//! value in the two child words, so a leaf's value (the sign of `−0.0`
//! included) survives exactly.

use crate::dataset::EMPTY_FOLD;
use serde::{Deserialize, Serialize};

/// The tag of a leaf.
const LEAF: u32 = u32::MAX;
/// The tag bit of a split that sends missing values left.
const DEFAULT_LEFT: u32 = 1 << 31;

/// One node of a [`Tree`]: a split or a leaf, in 16 bytes.
///
/// A split routes a row left when `row[feature] < threshold`, right when
/// the value is greater or equal, and by its learned default direction
/// when the value is missing (`NaN`). A leaf contributes its value to the
/// boosting margin.
///
/// `Debug` prints a split as `Split { feature, threshold, default_left,
/// left, right }` and a leaf as `Leaf { value }`, so a model's debug text
/// (and any digest of it) does not depend on the packed layout.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The feature, with [`DEFAULT_LEFT`] set for a split whose missing
    /// values go left, or [`LEAF`].
    tag: u32,
    /// The split threshold (`0.0` for a leaf).
    threshold: f32,
    /// The left child, or the low 32 bits of a leaf's value.
    left: u32,
    /// The right child, or the high 32 bits of a leaf's value.
    right: u32,
}

impl Node {
    /// A split on `feature`; its children are set once they are grown.
    pub(crate) fn split(feature: usize, threshold: f32, default_left: bool) -> Node {
        let feature = u32::try_from(feature)
            .ok()
            .filter(|&f| f < DEFAULT_LEFT - 1)
            .expect("feature index fits in 31 bits");
        Node {
            tag: feature | if default_left { DEFAULT_LEFT } else { 0 },
            threshold,
            left: 0,
            right: 0,
        }
    }

    /// A leaf contributing `value`, kept bit for bit.
    pub(crate) fn leaf(value: f64) -> Node {
        let bits = value.to_bits();
        Node {
            tag: LEAF,
            threshold: 0.0,
            left: bits as u32,
            right: (bits >> 32) as u32,
        }
    }

    /// True for a leaf.
    pub fn is_leaf(&self) -> bool {
        self.tag == LEAF
    }

    /// A leaf's value, or `None` for a split.
    pub fn leaf_value(&self) -> Option<f64> {
        self.is_leaf().then(|| self.value())
    }

    /// A split's feature, threshold and default direction (`true` = missing
    /// values go left), or `None` for a leaf.
    pub fn split_rule(&self) -> Option<(usize, f32, bool)> {
        (!self.is_leaf()).then_some((
            (self.tag & !DEFAULT_LEFT) as usize,
            self.threshold,
            self.tag & DEFAULT_LEFT != 0,
        ))
    }

    /// A split's left and right child indices, or `None` for a leaf.
    pub fn children(&self) -> Option<(usize, usize)> {
        (!self.is_leaf()).then_some((self.left as usize, self.right as usize))
    }

    /// A leaf's value, from its two child words.
    fn value(&self) -> f64 {
        f64::from_bits(u64::from(self.left) | u64::from(self.right) << 32)
    }

    /// The child a split sends `row` to: left below the threshold, right at
    /// or above it, the default side when the value is missing.
    fn next(&self, row: &[f32]) -> usize {
        let v = row[(self.tag & !DEFAULT_LEFT) as usize];
        let go_left = (v < self.threshold) | (v.is_nan() & (self.tag & DEFAULT_LEFT != 0));
        if go_left {
            self.left as usize
        } else {
            self.right as usize
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.split_rule() {
            Some((feature, threshold, default_left)) => f
                .debug_struct("Split")
                .field("feature", &feature)
                .field("threshold", &threshold)
                .field("default_left", &default_left)
                .field("left", &(self.left as usize))
                .field("right", &(self.right as usize))
                .finish(),
            None => f
                .debug_struct("Leaf")
                .field("value", &self.value())
                .finish(),
        }
    }
}

/// A regression tree mapping a feature row to a margin contribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
    /// Total split gain contributed by each feature (importance bookkeeping).
    feature_gain: Vec<f64>,
}

impl Tree {
    /// An empty tree skeleton for `n_features` columns. The trainer pushes
    /// nodes; node 0 becomes the root.
    pub(crate) fn new(n_features: usize) -> Self {
        Tree {
            nodes: Vec::new(),
            feature_gain: vec![0.0; n_features],
        }
    }

    pub(crate) fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    pub(crate) fn set_children(&mut self, idx: usize, l: usize, r: usize) {
        let node = &mut self.nodes[idx];
        assert!(!node.is_leaf(), "set_children called on a leaf");
        node.left = u32::try_from(l).expect("node index fits in 32 bits");
        node.right = u32::try_from(r).expect("node index fits in 32 bits");
    }

    pub(crate) fn record_gain(&mut self, feature: usize, gain: f64) {
        self.feature_gain[feature] += gain;
    }

    /// The margin contribution of this tree for one feature row.
    pub fn predict(&self, row: &[f32]) -> f64 {
        let mut node = &self.nodes[0];
        while !node.is_leaf() {
            node = &self.nodes[node.next(row)];
        }
        node.value()
    }

    /// Number of nodes (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum root-to-leaf depth (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize) -> usize {
            match nodes[idx].children() {
                None => 0,
                Some((l, r)) => 1 + walk(nodes, l).max(walk(nodes, r)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Per-feature total split gain accumulated while growing this tree.
    pub fn feature_gain(&self) -> &[f64] {
        &self.feature_gain
    }

    /// Approximate in-memory footprint in bytes (for the §7.7 overheads
    /// experiment).
    pub fn approx_memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.feature_gain.len() * std::mem::size_of::<f64>()
    }

    /// Read-only access to the node array (diagnostics and tests).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

/// How many trees [`fold`] walks in lockstep.
const LANES: usize = 4;

/// The sum of every tree's output on `row`, added in tree order from
/// [`EMPTY_FOLD`]: bit for bit what `Iterator::sum` makes of each
/// [`Tree::predict`] in turn.
///
/// Trees are walked [`LANES`] at a time, one level of each per step, so
/// the node loads of independent trees overlap instead of waiting on one
/// another; their outputs are still added one by one, in tree order.
pub(crate) fn fold(trees: &[Tree], row: &[f32]) -> f64 {
    let mut sum = EMPTY_FOLD;
    let mut groups = trees.chunks_exact(LANES);
    for group in &mut groups {
        let mut at: [&Node; LANES] = std::array::from_fn(|k| &group[k].nodes[0]);
        loop {
            let mut walking = false;
            for (node, tree) in at.iter_mut().zip(group) {
                if !node.is_leaf() {
                    *node = &tree.nodes[node.next(row)];
                    walking = true;
                }
            }
            if !walking {
                break;
            }
        }
        for node in at {
            sum += node.value();
        }
    }
    for tree in groups.remainder() {
        sum += tree.predict(row);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-build:   root: x0 < 0.5 (missing -> left)
    ///               left: leaf(-1.0)   right: x1 < 2.0 (missing -> right)
    ///                                  rl: leaf(0.5)   rr: leaf(2.0)
    fn sample_tree() -> Tree {
        let mut t = Tree::new(2);
        let root = t.push(Node::split(0, 0.5, true));
        let l = t.push(Node::leaf(-1.0));
        let r = t.push(Node::split(1, 2.0, false));
        let rl = t.push(Node::leaf(0.5));
        let rr = t.push(Node::leaf(2.0));
        t.set_children(root, l, r);
        t.set_children(r, rl, rr);
        t
    }

    #[test]
    fn prediction_routing() {
        let t = sample_tree();
        assert_eq!(t.predict(&[0.0, 9.9]), -1.0);
        assert_eq!(t.predict(&[1.0, 1.0]), 0.5);
        assert_eq!(t.predict(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn missing_values_follow_default_direction() {
        let t = sample_tree();
        // Root default is left.
        assert_eq!(t.predict(&[f32::NAN, 0.0]), -1.0);
        // Inner node default is right.
        assert_eq!(t.predict(&[1.0, f32::NAN]), 2.0);
    }

    #[test]
    fn shape_statistics() {
        let t = sample_tree();
        assert_eq!(t.n_nodes(), 5);
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.depth(), 2);
        assert_eq!(std::mem::size_of::<Node>(), 16);
        assert_eq!(t.approx_memory_bytes(), 5 * 16 + 2 * 8);
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = Tree::new(1);
        t.push(Node::leaf(0.25));
        assert_eq!(t.predict(&[123.0]), 0.25);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn nodes_read_back_what_they_were_built_from() {
        let t = sample_tree();
        let n = t.nodes();
        assert_eq!(n[0].split_rule(), Some((0, 0.5, true)));
        assert_eq!(n[0].children(), Some((1, 2)));
        assert_eq!(n[2].split_rule(), Some((1, 2.0, false)));
        assert_eq!(n[1].leaf_value(), Some(-1.0));
        assert_eq!((n[1].split_rule(), n[1].children()), (None, None));
        assert_eq!(n[0].leaf_value(), None);
        let widest = Node::split((1 << 31) - 2, 1.0, true);
        assert_eq!(widest.split_rule(), Some(((1 << 31) - 2, 1.0, true)));
    }

    #[test]
    fn debug_text_names_splits_and_leaves() {
        let t = sample_tree();
        assert_eq!(
            format!("{:?}", t.nodes()[0]),
            "Split { feature: 0, threshold: 0.5, default_left: true, left: 1, right: 2 }"
        );
        assert_eq!(format!("{:?}", t.nodes()[3]), "Leaf { value: 0.5 }");
        assert_eq!(format!("{:?}", Node::leaf(-0.0)), "Leaf { value: -0.0 }");
    }

    #[test]
    fn leaves_keep_every_bit_of_their_value() {
        for value in [-0.0, 0.0, f64::MIN_POSITIVE, -1e300, 0.1 + 0.2, f64::MAX] {
            let mut t = Tree::new(1);
            t.push(Node::leaf(value));
            assert_eq!(t.predict(&[0.0]).to_bits(), value.to_bits(), "{value}");
            assert_eq!(
                t.nodes()[0].leaf_value().map(f64::to_bits),
                Some(value.to_bits())
            );
        }
    }

    /// A chain of `depth` splits on `x0` at 0.5, 0.25, ...: a row at or
    /// above the level-`k` threshold (or missing) leaves at a leaf of
    /// `value · k`, one below them all at `value · depth`.
    fn chain(depth: usize, value: f64) -> Tree {
        let mut t = Tree::new(1);
        let mut threshold = 1.0f32;
        for level in 0..depth {
            threshold /= 2.0;
            let split = t.push(Node::split(0, threshold, false));
            let leaf = t.push(Node::leaf(value * level as f64));
            t.set_children(split, split + 2, leaf);
        }
        t.push(Node::leaf(value * depth as f64));
        t
    }

    #[test]
    fn lockstep_fold_adds_in_tree_order() {
        // Trees of mixed depths, so lanes reach their leaves at different
        // steps, and outputs whose sum depends on the order they are added
        // in; every ensemble size from 0 to 9 runs the remainder path.
        let trees: Vec<Tree> = (0..9)
            .map(|i| {
                chain(
                    [0, 7, 1, 3, 0, 5, 2, 6, 4][i],
                    [1e16, 1.0, -1e16, 3.0][i % 4],
                )
            })
            .collect();
        for n in 0..=trees.len() {
            for x in [0.9f32, 0.3, 0.01, 1e-9, f32::NAN] {
                let want: f64 = trees[..n].iter().map(|t| t.predict(&[x])).sum();
                let got = fold(&trees[..n], &[x]);
                assert_eq!(got.to_bits(), want.to_bits(), "{n} trees at {x}");
            }
        }
    }

    #[test]
    fn fold_of_negative_zero_leaves_stays_negative_zero() {
        let mut zero = Tree::new(1);
        zero.push(Node::leaf(-0.0));
        for n in [1, 4, 5, 8] {
            let trees = vec![zero.clone(); n];
            assert_eq!(fold(&trees, &[1.0]).to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn serde_keeps_the_node_words() {
        let t = sample_tree();
        let mut with_zero = t.clone();
        with_zero.nodes[1] = Node::leaf(-0.0);
        for tree in [t, with_zero] {
            let json = serde_json::to_string(&tree).expect("serialize");
            let back: Tree = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, tree);
        }
    }
}
