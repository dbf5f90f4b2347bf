//! The booster before its fold cache, kept as the oracle that the
//! incremental booster is compared against, node for node and bit for bit.
//!
//! Every boosting call here re-predicts the whole ensemble on every row to
//! rebuild the margins, every tree sorts every column again at its root,
//! every node allocates its own row and per-feature lists, and every new
//! tree is walked for every row to update the margins.

use crate::booster::Gbt;
use crate::dataset::Dataset;
use crate::objective;
use crate::params::GbtParams;
use crate::tree::{Node, Tree};

/// Trains a fresh ensemble of `params.rounds` trees.
pub(crate) fn train(data: &Dataset, params: &GbtParams) -> Gbt {
    let mut model = Gbt::untrained(params, data.n_features());
    boost(&mut model, data, params.rounds);
    model
}

/// Boosts `rounds` more trees onto `model`, starting from its margins.
pub(crate) fn train_continuation(model: &mut Gbt, data: &Dataset, rounds: usize) {
    assert_eq!(data.n_features(), model.n_features());
    boost(model, data, rounds);
}

fn boost(model: &mut Gbt, data: &Dataset, rounds: usize) {
    if data.is_empty() || rounds == 0 {
        return;
    }
    let n = data.n_rows();
    let mut margins: Vec<f64> = (0..n).map(|i| model.predict_margin(data.row(i))).collect();
    for _ in 0..rounds {
        let mut grad = Vec::with_capacity(n);
        let mut hess = Vec::with_capacity(n);
        for (i, &m) in margins.iter().enumerate() {
            grad.push(objective::grad(m, data.label(i) as f64));
            hess.push(objective::hess(m));
        }
        let tree = TreeBuilder::new(data, &grad, &hess, model.params()).build();
        for (i, m) in margins.iter_mut().enumerate() {
            *m += tree.predict(data.row(i));
        }
        model.push_tree(tree);
    }
}

/// Gradient statistics of a row set.
#[derive(Debug, Clone, Copy, Default)]
struct GradStats {
    g: f64,
    h: f64,
}

impl GradStats {
    fn add(&mut self, g: f64, h: f64) {
        self.g += g;
        self.h += h;
    }

    fn minus(self, other: GradStats) -> GradStats {
        GradStats {
            g: self.g - other.g,
            h: self.h - other.h,
        }
    }

    /// XGBoost's structure score `G² / (H + λ)`.
    fn score(self, lambda: f64) -> f64 {
        self.g * self.g / (self.h + lambda)
    }
}

/// The winning split of a node, if any.
#[derive(Debug, Clone, Copy)]
struct BestSplit {
    feature: usize,
    threshold: f32,
    default_left: bool,
    gain: f64,
}

/// Per-node training state: the node's rows plus, for every feature, the
/// node's non-missing rows sorted by that feature's value.
struct NodeData {
    rows: Vec<u32>,
    sorted: Vec<Vec<u32>>,
    stats: GradStats,
}

/// Grows a single tree against fixed gradient/hessian vectors.
pub(crate) struct TreeBuilder<'a> {
    data: &'a Dataset,
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a GbtParams,
    /// Workhorse buffer: which side each row of the *current* node takes.
    /// Safe to share across the recursion because siblings own disjoint rows
    /// and every node writes its rows before reading them.
    goes_left: Vec<bool>,
}

impl<'a> TreeBuilder<'a> {
    pub(crate) fn new(
        data: &'a Dataset,
        grad: &'a [f64],
        hess: &'a [f64],
        params: &'a GbtParams,
    ) -> Self {
        debug_assert_eq!(data.n_rows(), grad.len());
        debug_assert_eq!(data.n_rows(), hess.len());
        TreeBuilder {
            data,
            grad,
            hess,
            params,
            goes_left: vec![false; data.n_rows()],
        }
    }

    /// Builds the tree. An empty dataset yields a single zero leaf.
    pub(crate) fn build(mut self) -> Tree {
        let n = self.data.n_rows();
        let f = self.data.n_features();
        let mut tree = Tree::new(f);
        if n == 0 {
            tree.push(Node::Leaf { value: 0.0 });
            return tree;
        }

        let rows: Vec<u32> = (0..n as u32).collect();
        let mut stats = GradStats::default();
        for i in 0..n {
            stats.add(self.grad[i], self.hess[i]);
        }
        let sorted = (0..f)
            .map(|feat| {
                let mut list: Vec<u32> = rows
                    .iter()
                    .copied()
                    .filter(|&r| !self.data.value(r as usize, feat).is_nan())
                    .collect();
                // Sort by value with the row index as a deterministic
                // tie-break (values are never NaN here).
                list.sort_by(|&a, &b| {
                    let va = self.data.value(a as usize, feat);
                    let vb = self.data.value(b as usize, feat);
                    va.partial_cmp(&vb).expect("non-NaN values").then(a.cmp(&b))
                });
                list
            })
            .collect();

        let root = NodeData {
            rows,
            sorted,
            stats,
        };
        self.build_node(root, 0, &mut tree);
        tree
    }

    /// Recursively grows the subtree for `nd`, returning its arena index.
    fn build_node(&mut self, nd: NodeData, depth: usize, tree: &mut Tree) -> usize {
        if depth >= self.params.max_depth || nd.rows.len() < 2 {
            return tree.push(self.leaf(nd.stats));
        }
        let Some(best) = self.find_best_split(&nd) else {
            return tree.push(self.leaf(nd.stats));
        };

        let idx = tree.push(Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            default_left: best.default_left,
            left: 0,
            right: 0,
        });
        tree.record_gain(best.feature, best.gain);

        let (left, right) = self.partition(nd, &best);
        let l = self.build_node(left, depth + 1, tree);
        let r = self.build_node(right, depth + 1, tree);
        tree.set_children(idx, l, r);
        idx
    }

    /// The optimal leaf weight `−G/(H+λ)`, shrunk by the learning rate.
    fn leaf(&self, stats: GradStats) -> Node {
        Node::Leaf {
            value: -stats.g / (stats.h + self.params.lambda) * self.params.eta,
        }
    }

    /// Exact greedy scan over every feature and threshold, scoring missing
    /// values in both directions.
    fn find_best_split(&self, nd: &NodeData) -> Option<BestSplit> {
        let parent_score = nd.stats.score(self.params.lambda);
        let mut best: Option<BestSplit> = None;

        for feat in 0..self.data.n_features() {
            let list = &nd.sorted[feat];
            if list.len() < 2 {
                continue; // no threshold can separate fewer than two values
            }
            let mut present = GradStats::default();
            for &r in list {
                present.add(self.grad[r as usize], self.hess[r as usize]);
            }
            let missing = nd.stats.minus(present);

            let mut left = GradStats::default();
            for w in 0..list.len().saturating_sub(1) {
                let r = list[w] as usize;
                left.add(self.grad[r], self.hess[r]);
                let v = self.data.value(r, feat);
                let v_next = self.data.value(list[w + 1] as usize, feat);
                if v == v_next {
                    continue; // can't separate equal values
                }
                let threshold = midpoint(v, v_next);

                // Candidate A: missing rows to the right.
                let l_a = left;
                let r_a = nd.stats.minus(left);
                self.consider(&mut best, feat, threshold, false, l_a, r_a, parent_score);

                // Candidate B: missing rows to the left.
                if missing.h > 0.0 || missing.g != 0.0 {
                    let mut l_b = left;
                    l_b.add(missing.g, missing.h);
                    let r_b = nd.stats.minus(l_b);
                    self.consider(&mut best, feat, threshold, true, l_b, r_b, parent_score);
                }
            }
        }
        best
    }

    /// Scores one candidate and keeps it if it beats the incumbent.
    #[allow(clippy::too_many_arguments)]
    fn consider(
        &self,
        best: &mut Option<BestSplit>,
        feature: usize,
        threshold: f32,
        default_left: bool,
        l: GradStats,
        r: GradStats,
        parent_score: f64,
    ) {
        let mcw = self.params.min_child_weight;
        if l.h < mcw || r.h < mcw {
            return;
        }
        let lambda = self.params.lambda;
        let gain = 0.5 * (l.score(lambda) + r.score(lambda) - parent_score) - self.params.gamma;
        if gain <= 1e-12 {
            return;
        }
        let better = match best {
            Some(b) => gain > b.gain,
            None => true,
        };
        if better {
            *best = Some(BestSplit {
                feature,
                threshold,
                default_left,
                gain,
            });
        }
    }

    /// Splits a node's rows and per-feature sorted lists by the chosen split,
    /// preserving sort order (stable partition).
    fn partition(&mut self, nd: NodeData, best: &BestSplit) -> (NodeData, NodeData) {
        let mut l_stats = GradStats::default();
        let mut r_stats = GradStats::default();
        let mut l_rows = Vec::with_capacity(nd.rows.len() / 2);
        let mut r_rows = Vec::with_capacity(nd.rows.len() / 2);
        for &row in &nd.rows {
            let v = self.data.value(row as usize, best.feature);
            let go_left = if v.is_nan() {
                best.default_left
            } else {
                v < best.threshold
            };
            self.goes_left[row as usize] = go_left;
            if go_left {
                l_stats.add(self.grad[row as usize], self.hess[row as usize]);
                l_rows.push(row);
            } else {
                r_stats.add(self.grad[row as usize], self.hess[row as usize]);
                r_rows.push(row);
            }
        }

        let n_feat = nd.sorted.len();
        let mut l_sorted = Vec::with_capacity(n_feat);
        let mut r_sorted = Vec::with_capacity(n_feat);
        for list in nd.sorted {
            let mut l = Vec::with_capacity(list.len() / 2);
            let mut r = Vec::with_capacity(list.len() / 2);
            for row in list {
                if self.goes_left[row as usize] {
                    l.push(row);
                } else {
                    r.push(row);
                }
            }
            l_sorted.push(l);
            r_sorted.push(r);
        }

        (
            NodeData {
                rows: l_rows,
                sorted: l_sorted,
                stats: l_stats,
            },
            NodeData {
                rows: r_rows,
                sorted: r_sorted,
                stats: r_stats,
            },
        )
    }
}

/// A threshold strictly between two adjacent training values. Falls back to
/// the larger value when the midpoint rounds onto the smaller one (adjacent
/// floats).
fn midpoint(lo: f32, hi: f32) -> f32 {
    let mid = lo + (hi - lo) / 2.0;
    if mid > lo {
        mid
    } else {
        hi
    }
}
