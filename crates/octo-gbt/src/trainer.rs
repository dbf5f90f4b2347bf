//! Growing regression trees with exact greedy split finding.
//!
//! The builder follows XGBoost's exact algorithm with pre-sorted columns.
//! `Columns::presort` sorts every feature once per boosting call into
//! `(value, row)` entries, by value and then by row, and all trees of that
//! call start from it. A tree copies the entries into a buffer it reuses,
//! and every node's rows and per-feature entry lists are ranges of that
//! buffer: a split partitions them stably in place, so inner nodes neither
//! sort nor allocate, and split search reads each value from its entry.
//! Rows whose feature is missing never appear in that feature's entries;
//! their gradient mass is recovered as `node_total − non_missing_total` and
//! each candidate split is scored twice — missing-left and missing-right —
//! to learn the default direction (the sparsity-aware algorithm).
//!
//! The partition routes rows by the rule [`Tree::predict`] applies, so the
//! builder also reports each training row's leaf value. The booster adds
//! those to its margins instead of walking the new tree once per row
//! (XGBoost's prediction cache).

use crate::dataset::Window;
use crate::params::GbtParams;
use crate::tree::{Node, Tree};
use std::ops::Range;

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

/// A present feature value and the row it belongs to.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f32,
    row: u32,
}

/// Every feature's present values, sorted by value and then by row: the
/// column order all trees of one boosting call start from.
pub(crate) struct Columns {
    n_rows: usize,
    entries: Vec<Entry>,
    /// Feature `f` owns `entries[starts[f]..starts[f + 1]]`.
    starts: Vec<usize>,
}

impl Columns {
    /// Sorts each feature column of `window` once.
    pub(crate) fn presort(window: &Window) -> Columns {
        let n = window.len();
        let n_features = window.n_features();
        let mut entries = Vec::with_capacity(n * n_features);
        let mut starts = Vec::with_capacity(n_features + 1);
        for feat in 0..n_features {
            let start = entries.len();
            starts.push(start);
            entries.extend((0..n).filter_map(|i| {
                let value = window.row(i)[feat];
                (!value.is_nan()).then_some(Entry {
                    value,
                    row: i as u32,
                })
            }));
            // The row tie-break makes the order total, so an unstable sort
            // yields exactly the stable one.
            entries[start..].sort_unstable_by(|a, b| {
                a.value
                    .partial_cmp(&b.value)
                    .expect("non-NaN values")
                    .then(a.row.cmp(&b.row))
            });
        }
        starts.push(entries.len());
        Columns {
            n_rows: n,
            entries,
            starts,
        }
    }

    fn n_features(&self) -> usize {
        self.starts.len() - 1
    }
}

/// The gradient and hessian of every row, fixed while one tree grows.
#[derive(Clone, Copy)]
struct Grads<'g> {
    grad: &'g [f64],
    hess: &'g [f64],
}

/// Grows the trees of one boosting call, reusing its buffers across them.
pub(crate) struct TreeBuilder<'a> {
    columns: &'a Columns,
    params: &'a GbtParams,
    /// Node rows: each node owns a range, ascending by row.
    rows: Vec<u32>,
    /// The tree's copy of the presorted entries; each node owns one range
    /// per feature.
    entries: Vec<Entry>,
    /// The per-feature entry ranges of the nodes on the path being grown,
    /// `n_features` per node.
    ranges: Vec<(usize, usize)>,
    /// Which side each row of the node being split takes.
    goes_left: Vec<bool>,
    /// The right-hand side of a stable in-place partition.
    scratch_rows: Vec<u32>,
    scratch_entries: Vec<Entry>,
    /// Each row's leaf value in the last tree built.
    leaf_values: Vec<f64>,
}

impl<'a> TreeBuilder<'a> {
    pub(crate) fn new(columns: &'a Columns, params: &'a GbtParams) -> Self {
        let n = columns.n_rows;
        TreeBuilder {
            columns,
            params,
            rows: Vec::with_capacity(n),
            entries: Vec::with_capacity(columns.entries.len()),
            ranges: Vec::new(),
            goes_left: vec![false; n],
            scratch_rows: Vec::with_capacity(n),
            scratch_entries: Vec::with_capacity(n),
            leaf_values: vec![0.0; n],
        }
    }

    /// Builds one tree against `grad`/`hess`. An empty window yields a
    /// single zero leaf.
    pub(crate) fn build(&mut self, grad: &[f64], hess: &[f64]) -> Tree {
        let n = self.columns.n_rows;
        debug_assert_eq!(n, grad.len());
        debug_assert_eq!(n, hess.len());
        let n_features = self.columns.n_features();
        let mut tree = Tree::new(n_features);
        if n == 0 {
            tree.push(Node::Leaf { value: 0.0 });
            return tree;
        }

        self.rows.clear();
        self.rows.extend(0..n as u32);
        self.entries.clear();
        self.entries.extend_from_slice(&self.columns.entries);
        self.ranges.clear();
        self.ranges
            .extend(self.columns.starts.windows(2).map(|w| (w[0], w[1])));
        let mut stats = GradStats::default();
        for i in 0..n {
            stats.add(grad[i], hess[i]);
        }
        self.grow(Grads { grad, hess }, 0..n, 0, stats, 0, &mut tree);
        tree
    }

    /// Each training row's leaf value in the tree [`TreeBuilder::build`]
    /// returned last: bit for bit what [`Tree::predict`] gives that row.
    pub(crate) fn leaf_values(&self) -> &[f64] {
        &self.leaf_values
    }

    /// Recursively grows the subtree of the node owning `rows` and the
    /// feature ranges from `self.ranges[ranges]`, returning its arena index.
    fn grow(
        &mut self,
        g: Grads,
        rows: Range<usize>,
        ranges: usize,
        stats: GradStats,
        depth: usize,
        tree: &mut Tree,
    ) -> usize {
        if depth >= self.params.max_depth || rows.len() < 2 {
            return self.leaf(rows, stats, tree);
        }
        let Some(best) = self.find_best_split(g, ranges, stats) else {
            return self.leaf(rows, stats, tree);
        };

        let idx = tree.push(Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            default_left: best.default_left,
            left: 0,
            right: 0,
        });
        tree.record_gain(best.feature, best.gain);

        // Route each row as `Tree::predict` will: a missing value takes the
        // default side, a present one goes left below the threshold.
        for &r in &self.rows[rows.clone()] {
            self.goes_left[r as usize] = best.default_left;
        }
        let (a, b) = self.ranges[ranges + best.feature];
        for e in &self.entries[a..b] {
            self.goes_left[e.row as usize] = e.value < best.threshold;
        }

        let goes_left = &self.goes_left;
        let mut l_stats = GradStats::default();
        let mut r_stats = GradStats::default();
        let n_left = partition_stable(&mut self.rows[rows.clone()], &mut self.scratch_rows, |&r| {
            let r = r as usize;
            if goes_left[r] {
                l_stats.add(g.grad[r], g.hess[r]);
            } else {
                r_stats.add(g.grad[r], g.hess[r]);
            }
            goes_left[r]
        });
        let n_features = self.columns.n_features();
        let left_ranges = self.ranges.len();
        let right_ranges = left_ranges + n_features;
        self.ranges.resize(right_ranges + n_features, (0, 0));
        for feat in 0..n_features {
            let (a, b) = self.ranges[ranges + feat];
            let n_l = partition_stable(&mut self.entries[a..b], &mut self.scratch_entries, |e| {
                goes_left[e.row as usize]
            });
            self.ranges[left_ranges + feat] = (a, a + n_l);
            self.ranges[right_ranges + feat] = (a + n_l, b);
        }

        let mid = rows.start + n_left;
        let l = self.grow(g, rows.start..mid, left_ranges, l_stats, depth + 1, tree);
        let r = self.grow(g, mid..rows.end, right_ranges, r_stats, depth + 1, tree);
        self.ranges.truncate(left_ranges);
        tree.set_children(idx, l, r);
        idx
    }

    /// Pushes the leaf of a row set: the optimal weight `−G/(H+λ)`, shrunk
    /// by the learning rate, which every row of the set takes.
    fn leaf(&mut self, rows: Range<usize>, stats: GradStats, tree: &mut Tree) -> usize {
        let value = -stats.g / (stats.h + self.params.lambda) * self.params.eta;
        for &r in &self.rows[rows] {
            self.leaf_values[r as usize] = value;
        }
        tree.push(Node::Leaf { value })
    }

    /// Exact greedy scan over every feature and threshold, scoring missing
    /// values in both directions.
    fn find_best_split(&self, g: Grads, ranges: usize, stats: GradStats) -> Option<BestSplit> {
        let parent_score = stats.score(self.params.lambda);
        let mut best: Option<BestSplit> = None;

        let node_ranges = &self.ranges[ranges..ranges + self.columns.n_features()];
        for (feat, &(a, b)) in node_ranges.iter().enumerate() {
            let list = &self.entries[a..b];
            if list.len() < 2 {
                continue; // no threshold can separate fewer than two values
            }
            let mut present = GradStats::default();
            for e in list {
                present.add(g.grad[e.row as usize], g.hess[e.row as usize]);
            }
            let missing = stats.minus(present);

            let mut left = GradStats::default();
            for pair in list.windows(2) {
                let (e, next) = (pair[0], pair[1]);
                left.add(g.grad[e.row as usize], g.hess[e.row as usize]);
                if e.value == next.value {
                    continue; // can't separate equal values
                }
                let threshold = midpoint(e.value, next.value);

                // Candidate A: missing rows to the right.
                let l_a = left;
                let r_a = stats.minus(left);
                self.consider(&mut best, feat, threshold, false, l_a, r_a, parent_score);

                // Candidate B: missing rows to the left.
                if missing.h > 0.0 || missing.g != 0.0 {
                    let mut l_b = left;
                    l_b.add(missing.g, missing.h);
                    let r_b = stats.minus(l_b);
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
}

/// Moves the items `left` accepts to the front of `items` and the rest
/// behind them, each side keeping its order; `left` sees every item once,
/// in order. Returns the number of left items.
fn partition_stable<T: Copy>(
    items: &mut [T],
    scratch: &mut Vec<T>,
    mut left: impl FnMut(&T) -> bool,
) -> usize {
    scratch.clear();
    let mut n_left = 0;
    for i in 0..items.len() {
        let item = items[i];
        if left(&item) {
            items[n_left] = item;
            n_left += 1;
        } else {
            scratch.push(item);
        }
    }
    items[n_left..].copy_from_slice(scratch);
    n_left
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, EMPTY_FOLD};
    use crate::objective;

    /// Builds gradient vectors for the logistic objective at margin 0.
    fn grads_at_zero(data: &Dataset) -> (Vec<f64>, Vec<f64>) {
        let g = (0..data.n_rows())
            .map(|i| objective::grad(0.0, data.label(i) as f64))
            .collect();
        let h = (0..data.n_rows()).map(|_| objective::hess(0.0)).collect();
        (g, h)
    }

    /// Grows one tree over `data`, checking that every row's reported leaf
    /// value has the bits `Tree::predict` gives it and that the tree equals
    /// the reference builder's.
    fn build(data: &Dataset, grad: &[f64], hess: &[f64], params: &GbtParams) -> Tree {
        let window = Window::from_dataset(data, |_| EMPTY_FOLD);
        let columns = Columns::presort(&window);
        let mut builder = TreeBuilder::new(&columns, params);
        let tree = builder.build(grad, hess);
        assert_eq!(builder.leaf_values().len(), data.n_rows());
        for i in 0..data.n_rows() {
            assert_eq!(
                builder.leaf_values()[i].to_bits(),
                tree.predict(data.row(i)).to_bits(),
                "leaf value of row {i}"
            );
        }
        let reference = crate::reference::TreeBuilder::new(data, grad, hess, params).build();
        assert_eq!(tree, reference, "tree differs from the reference builder");
        tree
    }

    #[test]
    fn perfectly_separable_stump() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[i as f32], if i < 5 { 0.0 } else { 1.0 });
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 1,
            ..GbtParams::default()
        };
        let tree = build(&d, &g, &h, &params);
        assert_eq!(tree.depth(), 1);
        // The split should be between 4 and 5.
        match &tree.nodes()[0] {
            Node::Split {
                feature, threshold, ..
            } => {
                assert_eq!(*feature, 0);
                assert!(
                    *threshold > 4.0 && *threshold <= 5.0,
                    "threshold {threshold}"
                );
            }
            other => panic!("expected root split, got {other:?}"),
        }
        // Left leaf pushes toward class 0 (negative margin), right toward 1.
        assert!(tree.predict(&[0.0]) < 0.0);
        assert!(tree.predict(&[9.0]) > 0.0);
    }

    #[test]
    fn stump_gain_matches_brute_force() {
        // Random-ish fixed data; compare builder's chosen split against an
        // exhaustive O(n²) search over all (feature, boundary) candidates.
        let rows: &[(&[f32], f32)] = &[
            (&[0.3, 2.0], 0.0),
            (&[0.7, 1.0], 1.0),
            (&[0.1, 3.5], 0.0),
            (&[0.9, 0.5], 1.0),
            (&[0.5, 2.5], 1.0),
            (&[0.2, 1.5], 0.0),
            (&[0.8, 3.0], 0.0),
            (&[0.6, 0.8], 1.0),
        ];
        let mut d = Dataset::new(2);
        for (x, y) in rows {
            d.push_row(x, *y);
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 1,
            min_child_weight: 0.0,
            ..GbtParams::default()
        };
        let lambda = params.lambda;

        // Brute force best gain.
        let total_g: f64 = g.iter().sum();
        let total_h: f64 = h.iter().sum();
        let parent = total_g * total_g / (total_h + lambda);
        let mut brute_best = f64::MIN;
        for feat in 0..2 {
            let mut vals: Vec<f32> = (0..d.n_rows()).map(|i| d.value(i, feat)).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in vals.windows(2) {
                if w[0] == w[1] {
                    continue;
                }
                let t = (w[0] + w[1]) / 2.0;
                let (mut gl, mut hl) = (0.0, 0.0);
                for i in 0..d.n_rows() {
                    if d.value(i, feat) < t {
                        gl += g[i];
                        hl += h[i];
                    }
                }
                let gr = total_g - gl;
                let hr = total_h - hl;
                let gain = 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent);
                brute_best = brute_best.max(gain);
            }
        }

        let tree = build(&d, &g, &h, &params);
        // Recompute the builder's achieved gain from its recorded totals.
        let builder_gain: f64 = tree.feature_gain().iter().sum();
        assert!(
            (builder_gain - brute_best).abs() < 1e-9,
            "builder {builder_gain} vs brute force {brute_best}"
        );
    }

    #[test]
    fn missing_values_get_a_useful_default_direction() {
        // Feature is missing exactly for positive rows; present (value 1.0)
        // for negatives. A useful tree must route NaN away from the present
        // side. Needs a second distinct value so a threshold exists.
        let mut d = Dataset::new(1);
        for i in 0..20 {
            if i % 2 == 0 {
                d.push_row(&[f32::NAN], 1.0);
            } else {
                let v = if i % 4 == 1 { 1.0 } else { 2.0 };
                d.push_row(&[v], 0.0);
            }
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 2,
            ..GbtParams::default()
        };
        let tree = build(&d, &g, &h, &params);
        let p_missing = tree.predict(&[f32::NAN]);
        let p_present = tree.predict(&[1.0]);
        assert!(
            p_missing > p_present,
            "missing rows (positive) should get higher margin: {p_missing} vs {p_present}"
        );
    }

    #[test]
    fn nan_heavy_columns_route_every_row_to_its_leaf() {
        // Four columns, most entries missing, values drawn from a small
        // pool so ties are common; a label that depends on missingness and
        // value alike makes the tree split both ways.
        let mut d = Dataset::new(4);
        for i in 0u64..300 {
            let mut row = [f32::NAN; 4];
            for (f, v) in row.iter_mut().enumerate() {
                let draw = (i * 2654435761 + f as u64 * 40503) % 97;
                if draw.is_multiple_of(5) || (f == 0 && draw.is_multiple_of(3)) {
                    *v = (draw % 7) as f32 * 0.25;
                }
            }
            let y = row[0].is_nan() != (row[1] > 0.5);
            d.push_row(&row, if y { 1.0 } else { 0.0 });
        }
        let (g, h) = grads_at_zero(&d);
        for max_depth in [1, 3, 8] {
            let params = GbtParams {
                max_depth,
                min_child_weight: 0.0,
                ..GbtParams::default()
            };
            let tree = build(&d, &g, &h, &params);
            assert!(tree.n_leaves() > 1, "depth {max_depth} must split");
        }
    }

    #[test]
    fn adjacent_floats_split_at_the_larger_value() {
        // Only two adjacent floats occur, so the midpoint rounds onto the
        // smaller one and the threshold falls back to the larger: rows with
        // the larger value must go right, exactly as `Tree::predict` sends
        // them.
        let lo = 1.0f32;
        let hi = f32::from_bits(lo.to_bits() + 1);
        let mut d = Dataset::new(1);
        for i in 0..12 {
            let x = if i % 2 == 0 { lo } else { hi };
            d.push_row(&[x], if x == hi { 1.0 } else { 0.0 });
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 1,
            min_child_weight: 0.0,
            ..GbtParams::default()
        };
        let tree = build(&d, &g, &h, &params);
        match &tree.nodes()[0] {
            Node::Split { threshold, .. } => assert_eq!(threshold.to_bits(), hi.to_bits()),
            other => panic!("expected root split, got {other:?}"),
        }
        assert!(tree.predict(&[hi]) > 0.0 && tree.predict(&[lo]) < 0.0);
    }

    #[test]
    fn one_builder_grows_many_trees() {
        // A builder reused across rounds must grow what a fresh one does.
        let mut d = Dataset::new(2);
        for i in 0..40 {
            let x1 = if i % 4 == 0 { f32::NAN } else { (i % 6) as f32 };
            d.push_row(&[(i % 9) as f32, x1], (i % 3 == 0) as u8 as f32);
        }
        let params = GbtParams {
            max_depth: 4,
            min_child_weight: 0.0,
            ..GbtParams::default()
        };
        let window = Window::from_dataset(&d, |_| EMPTY_FOLD);
        let columns = Columns::presort(&window);
        let mut reused = TreeBuilder::new(&columns, &params);
        for round in 0..4 {
            let margin = round as f64 * 0.3 - 0.5;
            let g: Vec<f64> = (0..d.n_rows())
                .map(|i| objective::grad(margin + (i % 5) as f64 * 0.1, d.label(i) as f64))
                .collect();
            let h: Vec<f64> = (0..d.n_rows())
                .map(|i| objective::hess(margin + (i % 5) as f64 * 0.1))
                .collect();
            let tree = reused.build(&g, &h);
            assert_eq!(tree, build(&d, &g, &h, &params), "round {round}");
        }
    }

    #[test]
    fn max_depth_zero_gives_prior_leaf() {
        let mut d = Dataset::new(1);
        d.push_row(&[1.0], 1.0);
        d.push_row(&[2.0], 1.0);
        d.push_row(&[3.0], 0.0);
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 0,
            ..GbtParams::default()
        };
        let tree = build(&d, &g, &h, &params);
        assert_eq!(tree.n_nodes(), 1);
        let total_g: f64 = g.iter().sum();
        let total_h: f64 = h.iter().sum();
        let expected = -total_g / (total_h + params.lambda) * params.eta;
        assert!((tree.predict(&[9.0]) - expected).abs() < 1e-12);
    }

    #[test]
    fn pure_node_does_not_split() {
        // All labels identical: every split gain is ~0, so a single leaf.
        let mut d = Dataset::new(2);
        for i in 0..8 {
            d.push_row(&[i as f32, (i * 7 % 5) as f32], 1.0);
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams::default();
        let tree = build(&d, &g, &h, &params);
        assert_eq!(tree.n_nodes(), 1, "pure node must stay a leaf");
    }

    #[test]
    fn gamma_suppresses_weak_splits() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[i as f32], if i < 5 { 0.0 } else { 1.0 });
        }
        let (g, h) = grads_at_zero(&d);
        let params = GbtParams {
            max_depth: 3,
            gamma: 1e6, // absurdly high: no split can pay for itself
            ..GbtParams::default()
        };
        let tree = build(&d, &g, &h, &params);
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn empty_dataset_yields_zero_leaf() {
        let d = Dataset::new(3);
        let params = GbtParams::default();
        let tree = build(&d, &[], &[], &params);
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn midpoint_always_strictly_above_lo() {
        assert!(midpoint(1.0, 2.0) > 1.0);
        assert!(midpoint(1.0, 2.0) <= 2.0);
        // Adjacent floats: midpoint may round down; must fall back to hi.
        let lo = 1.0f32;
        let hi = f32::from_bits(lo.to_bits() + 1);
        assert_eq!(midpoint(lo, hi), hi);
    }

    #[test]
    fn stable_partition_keeps_both_sides_in_order() {
        let mut items: Vec<u32> = (0..20).collect();
        let mut scratch = Vec::new();
        let n_left = partition_stable(&mut items, &mut scratch, |&x| x % 3 == 1);
        assert_eq!(n_left, 7);
        let (l, r) = items.split_at(n_left);
        assert!(l.iter().all(|x| x % 3 == 1) && l.windows(2).all(|w| w[0] < w[1]));
        assert!(r.iter().all(|x| x % 3 != 1) && r.windows(2).all(|w| w[0] < w[1]));
    }
}
