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
//! Split search reads each feature list once. It writes the running
//! gradient sum at every entry into a reused buffer, unconditionally, and
//! moves its write cursor on only where the next value differs, so the
//! buffer ends up holding one cut per run of equal values with no branch
//! on the data. The running sum after the last entry is the list's present
//! total: the same additions in the same order as a separate summing pass,
//! so the same bits. The kept cuts are then scored in order, missing-right
//! before missing-left, and a threshold is computed only for a candidate
//! that becomes the best.
//!
//! The partition writes every item both to the left side and to a scratch
//! buffer for the right side, and moves on only the cursor of the side the
//! item belongs to: no branch on the item's side. It routes rows by the
//! rule [`Tree::predict`] applies, so the builder also reports each
//! training row's leaf value. The booster adds those to its margins
//! instead of walking the new tree once per row (XGBoost's prediction
//! cache).

use crate::dataset::Window;
use crate::params::GbtParams;
use crate::tree::{Node, Tree};
use std::ops::Range;

/// The gradient and hessian of one row, or their sums over a row set.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GradStats {
    pub(crate) g: f64,
    pub(crate) h: f64,
}

impl GradStats {
    fn add(&mut self, other: GradStats) {
        self.g += other.g;
        self.h += other.h;
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

    /// The sum over `rows`, in their order.
    fn sum(grads: &[GradStats], rows: &[u32]) -> GradStats {
        let mut sum = GradStats::default();
        for &r in rows {
            sum.add(grads[r as usize]);
        }
        sum
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
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    value: f32,
    row: u32,
}

/// A place where a feature list can be cut: after its entry `at`, whose
/// value differs from the next one, with the gradient sum of the entries
/// up to and including it.
#[derive(Debug, Clone, Copy, Default)]
struct Cut {
    left: GradStats,
    at: u32,
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
    /// The right-hand side of a stable in-place partition, one slot per
    /// row: no node or feature list is longer.
    scratch_rows: Vec<u32>,
    scratch_entries: Vec<Entry>,
    /// The cuts of the feature list being scanned, one slot per row.
    cuts: Vec<Cut>,
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
            scratch_rows: vec![0; n],
            scratch_entries: vec![Entry::default(); n],
            cuts: vec![Cut::default(); n],
            leaf_values: vec![0.0; n],
        }
    }

    /// Builds one tree against each row's gradient and hessian. An empty
    /// window yields a single zero leaf.
    pub(crate) fn build(&mut self, grads: &[GradStats]) -> Tree {
        let n = self.columns.n_rows;
        debug_assert_eq!(n, grads.len());
        let n_features = self.columns.n_features();
        let mut tree = Tree::new(n_features);
        if n == 0 {
            tree.push(Node::leaf(0.0));
            return tree;
        }

        self.rows.clear();
        self.rows.extend(0..n as u32);
        self.entries.clear();
        self.entries.extend_from_slice(&self.columns.entries);
        self.ranges.clear();
        self.ranges
            .extend(self.columns.starts.windows(2).map(|w| (w[0], w[1])));
        let stats = GradStats::sum(grads, &self.rows);
        self.grow(grads, 0..n, 0, stats, 0, &mut tree);
        tree
    }

    /// Each training row's leaf value in the tree [`TreeBuilder::build`]
    /// returned last: bit for bit what [`Tree::predict`] gives that row.
    pub(crate) fn leaf_values(&self) -> &[f64] {
        &self.leaf_values
    }

    /// Recursively grows the subtree of the node owning `rows` and the
    /// feature ranges from `self.ranges[ranges]`, returning its index.
    fn grow(
        &mut self,
        g: &[GradStats],
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

        let idx = tree.push(Node::split(best.feature, best.threshold, best.default_left));
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
        let node_rows = &mut self.rows[rows.clone()];
        let n_left = partition_stable(node_rows, &mut self.scratch_rows, |&r| {
            goes_left[r as usize]
        });
        let l_stats = GradStats::sum(g, &node_rows[..n_left]);
        let r_stats = GradStats::sum(g, &node_rows[n_left..]);
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
        tree.push(Node::leaf(value))
    }

    /// Exact greedy scan over every feature and threshold, scoring missing
    /// values in both directions.
    fn find_best_split(
        &mut self,
        grads: &[GradStats],
        ranges: usize,
        stats: GradStats,
    ) -> Option<BestSplit> {
        let parent_score = stats.score(self.params.lambda);
        let mut best: Option<BestSplit> = None;

        let n_features = self.columns.n_features();
        for feat in 0..n_features {
            let (a, b) = self.ranges[ranges + feat];
            let list = &self.entries[a..b];
            if list.len() < 2 {
                continue; // no threshold can separate fewer than two values
            }

            // One pass: a cut after every entry, kept where the value moves.
            let cuts = &mut self.cuts[..list.len() - 1];
            let mut left = GradStats::default();
            let mut n_cuts = 0;
            for (at, pair) in list.windows(2).enumerate() {
                left.add(grads[pair[0].row as usize]);
                cuts[n_cuts] = Cut {
                    left,
                    at: at as u32,
                };
                n_cuts += usize::from(pair[0].value != pair[1].value);
            }
            let mut present = left;
            present.add(grads[list[list.len() - 1].row as usize]);
            let missing = stats.minus(present);
            let any_missing = missing.h > 0.0 || missing.g != 0.0;

            for cut in &self.cuts[..n_cuts] {
                let threshold = || {
                    let at = cut.at as usize;
                    midpoint(list[at].value, list[at + 1].value)
                };
                // Candidate A: missing rows to the right.
                let l_a = cut.left;
                let r_a = stats.minus(l_a);
                self.consider(&mut best, feat, threshold, false, l_a, r_a, parent_score);

                // Candidate B: missing rows to the left.
                if any_missing {
                    let mut l_b = cut.left;
                    l_b.add(missing);
                    let r_b = stats.minus(l_b);
                    self.consider(&mut best, feat, threshold, true, l_b, r_b, parent_score);
                }
            }
        }
        best
    }

    /// Scores one candidate and keeps it if it beats the incumbent,
    /// computing its threshold only then.
    #[allow(clippy::too_many_arguments)]
    fn consider(
        &self,
        best: &mut Option<BestSplit>,
        feature: usize,
        threshold: impl Fn() -> f32,
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
                threshold: threshold(),
                default_left,
                gain,
            });
        }
    }
}

/// Moves the items `left` accepts to the front of `items` and the rest
/// behind them, each side keeping its order; `left` sees every item once,
/// in order. `scratch` must be at least as long as `items`. Returns the
/// number of left items.
///
/// Each item is written to both sides' cursors, and only its own side's
/// cursor moves on, so no branch depends on the item's side. The left
/// cursor never passes the item being read, so writing behind it in place
/// is safe.
fn partition_stable<T: Copy>(
    items: &mut [T],
    scratch: &mut [T],
    left: impl Fn(&T) -> bool,
) -> usize {
    let scratch = &mut scratch[..items.len()];
    let (mut n_left, mut n_right) = (0, 0);
    for i in 0..items.len() {
        let item = items[i];
        let goes_left = left(&item);
        items[n_left] = item;
        scratch[n_right] = item;
        n_left += usize::from(goes_left);
        n_right += usize::from(!goes_left);
    }
    items[n_left..].copy_from_slice(&scratch[..n_right]);
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds gradient vectors for the logistic objective at margin 0.
    fn grads_at_zero(data: &Dataset) -> (Vec<f64>, Vec<f64>) {
        let g = (0..data.n_rows())
            .map(|i| objective::grad(0.0, data.label(i) as f64))
            .collect();
        let h = (0..data.n_rows()).map(|_| objective::hess(0.0)).collect();
        (g, h)
    }

    /// Each row's gradient and hessian as the builder takes them.
    fn pairs(grad: &[f64], hess: &[f64]) -> Vec<GradStats> {
        grad.iter()
            .zip(hess)
            .map(|(&g, &h)| GradStats { g, h })
            .collect()
    }

    /// Grows one tree over `data`, checking that every row's reported leaf
    /// value has the bits `Tree::predict` gives it and that the tree equals
    /// the reference builder's.
    fn build(data: &Dataset, grad: &[f64], hess: &[f64], params: &GbtParams) -> Tree {
        let window = Window::from_dataset(data, |_| EMPTY_FOLD);
        let columns = Columns::presort(&window);
        let mut builder = TreeBuilder::new(&columns, params);
        let tree = builder.build(&pairs(grad, hess));
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
        let (feature, threshold, _) = tree.nodes()[0].split_rule().expect("root split");
        assert_eq!(feature, 0);
        assert!(threshold > 4.0 && threshold <= 5.0, "threshold {threshold}");
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
        let (_, threshold, _) = tree.nodes()[0].split_rule().expect("root split");
        assert_eq!(threshold.to_bits(), hi.to_bits());
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
            let tree = reused.build(&pairs(&g, &h));
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
        // A shuffled input, so "in order" means the input's order.
        let shuffled: Vec<u32> = (0..23).map(|i| (i * 7 + 3) % 23).collect();
        type Case = (&'static str, Vec<u32>, fn(&u32) -> bool);
        let cases: [Case; 6] = [
            ("empty", Vec::new(), |_| true),
            ("all left", shuffled.clone(), |_| true),
            ("all right", shuffled.clone(), |_| false),
            ("alternating", shuffled.clone(), |&x| x % 2 == 0),
            ("alternating by position", (0..16).collect(), |&x| {
                x % 2 == 1
            }),
            ("thirds", shuffled, |&x| x % 3 == 1),
        ];
        for (name, input, left) in cases {
            let want_left: Vec<u32> = input.iter().copied().filter(left).collect();
            let want_right: Vec<u32> = input.iter().copied().filter(|x| !left(x)).collect();
            // The builder's scratch is as long as the window, so usually
            // longer than the list being split.
            for extra in [0, 5] {
                let mut items = input.clone();
                let mut scratch = vec![u32::MAX; input.len() + extra];
                let n_left = partition_stable(&mut items, &mut scratch, left);
                assert_eq!(&items[..n_left], &want_left[..], "{name}: left side");
                assert_eq!(&items[n_left..], &want_right[..], "{name}: right side");
            }
        }
    }

    /// A window shaped like the simulator's access features (paper §4.1):
    /// a size class, recency, up to eleven access deltas that are missing
    /// for files with fewer accesses, and two creation deltas. Two rows in
    /// five repeat an earlier row's columns, as a re-sampled file does, and
    /// one label in ten is noise.
    fn simulator_window(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(15);
        for i in 0..n {
            if i > 0 && rng.gen_bool(0.4) {
                let row = d.row(rng.gen_range(0..i)).to_vec();
                let label = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
                d.push_row(&row, label);
                continue;
            }
            let mut x = [f32::NAN; 15];
            x[0] = [0.0064f32, 0.0125, 0.025, 0.1, 0.4][rng.gen_range(0usize..5)];
            let accesses = rng.gen_range(0usize..13);
            let recency = rng.gen_range(0.0f32..1.0).powi(3);
            if accesses > 0 {
                x[1] = recency;
            }
            for slot in x
                .iter_mut()
                .skip(2)
                .take(accesses.saturating_sub(1).min(11))
            {
                *slot = rng.gen_range(0.0f32..1.0).powi(4);
            }
            let age = recency + rng.gen_range(0.0f32..1.0) * (1.0 - recency);
            if accesses > 0 {
                x[13] = rng.gen_range(0.0f32..1.0) * (age - recency);
            }
            x[14] = age;
            let label = if rng.gen_bool(0.1) {
                rng.gen_bool(0.5)
            } else {
                recency < 0.2
            };
            d.push_row(&x, if label { 1.0 } else { 0.0 });
        }
        d
    }

    #[test]
    fn depth_20_trees_on_a_simulator_shaped_window_match_the_reference() {
        let d = simulator_window(2_000, 7);
        let params = GbtParams::paper_access_model();
        let window = Window::from_dataset(&d, |_| EMPTY_FOLD);
        let columns = Columns::presort(&window);
        let mut builder = TreeBuilder::new(&columns, &params);
        let mut margins = vec![params.base_margin(); d.n_rows()];
        let mut deepest = 0;
        for round in 0..4 {
            let g: Vec<f64> = (0..d.n_rows())
                .map(|i| objective::grad(margins[i], d.label(i) as f64))
                .collect();
            let h: Vec<f64> = margins.iter().map(|&m| objective::hess(m)).collect();
            let tree = builder.build(&pairs(&g, &h));
            let reference = crate::reference::TreeBuilder::new(&d, &g, &h, &params).build();
            assert_eq!(tree, reference, "round {round} differs from the reference");
            for (i, m) in margins.iter_mut().enumerate() {
                let output = builder.leaf_values()[i];
                assert_eq!(output.to_bits(), tree.predict(d.row(i)).to_bits());
                *m += output;
            }
            deepest = deepest.max(tree.depth());
        }
        assert!(deepest >= 12, "trees must grow deep, deepest {deepest}");
    }
}
