//! Training data containers.
//!
//! [`Dataset`] is a plain row-major matrix for one-off training and
//! evaluation. `Window` is the sliding buffer an
//! [`IncrementalBooster`](crate::IncrementalBooster) trains on: the newest
//! rows in a ring, each with its cached fold of tree outputs.

use serde::{Deserialize, Serialize};

/// What `Iterator::sum::<f64>` returns over no trees, and so the fold of
/// every row under an empty ensemble. `-0.0`, not `0.0`: a fold that starts
/// anywhere else would not reproduce [`crate::Gbt::predict_margin`] bit for
/// bit.
pub(crate) const EMPTY_FOLD: f64 = -0.0;

/// A dense row-major matrix of `f32` features with binary labels.
///
/// Missing values are encoded as `NaN` — the trainer's sparsity-aware split
/// finder routes them through learned default directions, so callers never
/// need to impute.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    n_features: usize,
    values: Vec<f32>,
    labels: Vec<f32>,
}

impl Dataset {
    /// An empty dataset whose rows will have `n_features` columns.
    pub fn new(n_features: usize) -> Self {
        Dataset {
            n_features,
            values: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// An empty dataset with row capacity pre-reserved.
    pub fn with_capacity(n_features: usize, rows: usize) -> Self {
        Dataset {
            n_features,
            values: Vec::with_capacity(n_features * rows),
            labels: Vec::with_capacity(rows),
        }
    }

    /// Appends one labelled row. `label` must be 0.0 or 1.0; the feature
    /// slice length must match `n_features`.
    pub fn push_row(&mut self, features: &[f32], label: f32) {
        assert_eq!(
            features.len(),
            self.n_features,
            "row has {} features, dataset expects {}",
            features.len(),
            self.n_features
        );
        debug_assert!(
            label == 0.0 || label == 1.0,
            "labels must be binary, got {label}"
        );
        self.values.extend_from_slice(features);
        self.labels.push(label);
    }

    /// Number of columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The feature slice of row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.values[i * self.n_features..(i + 1) * self.n_features]
    }

    /// The label of row `i`.
    pub fn label(&self, i: usize) -> f32 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[f32] {
        &self.labels
    }

    /// The value of feature `f` in row `i` (may be `NaN`).
    pub fn value(&self, i: usize, f: usize) -> f32 {
        self.values[i * self.n_features + f]
    }

    /// Fraction of rows labelled positive (0 for an empty dataset).
    pub fn positive_rate(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().map(|&l| l as f64).sum::<f64>() / self.labels.len() as f64
    }
}

/// The newest `max_rows` labelled rows, oldest first, each carrying its
/// *fold*: the sum of every current tree's output on that row.
///
/// A ring: until it fills, rows append; after that each push overwrites the
/// oldest row's slot. No row ever moves, so a push costs one row copy
/// however large the window is. Logical row `i` (0 = oldest) is what the
/// trainer sees, so sort tie-breaks follow arrival order exactly as they
/// would in a [`Dataset`] holding the same rows.
#[derive(Debug, Clone)]
pub(crate) struct Window {
    n_features: usize,
    max_rows: usize,
    /// Row-major features, by slot.
    values: Vec<f32>,
    labels: Vec<f32>,
    folds: Vec<f64>,
    /// Slot of the oldest row (0 until the ring first fills).
    head: usize,
}

impl Window {
    /// An empty window keeping at most `max_rows` rows of `n_features`.
    pub(crate) fn new(n_features: usize, max_rows: usize) -> Self {
        Window {
            n_features,
            max_rows,
            values: Vec::new(),
            labels: Vec::new(),
            folds: Vec::new(),
            head: 0,
        }
    }

    /// Every row of `data`, in order, each with the fold `fold` gives it.
    pub(crate) fn from_dataset(data: &Dataset, fold: impl Fn(&[f32]) -> f64) -> Self {
        let mut window = Window::new(data.n_features(), data.n_rows());
        for i in 0..data.n_rows() {
            window.push(data.row(i), data.label(i), fold(data.row(i)));
        }
        window
    }

    /// Number of rows held.
    pub(crate) fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no row is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of columns.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// The slot of logical row `i`.
    fn slot(&self, i: usize) -> usize {
        debug_assert!(i < self.len(), "row {i} of {}", self.len());
        let s = self.head + i;
        if s < self.max_rows {
            s
        } else {
            s - self.max_rows
        }
    }

    /// Appends one labelled row with its fold, dropping the oldest row when
    /// the window is full.
    pub(crate) fn push(&mut self, features: &[f32], label: f32, fold: f64) {
        assert_eq!(
            features.len(),
            self.n_features,
            "row has {} features, window expects {}",
            features.len(),
            self.n_features
        );
        debug_assert!(
            label == 0.0 || label == 1.0,
            "labels must be binary, got {label}"
        );
        if self.len() < self.max_rows {
            self.values.extend_from_slice(features);
            self.labels.push(label);
            self.folds.push(fold);
        } else if self.max_rows > 0 {
            let s = self.head;
            self.values[s * self.n_features..(s + 1) * self.n_features].copy_from_slice(features);
            self.labels[s] = label;
            self.folds[s] = fold;
            self.head = if s + 1 == self.max_rows { 0 } else { s + 1 };
        }
    }

    /// The feature slice of logical row `i`.
    pub(crate) fn row(&self, i: usize) -> &[f32] {
        let s = self.slot(i);
        &self.values[s * self.n_features..(s + 1) * self.n_features]
    }

    /// The label of logical row `i`.
    pub(crate) fn label(&self, i: usize) -> f32 {
        self.labels[self.slot(i)]
    }

    /// The fold of logical row `i`.
    pub(crate) fn fold(&self, i: usize) -> f64 {
        self.folds[self.slot(i)]
    }

    /// Adds one new tree's output on logical row `i` to that row's fold.
    pub(crate) fn add_to_fold(&mut self, i: usize, output: f64) {
        let s = self.slot(i);
        self.folds[s] += output;
    }

    /// Resets every fold to that of an empty ensemble, before a model is
    /// trained from scratch.
    pub(crate) fn reset_folds(&mut self) {
        self.folds.fill(EMPTY_FOLD);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(3);
        d.push_row(&[1.0, 2.0, 3.0], 1.0);
        d.push_row(&[4.0, f32::NAN, 6.0], 0.0);
        d
    }

    #[test]
    fn basic_accessors() {
        let d = sample();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.n_features(), 3);
        assert_eq!(d.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(d.label(1), 0.0);
        assert!(d.value(1, 1).is_nan());
        assert!((d.positive_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dataset expects")]
    fn wrong_width_panics() {
        let mut d = Dataset::new(2);
        d.push_row(&[1.0], 0.0);
    }

    #[test]
    fn empty_fold_is_the_empty_sum() {
        let none: [f64; 0] = [];
        assert_eq!(
            EMPTY_FOLD.to_bits(),
            none.iter().sum::<f64>().to_bits(),
            "the fold of an empty ensemble must match predict_margin's sum"
        );
    }

    /// Row `k` of the stream: features and label derived from `k`, so any
    /// row can be checked against the one it must be.
    fn stream_row(k: usize) -> ([f32; 2], f32) {
        let nan = if k.is_multiple_of(3) {
            f32::NAN
        } else {
            k as f32 * 0.5
        };
        ([k as f32, nan], (k % 2) as f32)
    }

    fn assert_holds(w: &Window, pushed: usize, max_rows: usize, fold_of: impl Fn(usize) -> f64) {
        let kept = pushed.min(max_rows);
        assert_eq!(w.len(), kept);
        for i in 0..kept {
            let k = pushed - kept + i;
            let (x, y) = stream_row(k);
            assert_eq!(w.row(i)[0], x[0], "row {i} after {pushed} pushes");
            assert_eq!(w.row(i)[1].to_bits(), x[1].to_bits());
            assert_eq!(w.label(i), y);
            assert_eq!(w.fold(i).to_bits(), fold_of(k).to_bits(), "fold of row {k}");
        }
    }

    #[test]
    fn window_keeps_newest_rows_in_order_with_their_folds() {
        for max_rows in [1usize, 2, 7, 64] {
            let mut w = Window::new(2, max_rows);
            for k in 0..(max_rows * 9 + 3) {
                let (x, y) = stream_row(k);
                w.push(&x, y, k as f64);
                assert_holds(&w, k + 1, max_rows, |k| k as f64);
            }
            // A fold update lands on its own row and travels with it as
            // later pushes wrap the ring past it.
            let pushed = max_rows * 9 + 3;
            let first = pushed - w.len();
            for i in 0..w.len() {
                w.add_to_fold(i, 0.25);
            }
            let bumped = |k: usize| {
                if (first..pushed).contains(&k) {
                    k as f64 + 0.25
                } else {
                    k as f64
                }
            };
            assert_holds(&w, pushed, max_rows, bumped);
            for k in pushed..pushed + max_rows / 2 {
                let (x, y) = stream_row(k);
                w.push(&x, y, k as f64);
            }
            assert_holds(&w, pushed + max_rows / 2, max_rows, bumped);
            w.reset_folds();
            assert_holds(&w, pushed + max_rows / 2, max_rows, |_| EMPTY_FOLD);
        }
    }

    #[test]
    fn zero_row_window_stays_empty() {
        let mut w = Window::new(2, 0);
        w.push(&[1.0, 2.0], 1.0, 0.0);
        assert!(w.is_empty());
    }

    #[test]
    fn window_from_dataset_keeps_every_row() {
        let d = sample();
        let w = Window::from_dataset(&d, |row| row[0] as f64);
        assert_eq!(w.len(), 2);
        assert_eq!(w.n_features(), 3);
        assert_eq!(w.row(1)[0], 4.0);
        assert_eq!(w.label(0), 1.0);
        assert_eq!(w.fold(1), 4.0);
    }

    #[test]
    fn empty_dataset_positive_rate_is_zero() {
        assert_eq!(Dataset::new(4).positive_rate(), 0.0);
        assert!(Dataset::new(4).is_empty());
    }
}
