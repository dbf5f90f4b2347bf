//! The boosted ensemble and its incremental trainer.
//!
//! [`Gbt`] is the model. [`IncrementalBooster`] keeps a model together with
//! the sliding window of rows it trains on, where every row carries its
//! *fold*: the sum of every current tree's output on that row, summed in
//! tree order from the empty sum exactly as [`Gbt::predict_margin`] sums.
//! A refresh therefore starts each margin at `base + fold` instead of
//! re-evaluating the whole ensemble; the columns are sorted once for all of
//! its trees; and each new tree's output on every row comes from the tree
//! builder's leaf assignment, which is added to margin and fold alike.
//! Trees and folds change only together: the window's rows can only be
//! boosted through the booster that owns both, so every cached fold equals
//! a fresh sum over the model's trees, bit for bit.

use crate::dataset::{Dataset, Window, EMPTY_FOLD};
use crate::objective;
use crate::params::GbtParams;
use crate::trainer::{Columns, TreeBuilder};
use crate::tree::Tree;
use serde::{Deserialize, Serialize};

/// A gradient-boosted tree ensemble for binary classification.
///
/// Train once with [`Gbt::train`], or refresh an existing model on new data
/// with [`Gbt::train_continuation`]. Long-running learners use
/// [`IncrementalBooster`], which continues training from cached margins —
/// the incremental-learning primitive the paper's XGB policies are built
/// on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbt {
    trees: Vec<Tree>,
    params: GbtParams,
    base_margin: f64,
    n_features: usize,
}

/// Summary statistics from [`Gbt::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Mean binary cross-entropy.
    pub logloss: f64,
    /// Accuracy at the 0.5 discrimination threshold.
    pub accuracy: f64,
    /// Number of rows evaluated.
    pub n_rows: usize,
}

impl Gbt {
    /// A model with no trees yet.
    ///
    /// Panics on invalid parameters (see [`GbtParams::validate`]).
    pub(crate) fn untrained(params: &GbtParams, n_features: usize) -> Gbt {
        params.validate().expect("invalid GbtParams");
        Gbt {
            trees: Vec::new(),
            params: params.clone(),
            base_margin: params.base_margin(),
            n_features,
        }
    }

    /// Trains a fresh ensemble of `params.rounds` trees.
    ///
    /// Panics on invalid parameters (see [`GbtParams::validate`]).
    pub fn train(data: &Dataset, params: &GbtParams) -> Gbt {
        let mut model = Gbt::untrained(params, data.n_features());
        model.boost(
            &mut Window::from_dataset(data, |_| EMPTY_FOLD),
            params.rounds,
        );
        model
    }

    /// Boosts `rounds` additional trees fitted to `data`, starting from the
    /// current model's margins (XGBoost's training continuation).
    ///
    /// `data` must have the same feature width the model was trained with.
    pub fn train_continuation(&mut self, data: &Dataset, rounds: usize) {
        assert_eq!(
            data.n_features(),
            self.n_features,
            "continuation data width {} != model width {}",
            data.n_features(),
            self.n_features
        );
        let mut window = Window::from_dataset(data, |row| self.fold(row));
        self.boost(&mut window, rounds);
    }

    /// Boosts `rounds` trees fitted to `window`'s rows, whose folds must be
    /// this model's. Each margin starts at `base + fold`; every new tree's
    /// leaf value per row, which is that tree's output on the row, extends
    /// both the margin and the fold.
    fn boost(&mut self, window: &mut Window, rounds: usize) {
        if window.is_empty() || rounds == 0 {
            return;
        }
        let n = window.len();
        let mut margins: Vec<f64> = (0..n).map(|i| self.base_margin + window.fold(i)).collect();
        let columns = Columns::presort(window);
        let mut builder = TreeBuilder::new(&columns, &self.params);
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        for _ in 0..rounds {
            for (i, &m) in margins.iter().enumerate() {
                grad[i] = objective::grad(m, window.label(i) as f64);
                hess[i] = objective::hess(m);
            }
            let tree = builder.build(&grad, &hess);
            for (i, (m, &output)) in margins.iter_mut().zip(builder.leaf_values()).enumerate() {
                debug_assert_eq!(
                    output.to_bits(),
                    tree.predict(window.row(i)).to_bits(),
                    "leaf value of row {i} differs from the tree's prediction"
                );
                *m += output;
                window.add_to_fold(i, output);
            }
            self.trees.push(tree);
        }
    }

    /// The sum of every tree's output on `row`, in tree order.
    fn fold(&self, row: &[f32]) -> f64 {
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>()
    }

    /// The raw boosting margin (log-odds) for one row.
    pub fn predict_margin(&self, row: &[f32]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        self.base_margin + self.fold(row)
    }

    /// The predicted probability of the positive class for one row.
    pub fn predict_proba(&self, row: &[f32]) -> f64 {
        objective::sigmoid(self.predict_margin(row))
    }

    /// Probabilities for every row of a dataset.
    pub fn predict_proba_batch(&self, data: &Dataset) -> Vec<f64> {
        (0..data.n_rows())
            .map(|i| self.predict_proba(data.row(i)))
            .collect()
    }

    /// Logloss and accuracy of this model over a labelled dataset.
    pub fn evaluate(&self, data: &Dataset) -> EvalReport {
        let probs = self.predict_proba_batch(data);
        EvalReport {
            logloss: objective::logloss(&probs, data.labels()),
            accuracy: objective::accuracy(&probs, data.labels(), 0.5),
            n_rows: data.n_rows(),
        }
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Feature width the model expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The training parameters the model carries.
    pub fn params(&self) -> &GbtParams {
        &self.params
    }

    /// Gain-based feature importance, normalized to sum to 1 (all zeros if
    /// no split was ever made).
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (f, g) in tree.feature_gain().iter().enumerate() {
                imp[f] += g;
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Approximate in-memory footprint (§7.7 overhead reporting).
    pub fn approx_memory_bytes(&self) -> usize {
        std::mem::size_of::<Gbt>()
            + self
                .trees
                .iter()
                .map(|t| t.approx_memory_bytes())
                .sum::<usize>()
    }

    /// Appends a tree grown elsewhere (the reference booster).
    #[cfg(test)]
    pub(crate) fn push_tree(&mut self, tree: Tree) {
        self.trees.push(tree);
    }
}

/// A model together with the sliding window of labelled rows it trains on,
/// each row carrying its fold under the model (see the module docs).
///
/// [`IncrementalBooster::observe`] scores a row and then buffers it
/// (test-then-train); [`IncrementalBooster::fit`] trains from scratch and
/// [`IncrementalBooster::boost`] continues training. Both produce exactly
/// the trees the same calls on a [`Gbt`] over the window's rows would.
#[derive(Debug, Clone)]
pub struct IncrementalBooster {
    model: Option<Gbt>,
    window: Window,
}

impl IncrementalBooster {
    /// No model yet, and an empty window that keeps the newest `max_rows`
    /// rows of `n_features` columns.
    pub fn new(n_features: usize, max_rows: usize) -> Self {
        IncrementalBooster {
            model: None,
            window: Window::new(n_features, max_rows),
        }
    }

    /// Returns the current model's probability of the positive class for
    /// `features` (`None` before the first fit), bit for bit
    /// [`Gbt::predict_proba`], then appends the labelled row with its fold,
    /// dropping the oldest row once the window is full. `label` is 0 or 1.
    pub fn observe(&mut self, features: &[f32], label: f32) -> Option<f64> {
        let (fold, proba) = match &self.model {
            Some(model) => {
                let fold = model.fold(features);
                (fold, Some(objective::sigmoid(model.base_margin + fold)))
            }
            None => (EMPTY_FOLD, None),
        };
        self.window.push(features, label, fold);
        proba
    }

    /// Trains a fresh model of `params.rounds` trees on the window: the
    /// first fit, a retrain or a compaction.
    ///
    /// Panics on invalid parameters (see [`GbtParams::validate`]).
    pub fn fit(&mut self, params: &GbtParams) {
        let mut model = Gbt::untrained(params, self.window.n_features());
        self.window.reset_folds();
        model.boost(&mut self.window, params.rounds);
        self.model = Some(model);
    }

    /// Boosts `rounds` more trees onto the model from the cached folds
    /// (training continuation).
    ///
    /// Panics when no model has been fitted yet.
    pub fn boost(&mut self, rounds: usize) {
        let model = self.model.as_mut().expect("boost needs a fitted model");
        model.boost(&mut self.window, rounds);
    }

    /// The current model, once fitted.
    pub fn model(&self) -> Option<&Gbt> {
        self.model.as_ref()
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no row is buffered.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two gaussian-ish blobs separated along a noisy linear boundary.
    fn blob_dataset(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let y = rng.gen_bool(0.5);
            let center = if y { 1.0 } else { -1.0 };
            let x0 = center + rng.gen_range(-0.8..0.8);
            let x1 = center * 0.5 + rng.gen_range(-0.8..0.8);
            let x2: f32 = rng.gen_range(-1.0..1.0); // pure noise
            d.push_row(&[x0 as f32, x1 as f32, x2], if y { 1.0 } else { 0.0 });
        }
        d
    }

    #[test]
    fn learns_separable_blobs() {
        let train = blob_dataset(1, 400);
        let test = blob_dataset(2, 200);
        let params = GbtParams {
            rounds: 20,
            max_depth: 4,
            ..GbtParams::default()
        };
        let model = Gbt::train(&train, &params);
        let report = model.evaluate(&test);
        assert!(report.accuracy > 0.9, "test accuracy {}", report.accuracy);
        assert_eq!(model.n_trees(), 20);
    }

    #[test]
    fn more_rounds_reduce_train_logloss() {
        let data = blob_dataset(3, 300);
        let short = Gbt::train(
            &data,
            &GbtParams {
                rounds: 2,
                ..GbtParams::default()
            },
        );
        let long = Gbt::train(
            &data,
            &GbtParams {
                rounds: 20,
                ..GbtParams::default()
            },
        );
        assert!(
            long.evaluate(&data).logloss < short.evaluate(&data).logloss,
            "boosting must reduce training loss"
        );
    }

    #[test]
    fn continuation_adds_trees_and_improves_on_new_data() {
        let old = blob_dataset(4, 200);
        let mut model = Gbt::train(
            &old,
            &GbtParams {
                rounds: 5,
                ..GbtParams::default()
            },
        );
        // "New" data with inverted labels: the refreshed model must adapt.
        let mut flipped = Dataset::new(3);
        for i in 0..old.n_rows() {
            flipped.push_row(old.row(i), 1.0 - old.label(i));
        }
        let before = model.evaluate(&flipped).logloss;
        model.train_continuation(&flipped, 15);
        let after = model.evaluate(&flipped).logloss;
        assert_eq!(model.n_trees(), 20);
        assert!(
            after < before,
            "continuation must adapt: {before} -> {after}"
        );
    }

    #[test]
    fn empty_training_yields_prior_model() {
        let d = Dataset::new(2);
        let model = Gbt::train(&d, &GbtParams::default());
        assert_eq!(model.n_trees(), 0);
        assert!((model.predict_proba(&[0.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn determinism_same_data_same_model() {
        let data = blob_dataset(5, 150);
        let p = GbtParams {
            rounds: 8,
            ..GbtParams::default()
        };
        let a = Gbt::train(&data, &p);
        let b = Gbt::train(&data, &p);
        for i in 0..data.n_rows() {
            assert_eq!(
                a.predict_margin(data.row(i)).to_bits(),
                b.predict_margin(data.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn noise_feature_has_lowest_importance() {
        let data = blob_dataset(6, 500);
        let model = Gbt::train(
            &data,
            &GbtParams {
                rounds: 10,
                max_depth: 4,
                ..GbtParams::default()
            },
        );
        let imp = model.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            imp[2] < imp[0],
            "noise feature should matter least: {imp:?}"
        );
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let data = blob_dataset(7, 100);
        let model = Gbt::train(&data, &GbtParams::default());
        let json = serde_json::to_string(&model).expect("serialize");
        let back: Gbt = serde_json::from_str(&json).expect("deserialize");
        for i in 0..data.n_rows() {
            assert_eq!(
                model.predict_margin(data.row(i)).to_bits(),
                back.predict_margin(data.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn memory_footprint_grows_with_trees() {
        let data = blob_dataset(9, 200);
        let small = Gbt::train(
            &data,
            &GbtParams {
                rounds: 1,
                ..GbtParams::default()
            },
        );
        let big = Gbt::train(
            &data,
            &GbtParams {
                rounds: 10,
                ..GbtParams::default()
            },
        );
        assert!(big.approx_memory_bytes() > small.approx_memory_bytes());
    }

    #[test]
    fn incremental_booster_serves_after_its_first_fit() {
        let data = blob_dataset(10, 80);
        let params = GbtParams {
            rounds: 3,
            max_depth: 3,
            ..GbtParams::default()
        };
        let mut booster = IncrementalBooster::new(3, 50);
        for i in 0..40 {
            assert_eq!(booster.observe(data.row(i), data.label(i)), None);
        }
        booster.fit(&params);
        assert_eq!(booster.model().map(Gbt::n_trees), Some(3));
        let model = booster.model().unwrap().clone();
        for i in 40..80 {
            let p = booster.observe(data.row(i), data.label(i));
            assert_eq!(
                p.map(f64::to_bits),
                Some(model.predict_proba(data.row(i)).to_bits())
            );
        }
        assert_eq!(booster.len(), 50, "the window keeps its newest 50 rows");
        booster.boost(2);
        assert_eq!(booster.model().map(Gbt::n_trees), Some(5));
    }

    /// The learner the oracle replays against: the reference booster over a
    /// plain sliding buffer, re-predicting every row at every refresh.
    struct ReferenceLearner {
        model: Option<Gbt>,
        rows: std::collections::VecDeque<(Vec<f32>, f32)>,
        width: usize,
        max_rows: usize,
    }

    impl ReferenceLearner {
        fn observe(&mut self, x: &[f32], y: f32) -> Option<f64> {
            let p = self.model.as_ref().map(|m| m.predict_proba(x));
            self.rows.push_back((x.to_vec(), y));
            if self.rows.len() > self.max_rows {
                self.rows.pop_front();
            }
            p
        }

        fn dataset(&self) -> Dataset {
            let mut d = Dataset::new(self.width);
            for (x, y) in &self.rows {
                d.push_row(x, *y);
            }
            d
        }
    }

    /// A feature value from a small pool, so ties are common, with
    /// adjacent floats, both zeros, continuous draws and missing values
    /// mixed in.
    fn draw_value(rng: &mut StdRng, nan_pct: u32) -> f32 {
        const POOL: [f32; 6] = [0.0, -0.0, 0.25, 0.5, 1.0, 3.0];
        if rng.gen_range(0u32..100) < nan_pct {
            return f32::NAN;
        }
        let base = POOL[rng.gen_range(0..POOL.len())];
        match rng.gen_range(0u32..4) {
            0 => f32::from_bits(base.to_bits() + 1),
            1 => rng.gen_range(-2.0f32..4.0),
            _ => base,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The oracle: a random observe/refresh stream replayed through the
        /// incremental booster and through the reference learner yields the
        /// same prequential probabilities, the same trees node for node and
        /// the same margin bits on every buffered row after every refresh,
        /// in incremental mode (with compactions past `max_trees`) and in
        /// retrain mode.
        #[test]
        fn prop_incremental_booster_matches_reference(
            seed in 0u64..1_000_000,
            width in 1usize..6,
            nan_pct in 0u32..90,
            max_rows in 1usize..80,
            shape in (1usize..4, 0usize..7, 1usize..4, 1usize..25),
            retrain in proptest::bool::ANY,
            any_child_weight in proptest::bool::ANY,
        ) {
            let (rounds, max_depth, cap, every) = shape;
            let params = GbtParams {
                rounds,
                max_depth,
                min_child_weight: if any_child_weight { 0.0 } else { 1.0 },
                ..GbtParams::default()
            };
            let max_trees = rounds * cap;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut booster = IncrementalBooster::new(width, max_rows);
            let mut reference = ReferenceLearner {
                model: None,
                rows: Default::default(),
                width,
                max_rows,
            };
            let (mut refreshes, mut compactions) = (0, 0);
            let n_obs = every * (cap + 3) + max_rows;
            for k in 0..n_obs {
                let x: Vec<f32> = (0..width).map(|_| draw_value(&mut rng, nan_pct)).collect();
                let signal = x[0].is_nan() || x[0] > 0.4;
                let flip = k > n_obs / 2 || rng.gen_bool(0.15);
                let y = if signal != flip { 1.0 } else { 0.0 };
                let p = booster.observe(&x, y);
                let p_ref = reference.observe(&x, y);
                prop_assert_eq!(p.map(f64::to_bits), p_ref.map(f64::to_bits));
                if (k + 1) % every != 0 {
                    continue;
                }

                refreshes += 1;
                let data = reference.dataset();
                match (retrain, reference.model.as_mut()) {
                    (false, Some(model)) => {
                        crate::reference::train_continuation(model, &data, rounds);
                        if model.n_trees() > max_trees {
                            *model = crate::reference::train(&data, &params);
                        }
                    }
                    _ => reference.model = Some(crate::reference::train(&data, &params)),
                }
                match booster.model() {
                    Some(m) if !retrain && m.n_trees() + rounds <= max_trees => {
                        booster.boost(rounds)
                    }
                    Some(_) if !retrain => {
                        compactions += 1;
                        booster.fit(&params);
                    }
                    _ => booster.fit(&params),
                }

                let model = booster.model().unwrap();
                let model_ref = reference.model.as_ref().unwrap();
                prop_assert_eq!(&model.trees, &model_ref.trees);
                prop_assert_eq!(booster.len(), data.n_rows());
                for i in 0..data.n_rows() {
                    let margin = model.base_margin + booster.window.fold(i);
                    prop_assert_eq!(
                        margin.to_bits(),
                        model_ref.predict_margin(data.row(i)).to_bits()
                    );
                    prop_assert_eq!(
                        margin.to_bits(),
                        model.predict_margin(booster.window.row(i)).to_bits()
                    );
                }
            }
            prop_assert!(refreshes >= cap + 3);
            prop_assert!(retrain || compactions > 0, "no compaction ran");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Predictions are finite probabilities for arbitrary inputs,
        /// including all-missing rows.
        #[test]
        fn prop_predictions_are_probabilities(
            seed in 0u64..1000,
            probe in proptest::collection::vec(
                proptest::option::of(-100.0f32..100.0), 3)
        ) {
            let data = blob_dataset(seed, 60);
            let model = Gbt::train(&data, &GbtParams {
                rounds: 4, ..GbtParams::default()
            });
            let row: Vec<f32> = probe.iter().map(|o| o.unwrap_or(f32::NAN)).collect();
            let p = model.predict_proba(&row);
            prop_assert!(p.is_finite());
            prop_assert!((0.0..=1.0).contains(&p));
        }

        /// Training never increases logloss on its own training set relative
        /// to the prior-only model.
        #[test]
        fn prop_training_beats_prior(seed in 0u64..500) {
            let data = blob_dataset(seed, 120);
            let prior = Gbt::train(&Dataset::new(3), &GbtParams::default());
            let probs_prior: Vec<f64> =
                (0..data.n_rows()).map(|i| prior.predict_proba(data.row(i))).collect();
            let prior_ll = crate::objective::logloss(&probs_prior, data.labels());

            let model = Gbt::train(&data, &GbtParams {
                rounds: 5, ..GbtParams::default()
            });
            prop_assert!(model.evaluate(&data).logloss <= prior_ll + 1e-9);
        }
    }
}
