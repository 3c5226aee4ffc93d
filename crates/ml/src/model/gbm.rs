//! Gradient-boosted regression trees with two physical implementations:
//! exact greedy splits ("sklearn GradientBoosting") and histogram-binned
//! splits ("LightGBM"). The histogram variant quantizes each feature to a
//! fixed number of bins once up front, making split search O(bins) instead
//! of O(unique values) — the real LightGBM trick. Predictions agree closely
//! but not bitwise, as with the real library pair.
//!
//! Binary classification uses the same squared-loss boosting on 0/1 labels
//! with a 0.5 decision threshold (least-squares boosting), keeping both
//! implementations exactly comparable.

use crate::artifact::{OpState, TreeModel, TreeNode};
use crate::config::Config;
use crate::error::MlError;
use crate::model::tree::{build_tree, TreeParams};
use hyppo_tensor::{Dataset, Matrix, TaskKind};

fn check_trainable(data: &Dataset) -> Result<(), MlError> {
    if data.is_empty() || data.n_features() == 0 {
        return Err(MlError::BadInput("GBM fit on empty dataset".into()));
    }
    if data.x.has_missing() {
        return Err(MlError::BadInput("GBM fit requires imputed data".into()));
    }
    Ok(())
}

struct GbmConfig {
    n_rounds: usize,
    learning_rate: f64,
    max_depth: usize,
}

fn gbm_config(config: &Config) -> GbmConfig {
    GbmConfig {
        n_rounds: config.usize_or("n_rounds", 20),
        learning_rate: config.f_or("lr", 0.2),
        max_depth: config.usize_or("max_depth", 3),
    }
}

/// Impl 0 ("sklearn"): boosting with exact greedy trees.
pub fn fit_gbm_exact(data: &Dataset, config: &Config) -> Result<OpState, MlError> {
    boost_exact(data, config, build_tree)
}

/// A tree builder with [`build_tree`]'s signature.
type TreeBuilder =
    fn(&Matrix, &[f64], &[usize], &[usize], TreeParams) -> Result<TreeModel, MlError>;

/// [`fit_gbm_exact`]'s boosting loop over the given tree builder.
fn boost_exact(data: &Dataset, config: &Config, build: TreeBuilder) -> Result<OpState, MlError> {
    check_trainable(data)?;
    let cfg = gbm_config(config);
    let n = data.len();
    let base = data.y.iter().sum::<f64>() / n as f64;
    let mut residual: Vec<f64> = data.y.iter().map(|y| y - base).collect();
    let rows: Vec<usize> = (0..n).collect();
    let features: Vec<usize> = (0..data.n_features()).collect();
    let params = TreeParams { max_depth: cfg.max_depth, min_leaf: 4, max_thresholds: 16 };
    let mut trees = Vec::with_capacity(cfg.n_rounds);
    for _ in 0..cfg.n_rounds {
        let tree = build(&data.x, &residual, &rows, &features, params)?;
        for (res, row) in residual.iter_mut().zip(data.x.rows_iter()) {
            *res -= cfg.learning_rate * tree.predict_row(row);
        }
        trees.push(tree);
    }
    Ok(OpState::Gbm { trees, learning_rate: cfg.learning_rate, base })
}

/// Per-feature histogram binning: 32 equal-width bins over the training
/// range, with real-value thresholds at bin boundaries so the produced
/// trees evaluate on raw features.
struct Histogram {
    /// `n × d` bin index matrix.
    bins: Vec<Vec<u8>>,
    /// Bin boundary values per feature: `boundaries[f][b]` is the raw
    /// threshold separating bin `b` from `b + 1`.
    boundaries: Vec<Vec<f64>>,
}

const N_BINS: usize = 32;

fn build_histogram(x: &Matrix) -> Histogram {
    let (n, d) = x.shape();
    let mut boundaries = Vec::with_capacity(d);
    for f in 0..d {
        let col = x.col(f);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &col {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let span = if hi > lo { hi - lo } else { 1.0 };
        boundaries
            .push((1..N_BINS).map(|b| lo + span * b as f64 / N_BINS as f64).collect::<Vec<f64>>());
    }
    let mut bins = vec![vec![0u8; d]; n];
    for (r, bin_row) in bins.iter_mut().enumerate() {
        let row = x.row(r);
        for (f, bin) in bin_row.iter_mut().enumerate() {
            let b = boundaries[f].partition_point(|&t| t < row[f]);
            *bin = b as u8;
        }
    }
    Histogram { bins, boundaries }
}

/// Build one histogram tree on the residuals. Splits choose a bin boundary
/// by variance reduction computed from per-bin (count, sum) accumulators.
fn build_hist_tree(
    hist: &Histogram,
    residual: &[f64],
    rows: Vec<usize>,
    max_depth: usize,
    min_leaf: usize,
) -> TreeModel {
    let mut nodes = Vec::new();
    grow(hist, residual, rows, 0, max_depth, min_leaf, &mut nodes);
    TreeModel { nodes }
}

fn grow(
    hist: &Histogram,
    residual: &[f64],
    rows: Vec<usize>,
    depth: usize,
    max_depth: usize,
    min_leaf: usize,
    nodes: &mut Vec<TreeNode>,
) -> usize {
    let n = rows.len() as f64;
    let total: f64 = rows.iter().map(|&r| residual[r]).sum();
    let mean = total / n;
    if depth >= max_depth || rows.len() < 2 * min_leaf {
        nodes.push(TreeNode::Leaf { value: mean });
        return nodes.len() - 1;
    }
    let d = hist.boundaries.len();
    let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, bin)
    let mut counts = [0f64; N_BINS];
    let mut sums = [0f64; N_BINS];
    for f in 0..d {
        counts.fill(0.0);
        sums.fill(0.0);
        for &r in &rows {
            let b = hist.bins[r][f] as usize;
            counts[b] += 1.0;
            sums[b] += residual[r];
        }
        // Scan split points left to right.
        let mut left_n = 0.0;
        let mut left_sum = 0.0;
        for b in 0..N_BINS - 1 {
            left_n += counts[b];
            left_sum += sums[b];
            let right_n = n - left_n;
            if left_n < min_leaf as f64 || right_n < min_leaf as f64 {
                continue;
            }
            let right_sum = total - left_sum;
            let gain =
                left_sum * left_sum / left_n + right_sum * right_sum / right_n - total * total / n;
            let improved = match best {
                None => gain > 1e-12,
                Some((g, ..)) => gain > g + 1e-12,
            };
            if improved {
                best = Some((gain, f, b));
            }
        }
    }
    let Some((_, feature, bin)) = best else {
        nodes.push(TreeNode::Leaf { value: mean });
        return nodes.len() - 1;
    };
    let threshold = hist.boundaries[feature][bin];
    let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
        rows.into_iter().partition(|&r| (hist.bins[r][feature] as usize) <= bin);
    let idx = nodes.len();
    nodes.push(TreeNode::Leaf { value: mean }); // placeholder
    let left = grow(hist, residual, left_rows, depth + 1, max_depth, min_leaf, nodes);
    let right = grow(hist, residual, right_rows, depth + 1, max_depth, min_leaf, nodes);
    nodes[idx] = TreeNode::Split { feature, threshold, left, right };
    idx
}

/// Impl 1 ("LightGBM"): boosting with histogram-binned trees.
pub fn fit_gbm_histogram(data: &Dataset, config: &Config) -> Result<OpState, MlError> {
    check_trainable(data)?;
    let cfg = gbm_config(config);
    let n = data.len();
    let base = data.y.iter().sum::<f64>() / n as f64;
    let hist = build_histogram(&data.x);
    let mut residual: Vec<f64> = data.y.iter().map(|y| y - base).collect();
    let mut trees = Vec::with_capacity(cfg.n_rounds);
    for _ in 0..cfg.n_rounds {
        let rows: Vec<usize> = (0..n).collect();
        let tree = build_hist_tree(&hist, &residual, rows, cfg.max_depth, 4);
        for (res, row) in residual.iter_mut().zip(data.x.rows_iter()) {
            *res -= cfg.learning_rate * tree.predict_row(row);
        }
        trees.push(tree);
    }
    Ok(OpState::Gbm { trees, learning_rate: cfg.learning_rate, base })
}

/// Threshold GBM outputs for classification datasets (used by the exec
/// dispatcher after [`crate::model::predict_model`]).
pub fn maybe_threshold(preds: Vec<f64>, data: &Dataset) -> Vec<f64> {
    if data.task == TaskKind::Classification {
        preds.into_iter().map(|p| if p >= 0.5 { 1.0 } else { 0.0 }).collect()
    } else {
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::predict_model;
    use hyppo_tensor::SeededRng;

    /// y = sin-ish nonlinear function of x0 plus linear x1.
    fn nonlinear(n: usize) -> Dataset {
        let mut rng = SeededRng::new(21);
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for r in 0..n {
            let a = rng.uniform(-2.0, 2.0);
            let b = rng.uniform(-1.0, 1.0);
            x.set(r, 0, a);
            x.set(r, 1, b);
            y.push(if a > 0.0 { 2.0 } else { -1.0 } + 0.5 * b + 0.01 * rng.normal());
        }
        Dataset::new(x, y, vec!["a".into(), "b".into()], TaskKind::Regression)
    }

    fn mse(preds: &[f64], truth: &[f64]) -> f64 {
        preds.iter().zip(truth).map(|(p, t)| (p - t).powi(2)).sum::<f64>() / truth.len() as f64
    }

    /// Exact `GradientBoosting` fits at `sweep_real`'s shapes (10 and 40
    /// rounds of depth 3 on HIGGS and TAXI training splits) equal the same
    /// boosting loop over the per-node-sorting oracle bit for bit.
    #[test]
    fn sweep_fits_match_the_oracle_bit_for_bit() {
        use crate::model::tree::oracle::{assert_same_bits, build_tree_oracle, sweep_train_set};
        use crate::{execute, Artifact, LogicalOp, TaskType};
        for taxi in [false, true] {
            let data = sweep_train_set(taxi, 2);
            for n_rounds in [10, 40] {
                let config = Config::new().with_i("n_rounds", n_rounds).with_i("max_depth", 3);
                let out = execute(
                    LogicalOp::GradientBoosting,
                    TaskType::Fit,
                    0,
                    &config,
                    &[&Artifact::Data(data.clone())],
                )
                .unwrap();
                let [Artifact::OpState(OpState::Gbm { trees, learning_rate, base })] =
                    out.as_slice()
                else {
                    panic!("expected a boosted model, got {out:?}")
                };
                let OpState::Gbm { trees: want, learning_rate: lr, base: b } =
                    boost_exact(&data, &config, build_tree_oracle).unwrap()
                else {
                    panic!("expected a boosted model")
                };
                assert_eq!((learning_rate.to_bits(), base.to_bits()), (lr.to_bits(), b.to_bits()));
                assert_eq!(trees.len(), want.len());
                for (t, (got, want)) in trees.iter().zip(&want).enumerate() {
                    assert_same_bits(
                        got,
                        want,
                        &format!("taxi {taxi}, {n_rounds} rounds, tree {t}"),
                    );
                }
            }
        }
    }

    #[test]
    fn exact_gbm_fits_nonlinear_target() {
        let d = nonlinear(400);
        let s = fit_gbm_exact(&d, &Config::new().with_i("n_rounds", 30)).unwrap();
        let preds = predict_model(&s, &d).unwrap();
        assert!(mse(&preds, &d.y) < 0.05, "mse {}", mse(&preds, &d.y));
    }

    #[test]
    fn histogram_gbm_fits_nonlinear_target() {
        let d = nonlinear(400);
        let s = fit_gbm_histogram(&d, &Config::new().with_i("n_rounds", 30)).unwrap();
        let preds = predict_model(&s, &d).unwrap();
        assert!(mse(&preds, &d.y) < 0.05, "mse {}", mse(&preds, &d.y));
    }

    #[test]
    fn impls_approximately_agree() {
        let d = nonlinear(400);
        let cfg = Config::new().with_i("n_rounds", 30);
        let a = predict_model(&fit_gbm_exact(&d, &cfg).unwrap(), &d).unwrap();
        let b = predict_model(&fit_gbm_histogram(&d, &cfg).unwrap(), &d).unwrap();
        let rms = mse(&a, &b).sqrt();
        assert!(rms < 0.2, "cross-impl rms {rms}");
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let d = nonlinear(300);
        let few = fit_gbm_exact(&d, &Config::new().with_i("n_rounds", 2)).unwrap();
        let many = fit_gbm_exact(&d, &Config::new().with_i("n_rounds", 40)).unwrap();
        let e_few = mse(&predict_model(&few, &d).unwrap(), &d.y);
        let e_many = mse(&predict_model(&many, &d).unwrap(), &d.y);
        assert!(e_many < e_few);
    }

    #[test]
    fn histogram_binning_covers_range() {
        let d = nonlinear(100);
        let hist = build_histogram(&d.x);
        assert_eq!(hist.boundaries.len(), 2);
        assert_eq!(hist.boundaries[0].len(), N_BINS - 1);
        for r in 0..100 {
            assert!((hist.bins[r][0] as usize) < N_BINS);
        }
    }

    #[test]
    fn maybe_threshold_only_for_classification() {
        let reg = nonlinear(5);
        let preds = vec![0.2, 0.7];
        assert_eq!(maybe_threshold(preds.clone(), &reg), preds);
        let cls = Dataset::new(
            Matrix::zeros(2, 1),
            vec![0.0, 1.0],
            vec!["a".into()],
            TaskKind::Classification,
        );
        assert_eq!(maybe_threshold(preds, &cls), vec![0.0, 1.0]);
    }

    #[test]
    fn missing_data_rejected() {
        let mut d = nonlinear(10);
        d.x.set(0, 0, f64::NAN);
        assert!(fit_gbm_exact(&d, &Config::new()).is_err());
        assert!(fit_gbm_histogram(&d, &Config::new()).is_err());
    }
}
