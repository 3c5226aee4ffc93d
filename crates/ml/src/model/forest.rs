//! Random forests with two physical implementations producing *bitwise
//! identical* models: sequential tree construction ("sklearn") and
//! multi-threaded construction over std scoped threads ("cuML
//! parallel"). Each tree's bootstrap sample and feature subset derive from
//! `seed + tree_index`, so the schedule cannot change the result — only the
//! wall-clock cost. This is the cleanest possible instance of the paper's
//! task equivalence: same artifact, different cost.
//!
//! Each member is one [`build_tree`] call on n bootstrap rows and d′ =
//! ⌈√d⌉ features: O(d′·n log n) to presort its columns plus O(d′·n) per
//! tree level (see [`crate::model::tree`]), so a forest of T trees of depth
//! D costs O(T·d′·n·(log n + D)). Scratch space is per tree and freed
//! before the next one, so peak memory is O(d′·n) per worker, whatever T.

use crate::artifact::{OpState, TreeModel};
use crate::config::Config;
use crate::error::MlError;
use crate::model::tree::{build_tree, TreeParams};
use hyppo_tensor::{Dataset, SeededRng, TaskKind};

fn check_trainable(data: &Dataset) -> Result<(), MlError> {
    if data.is_empty() || data.n_features() == 0 {
        return Err(MlError::BadInput("forest fit on empty dataset".into()));
    }
    if data.x.has_missing() {
        return Err(MlError::BadInput("forest fit requires imputed data".into()));
    }
    Ok(())
}

struct ForestConfig {
    n_trees: usize,
    params: TreeParams,
    seed: u64,
}

fn forest_config(config: &Config) -> ForestConfig {
    ForestConfig {
        n_trees: config.usize_or("n_trees", 10).max(1),
        params: TreeParams {
            max_depth: config.usize_or("max_depth", 6),
            min_leaf: config.usize_or("min_leaf", 2),
            max_thresholds: 12,
        },
        seed: config.i_or("seed", 101) as u64,
    }
}

/// Tree `t`'s sample: bootstrap rows and a random `ceil(sqrt(d))`-feature
/// subset, both derived from `seed + t`.
fn member_sample(data: &Dataset, cfg: &ForestConfig, t: usize) -> (Vec<usize>, Vec<usize>) {
    let n = data.len();
    let d = data.n_features();
    let mut rng = SeededRng::new(cfg.seed.wrapping_add(t as u64));
    let rows: Vec<usize> = (0..n).map(|_| rng.index(n)).collect();
    let n_feat = ((d as f64).sqrt().ceil() as usize).clamp(1, d);
    let mut features: Vec<usize> = rng.permutation(d).into_iter().take(n_feat).collect();
    features.sort_unstable();
    (rows, features)
}

/// Build tree `t` of the forest on its sample.
fn build_member(data: &Dataset, cfg: &ForestConfig, t: usize) -> Result<TreeModel, MlError> {
    let (rows, features) = member_sample(data, cfg, t);
    build_tree(&data.x, &data.y, &rows, &features, cfg.params)
}

/// Impl 0 ("sklearn"): sequential tree construction.
pub fn fit_forest_sequential(data: &Dataset, config: &Config) -> Result<OpState, MlError> {
    check_trainable(data)?;
    let cfg = forest_config(config);
    let mut trees = Vec::with_capacity(cfg.n_trees);
    for t in 0..cfg.n_trees {
        trees.push(build_member(data, &cfg, t)?);
    }
    Ok(OpState::Forest { trees, classification: data.task == TaskKind::Classification })
}

/// Impl 1 ("cuML parallel"): the same trees built concurrently on scoped
/// threads. Identical output to the sequential impl by construction.
pub fn fit_forest_parallel(data: &Dataset, config: &Config) -> Result<OpState, MlError> {
    check_trainable(data)?;
    let cfg = forest_config(config);
    let n_workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2).min(8);
    let results: Vec<Result<TreeModel, MlError>> = std::thread::scope(|scope| {
        let cfg = &cfg;
        let mut handles = Vec::new();
        for w in 0..n_workers {
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                let mut t = w;
                while t < cfg.n_trees {
                    local.push((t, build_member(data, cfg, t)));
                    t += n_workers;
                }
                local
            }));
        }
        let mut collected: Vec<(usize, Result<TreeModel, MlError>)> = Vec::new();
        for h in handles {
            collected.extend(h.join().expect("forest worker panicked"));
        }
        collected.sort_by_key(|(t, _)| *t);
        collected.into_iter().map(|(_, r)| r).collect()
    });

    let mut trees = Vec::with_capacity(cfg.n_trees);
    for r in results {
        trees.push(r?);
    }
    Ok(OpState::Forest { trees, classification: data.task == TaskKind::Classification })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::predict_model;
    use hyppo_tensor::Matrix;

    fn step_dataset(n: usize, task: TaskKind) -> Dataset {
        let mut rng = SeededRng::new(3);
        let mut x = Matrix::zeros(n, 4);
        let mut y = Vec::new();
        for r in 0..n {
            for c in 0..4 {
                x.set(r, c, rng.uniform(-1.0, 1.0));
            }
            let v = if x.get(r, 0) + 0.5 * x.get(r, 1) > 0.0 { 1.0 } else { 0.0 };
            y.push(v);
        }
        let names = (0..4).map(|i| format!("f{i}")).collect();
        Dataset::new(x, y, names, task)
    }

    #[test]
    fn sequential_and_parallel_are_bitwise_identical() {
        let d = step_dataset(200, TaskKind::Classification);
        let cfg = Config::new().with_i("n_trees", 12).with_i("seed", 5);
        let a = fit_forest_sequential(&d, &cfg).unwrap();
        let b = fit_forest_parallel(&d, &cfg).unwrap();
        assert_eq!(a, b, "parallel schedule must not change the model");
    }

    #[test]
    fn forest_classifies_reasonably() {
        let d = step_dataset(400, TaskKind::Classification);
        let cfg = Config::new().with_i("n_trees", 20);
        let s = fit_forest_sequential(&d, &cfg).unwrap();
        let preds = predict_model(&s, &d).unwrap();
        let acc = preds.iter().zip(&d.y).filter(|(p, y)| p == y).count() as f64 / d.len() as f64;
        assert!(acc > 0.85, "training accuracy {acc}");
    }

    #[test]
    fn regression_forest_outputs_means() {
        let d = step_dataset(200, TaskKind::Regression);
        let cfg = Config::new().with_i("n_trees", 5);
        let s = fit_forest_sequential(&d, &cfg).unwrap();
        let preds = predict_model(&s, &d).unwrap();
        // Regression outputs need not be binary.
        assert!(preds.iter().any(|p| *p != 0.0 && *p != 1.0));
    }

    #[test]
    fn tree_count_respected() {
        let d = step_dataset(50, TaskKind::Regression);
        let cfg = Config::new().with_i("n_trees", 7);
        let OpState::Forest { trees, .. } = fit_forest_sequential(&d, &cfg).unwrap() else {
            panic!()
        };
        assert_eq!(trees.len(), 7);
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let d = step_dataset(100, TaskKind::Regression);
        let a = fit_forest_sequential(&d, &Config::new().with_i("seed", 1)).unwrap();
        let b = fit_forest_sequential(&d, &Config::new().with_i("seed", 2)).unwrap();
        assert_ne!(a, b);
    }

    /// `RandomForest` fits at `sweep_real`'s shapes (40 trees, depth 6 and
    /// 8, on HIGGS and TAXI training splits), both impls, equal the same
    /// members built by the per-node-sorting oracle bit for bit.
    #[test]
    fn sweep_fits_match_the_oracle_bit_for_bit() {
        use crate::model::tree::oracle::{assert_same_bits, build_tree_oracle, sweep_train_set};
        use crate::{execute, Artifact, LogicalOp, TaskType};
        for taxi in [false, true] {
            let data = sweep_train_set(taxi, 1);
            let input = Artifact::Data(data.clone());
            for max_depth in [6, 8] {
                let config = Config::new()
                    .with_i("n_trees", 40)
                    .with_i("max_depth", max_depth)
                    .with_i("seed", 1);
                let cfg = forest_config(&config);
                let want: Vec<TreeModel> = (0..cfg.n_trees)
                    .map(|t| {
                        let (rows, features) = member_sample(&data, &cfg, t);
                        build_tree_oracle(&data.x, &data.y, &rows, &features, cfg.params).unwrap()
                    })
                    .collect();
                for imp in [0, 1] {
                    let out =
                        execute(LogicalOp::RandomForest, TaskType::Fit, imp, &config, &[&input])
                            .unwrap();
                    let [Artifact::OpState(OpState::Forest { trees, .. })] = out.as_slice() else {
                        panic!("expected a forest, got {out:?}")
                    };
                    assert_eq!(trees.len(), want.len());
                    for (t, (got, want)) in trees.iter().zip(&want).enumerate() {
                        let context =
                            format!("taxi {taxi}, depth {max_depth}, impl {imp}, tree {t}");
                        assert_same_bits(got, want, &context);
                    }
                }
            }
        }
    }

    #[test]
    fn missing_data_rejected() {
        let mut d = step_dataset(20, TaskKind::Regression);
        d.x.set(0, 0, f64::NAN);
        assert!(fit_forest_sequential(&d, &Config::new()).is_err());
        assert!(fit_forest_parallel(&d, &Config::new()).is_err());
    }
}
