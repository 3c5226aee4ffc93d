//! The per-node-sorting CART builder the presorted [`super::build_tree`]
//! replaced, kept verbatim as a test oracle: every tree the presorted
//! builder emits must equal this one's bit for bit.

use crate::artifact::{TreeModel, TreeNode};
use crate::error::MlError;
use crate::model::tree::TreeParams;
use hyppo_tensor::Matrix;

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    features: &'a [usize],
    params: TreeParams,
    nodes: Vec<TreeNode>,
}

/// Reference implementation of [`super::build_tree`].
pub(crate) fn build_tree_oracle(
    x: &Matrix,
    y: &[f64],
    rows: &[usize],
    features: &[usize],
    params: TreeParams,
) -> Result<TreeModel, MlError> {
    if rows.is_empty() {
        return Err(MlError::BadInput("tree fit on zero rows".into()));
    }
    if features.is_empty() {
        return Err(MlError::BadInput("tree fit with zero features".into()));
    }
    let mut b = Builder { x, y, features, params, nodes: Vec::new() };
    let mut rows = rows.to_vec();
    b.split_node(&mut rows, 0);
    Ok(TreeModel { nodes: b.nodes })
}

impl Builder<'_> {
    fn split_node(&mut self, rows: &mut [usize], depth: usize) -> usize {
        let mean = rows.iter().map(|&r| self.y[r]).sum::<f64>() / rows.len() as f64;
        if depth >= self.params.max_depth || rows.len() < 2 * self.params.min_leaf {
            return self.leaf(mean);
        }
        let Some((feature, threshold)) = self.best_split(rows) else {
            return self.leaf(mean);
        };
        let mut lt = 0usize;
        for i in 0..rows.len() {
            if self.x.get(rows[i], feature) <= threshold {
                rows.swap(lt, i);
                lt += 1;
            }
        }
        if lt < self.params.min_leaf || rows.len() - lt < self.params.min_leaf {
            return self.leaf(mean);
        }
        let idx = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { value: mean });
        let (left_rows, right_rows) = rows.split_at_mut(lt);
        let left = self.split_node(left_rows, depth + 1);
        let right = self.split_node(right_rows, depth + 1);
        self.nodes[idx] = TreeNode::Split { feature, threshold, left, right };
        idx
    }

    fn leaf(&mut self, value: f64) -> usize {
        self.nodes.push(TreeNode::Leaf { value });
        self.nodes.len() - 1
    }

    fn best_split(&self, rows: &[usize]) -> Option<(usize, f64)> {
        let n = rows.len() as f64;
        let total_sum: f64 = rows.iter().map(|&r| self.y[r]).sum();
        let mut best: Option<(f64, usize, f64)> = None;
        let mut values: Vec<f64> = Vec::with_capacity(rows.len());
        for &f in self.features {
            values.clear();
            values.extend(rows.iter().map(|&r| self.x.get(r, f)));
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            sorted.dedup();
            if sorted.len() < 2 {
                continue;
            }
            let n_cand = self.params.max_thresholds.min(sorted.len() - 1);
            for c in 0..n_cand {
                let pos = (c + 1) * (sorted.len() - 1) / (n_cand + 1);
                let threshold = 0.5 * (sorted[pos] + sorted[pos + 1]);
                let mut left_sum = 0.0;
                let mut left_n = 0.0;
                for (&r, &v) in rows.iter().zip(&values) {
                    if v <= threshold {
                        left_sum += self.y[r];
                        left_n += 1.0;
                    }
                }
                let right_n = n - left_n;
                if left_n < self.params.min_leaf as f64 || right_n < self.params.min_leaf as f64 {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let gain = left_sum * left_sum / left_n + right_sum * right_sum / right_n
                    - total_sum * total_sum / n;
                let improved = match best {
                    None => gain > 1e-12,
                    Some((g, bf, bt)) => {
                        gain > g + 1e-12 || ((gain - g).abs() <= 1e-12 && (f, threshold) < (bf, bt))
                    }
                };
                if improved {
                    best = Some((gain, f, threshold));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

/// Assert two trees are equal bit for bit: same shape, same features, and
/// thresholds and leaf values with the same IEEE-754 bits (so `-0.0` and
/// `0.0`, which `==` conflates, differ, and equal NaNs match).
pub(crate) fn assert_same_bits(got: &TreeModel, want: &TreeModel, context: &str) {
    assert_eq!(got.nodes.len(), want.nodes.len(), "{context}: node count");
    for (i, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
        match (g, w) {
            (TreeNode::Leaf { value: a }, TreeNode::Leaf { value: b }) => {
                assert_eq!(a.to_bits(), b.to_bits(), "{context}: leaf {i}: {a} vs {b}");
            }
            (
                TreeNode::Split { feature: fa, threshold: ta, left: la, right: ra },
                TreeNode::Split { feature: fb, threshold: tb, left: lb, right: rb },
            ) => {
                assert_eq!((fa, la, ra), (fb, lb, rb), "{context}: split {i}");
                assert_eq!(ta.to_bits(), tb.to_bits(), "{context}: split {i}: {ta} vs {tb}");
            }
            _ => panic!("{context}: node {i}: {g:?} vs {w:?}"),
        }
    }
}

/// The training split of a `sweep_real` pipeline prefix (split → mean
/// imputation → TAXI feature engineering → standard scaling) on generated
/// data at that workload's scale: about 750 HIGGS or 975 TAXI rows.
pub(crate) fn sweep_train_set(taxi: bool, seed: u64) -> hyppo_tensor::Dataset {
    use crate::{execute, Artifact, Config, LogicalOp, TaskType};
    let raw = Artifact::Data(if taxi {
        hyppo_workloads::taxi::generate(1300, seed)
    } else {
        hyppo_workloads::higgs::generate(1000, seed)
    });
    let fit_transform = |op: LogicalOp, data: Artifact| -> Artifact {
        let cfg = Config::new();
        let state = execute(op, TaskType::Fit, 0, &cfg, &[&data]).unwrap().remove(0);
        execute(op, TaskType::Transform, 0, &cfg, &[&state, &data]).unwrap().remove(0)
    };
    let split = Config::new().with_i("seed", seed as i64);
    let mut data =
        execute(LogicalOp::TrainTestSplit, TaskType::Split, 0, &split, &[&raw]).unwrap().remove(0);
    data = fit_transform(LogicalOp::ImputerMean, data);
    if taxi {
        for op in [LogicalOp::HaversineFeature, LogicalOp::TimeFeatures] {
            data = execute(op, TaskType::Transform, 0, &Config::new(), &[&data]).unwrap().remove(0);
        }
    }
    match fit_transform(LogicalOp::StandardScaler, data) {
        Artifact::Data(d) => d,
        other => panic!("expected a dataset, got {other:?}"),
    }
}

mod tests {
    use super::*;
    use crate::model::tree::build_tree;
    use hyppo_tensor::SeededRng;

    /// One random column of a shape the builder must treat exactly:
    /// continuous, few tied levels, signed zeros, constant, extremes
    /// (overflowing midpoints, infinities), or adjacent floats (midpoints
    /// that round onto an endpoint).
    fn column(rng: &mut SeededRng, n: usize) -> Vec<f64> {
        let pick = |rng: &mut SeededRng, vals: &[f64]| vals[rng.index(vals.len())];
        match rng.index(8) {
            0 => (0..n).map(|_| rng.normal()).collect(),
            1 => (0..n).map(|_| rng.index(4) as f64 * 0.5 - 0.5).collect(),
            2 => (0..n).map(|_| pick(rng, &[-0.0, 0.0, 1.0, -1.0, 0.5])).collect(),
            3 => vec![2.5; n],
            4 => (0..n).map(|_| pick(rng, &[-0.0, 0.0])).collect(),
            5 => {
                let vals = [f64::MAX, -f64::MAX, 1e308, f64::INFINITY, f64::NEG_INFINITY, 0.0];
                (0..n).map(|_| pick(rng, &vals)).collect()
            }
            6 => (0..n).map(|_| pick(rng, &[f64::INFINITY, f64::NEG_INFINITY])).collect(),
            _ => (0..n).map(|_| 1.0 + rng.index(3) as f64 * f64::EPSILON).collect(),
        }
    }

    fn target(rng: &mut SeededRng, n: usize) -> Vec<f64> {
        match rng.index(3) {
            0 => (0..n).map(|_| if rng.chance(0.5) { 1.0 } else { 0.0 }).collect(),
            1 => (0..n).map(|_| rng.normal() * 3.0).collect(),
            _ => (0..n).map(|_| [-0.0, 0.0, 0.1, -2.5][rng.index(4)]).collect(),
        }
    }

    /// Seeded random inputs over every shape `build_tree` must reproduce:
    /// identity, bootstrap-duplicated and sub-sampled rows; sorted and
    /// unsorted feature subsets; 0/1 and real targets; every parameter mix.
    #[test]
    fn presorted_builder_matches_the_oracle_bit_for_bit() {
        let mut splits = 0;
        for seed in 0..1500u64 {
            let mut rng = SeededRng::new(seed);
            let n = 1 + rng.index(if seed % 10 == 0 { 600 } else { 120 });
            let d = 1 + rng.index(6);
            let cols: Vec<Vec<f64>> = (0..d).map(|_| column(&mut rng, n)).collect();
            let x = Matrix::from_vec(n, d, (0..n * d).map(|i| cols[i % d][i / d]).collect());
            let y = target(&mut rng, n);
            let rows: Vec<usize> = match rng.index(3) {
                0 => (0..n).collect(),
                1 => (0..n).map(|_| rng.index(n)).collect(),
                _ => (0..1 + rng.index(n)).map(|_| rng.index(n)).collect(),
            };
            let mut features: Vec<usize> =
                rng.permutation(d).into_iter().take(1 + rng.index(d)).collect();
            if rng.chance(0.5) {
                features.sort_unstable();
            }
            let params = TreeParams {
                max_depth: rng.index(11),
                min_leaf: [0, 1, 2, 4, 25][rng.index(5)],
                max_thresholds: [1, 12, 16, 40][rng.index(4)],
            };
            let want = build_tree_oracle(&x, &y, &rows, &features, params).unwrap();
            let got = build_tree(&x, &y, &rows, &features, params).unwrap();
            assert_same_bits(&got, &want, &format!("seed {seed}, {params:?}"));
            splits += want.nodes.iter().filter(|n| matches!(n, TreeNode::Split { .. })).count();
        }
        assert!(splits > 4_000, "the inputs must exercise splitting, got {splits} splits");
    }

    #[test]
    fn decision_tree_fits_match_the_oracle_on_sweep_data() {
        use crate::{execute, Artifact, Config, LogicalOp, OpState, TaskType};
        for taxi in [false, true] {
            let data = sweep_train_set(taxi, 1);
            let rows: Vec<usize> = (0..data.len()).collect();
            let features: Vec<usize> = (0..data.n_features()).collect();
            for max_depth in [6, 8] {
                let cfg = Config::new().with_i("max_depth", max_depth as i64);
                let out = execute(
                    LogicalOp::DecisionTree,
                    TaskType::Fit,
                    0,
                    &cfg,
                    &[&Artifact::Data(data.clone())],
                )
                .unwrap();
                let [Artifact::OpState(OpState::Tree(got))] = out.as_slice() else {
                    panic!("expected a tree, got {out:?}")
                };
                let params = TreeParams { max_depth, min_leaf: 2, max_thresholds: 16 };
                let want = build_tree_oracle(&data.x, &data.y, &rows, &features, params).unwrap();
                assert_same_bits(got, &want, &format!("taxi {taxi}, depth {max_depth}"));
            }
        }
    }
}
