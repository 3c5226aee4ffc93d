//! CART regression trees (also used for binary classification on 0/1
//! labels, where variance reduction coincides with Gini-style impurity up
//! to a monotone transform).
//!
//! The builder is deterministic and shared by [`crate::model::gbm`], the
//! random forest and the `DecisionTree` operator; per-tree randomness
//! (bootstrap rows, feature subsets) is injected by the caller.
//!
//! # Algorithm
//!
//! A node considers up to t = `max_thresholds` quantile-spaced midpoints
//! between the distinct values each candidate feature takes on the node's
//! rows, and splits on the (feature, threshold) of largest variance
//! reduction. The builder *presorts*: per tree it gathers each of the d′
//! candidate features' column over the given rows and sorts the row
//! positions once, then keeps every feature's sorted order through each
//! split with a stable partition. At a node, one walk of a feature's sorted
//! range yields its distinct values and each row's rank among them; the
//! thresholds follow, and a walk of the distinct values gives each one its
//! threshold bucket (the first threshold at or above it). One pass over the
//! node's rows then counts the buckets and adds each row's `y` to the left
//! sums of the thresholds from its bucket on.
//!
//! Cost for n rows: O(d′·n log n) per tree for the presort, plus O(d′·n)
//! per tree level for t bounded (12 or 16 here): the walks and partitions
//! touch each row once per feature, and the left-sum pass does t
//! branch-free adds per row and feature. Building a node used to sort every
//! candidate feature afresh and scan all its rows once per threshold:
//! O(d′·n·(log n + t)) per level.
//!
//! # Exactness
//!
//! The trees are bit-identical to that per-node-sorting builder (kept as a
//! test oracle in `tree/oracle.rs`):
//! - every left sum adds its rows in the node's row order, the order the
//!   in-place swap partition leaves them in, never in value order;
//! - a threshold is the midpoint of two adjacent distinct values, so which
//!   of +0.0 and −0.0 survives the dedup cannot change it;
//! - gain ties break on (feature id, threshold), with the real feature id.

use crate::artifact::{TreeModel, TreeNode};
use crate::error::MlError;
use hyppo_tensor::Matrix;

#[cfg(test)]
pub(crate) mod oracle;

/// Tree construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required in each child of a split.
    pub min_leaf: usize,
    /// Maximum number of candidate thresholds examined per feature
    /// (quantile-spaced over the node's values).
    pub max_thresholds: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 5, min_leaf: 2, max_thresholds: 16 }
    }
}

/// A position in the `rows` slice the tree is built on. Bootstrap rows
/// repeat, so splits move samples, not data rows.
type Sample = u32;

struct Builder<'a> {
    features: &'a [usize],
    params: TreeParams,
    /// Samples per tree (the length of every per-feature block below).
    n: usize,
    /// `y` of each sample.
    y: Vec<f64>,
    /// Feature-major: `cols[j * n + s]` is sample `s`'s value of
    /// `features[j]`.
    cols: Vec<f64>,
    /// Feature-major sample orders: within a node's `[lo, hi)` range, block
    /// `j` lists the node's samples by ascending value of `features[j]`.
    sorted: Vec<Sample>,
    /// The node's samples in row order, as the swap partition leaves them.
    order: Vec<Sample>,
    /// Per sample: goes left at the split being applied.
    goes_left: Vec<bool>,
    /// Per sample: its rank among the distinct values of the feature being
    /// scored.
    rank: Vec<u32>,
    /// Scratch reused across features and nodes: the distinct values of the
    /// feature being scored, the threshold bucket of each, its thresholds,
    /// rows per bucket and left sums per threshold.
    distinct: Vec<f64>,
    bucket: Vec<u32>,
    thresholds: Vec<f64>,
    counts: Vec<usize>,
    left_sums: Vec<f64>,
    /// Scratch of the stable partition.
    rights: Vec<Sample>,
    nodes: Vec<TreeNode>,
}

/// Build a regression tree on the given rows, considering only the given
/// feature indices for splits. Feature values must not be NaN.
pub fn build_tree(
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
    if Sample::try_from(rows.len()).is_err() {
        return Err(MlError::BadInput("tree fit on 2^32 rows or more".into()));
    }
    let mut b = Builder::presort(x, y, rows, features, params)?;
    b.split_node(0, rows.len(), 0);
    Ok(TreeModel { nodes: b.nodes })
}

/// Order-preserving map of a non-NaN `f64` onto `u64` (IEEE-754 total
/// order, which also puts −0.0 before +0.0; the builder treats them as one
/// value).
fn sort_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl<'a> Builder<'a> {
    /// Gather each candidate feature's column over `rows` and sort it once.
    fn presort(
        x: &Matrix,
        y: &[f64],
        rows: &[usize],
        features: &'a [usize],
        params: TreeParams,
    ) -> Result<Self, MlError> {
        let n = rows.len();
        let mut cols = Vec::with_capacity(features.len() * n);
        let mut sorted = Vec::with_capacity(features.len() * n);
        let mut keyed: Vec<(u64, Sample)> = Vec::with_capacity(n);
        for &f in features {
            let start = cols.len();
            cols.extend(rows.iter().map(|&r| x.get(r, f)));
            if cols[start..].iter().any(|v| v.is_nan()) {
                return Err(MlError::BadInput("tree fit on NaN feature values".into()));
            }
            keyed.clear();
            keyed.extend((0..).zip(&cols[start..]).map(|(s, &v)| (sort_key(v), s)));
            keyed.sort_unstable();
            sorted.extend(keyed.iter().map(|&(_, s)| s));
        }
        let n_cand = params.max_thresholds.min(n);
        Ok(Builder {
            features,
            params,
            n,
            y: rows.iter().map(|&r| y[r]).collect(),
            cols,
            sorted,
            order: (0..n as Sample).collect(),
            goes_left: vec![false; n],
            rank: vec![0; n],
            distinct: Vec::with_capacity(n),
            bucket: Vec::with_capacity(n),
            thresholds: Vec::with_capacity(n_cand),
            counts: Vec::with_capacity(n_cand + 1),
            left_sums: Vec::with_capacity(n_cand),
            rights: Vec::with_capacity(n),
            nodes: Vec::new(),
        })
    }

    /// Recursively grow the tree over the node holding `order[lo..hi]`;
    /// returns the index of the created node.
    fn split_node(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let total = self.order[lo..hi].iter().map(|&s| self.y[s as usize]).sum::<f64>();
        let mean = total / (hi - lo) as f64;
        if depth >= self.params.max_depth || hi - lo < 2 * self.params.min_leaf {
            return self.leaf(mean);
        }
        let Some((j, threshold)) = self.best_split(lo, hi, total) else {
            return self.leaf(mean);
        };
        // Partition the rows in place around the threshold; the children's
        // left sums add in the order this swap loop leaves.
        let col = &self.cols[j * self.n..(j + 1) * self.n];
        let mut lt = lo;
        for i in lo..hi {
            let s = self.order[i] as usize;
            self.goes_left[s] = col[s] <= threshold;
            if self.goes_left[s] {
                self.order.swap(lt, i);
                lt += 1;
            }
        }
        if lt - lo < self.params.min_leaf || hi - lt < self.params.min_leaf {
            return self.leaf(mean);
        }
        if depth + 1 < self.params.max_depth {
            self.partition_sorted(lo, hi);
        }
        let idx = self.nodes.len();
        // Placeholder; children indices patched after recursion.
        self.nodes.push(TreeNode::Leaf { value: mean });
        let left = self.split_node(lo, lt, depth + 1);
        let right = self.split_node(lt, hi, depth + 1);
        self.nodes[idx] = TreeNode::Split { feature: self.features[j], threshold, left, right };
        idx
    }

    fn leaf(&mut self, value: f64) -> usize {
        self.nodes.push(TreeNode::Leaf { value });
        self.nodes.len() - 1
    }

    /// Stable-partition every feature's sorted `[lo, hi)` range by
    /// `goes_left`, so both children's ranges stay sorted.
    fn partition_sorted(&mut self, lo: usize, hi: usize) {
        for j in 0..self.features.len() {
            let range = &mut self.sorted[j * self.n + lo..j * self.n + hi];
            self.rights.clear();
            let mut w = 0;
            for i in 0..range.len() {
                let s = range[i];
                if self.goes_left[s as usize] {
                    range[w] = s;
                    w += 1;
                } else {
                    self.rights.push(s);
                }
            }
            range[w..].copy_from_slice(&self.rights);
        }
    }

    /// Best (candidate position, threshold) by variance reduction over
    /// quantile-spaced candidate thresholds; `None` if no split improves.
    fn best_split(&mut self, lo: usize, hi: usize, total: f64) -> Option<(usize, f64)> {
        let n = (hi - lo) as f64;
        let min_leaf = self.params.min_leaf as f64;
        let mut best: Option<(f64, usize, f64, usize)> = None; // (gain, feature, threshold, j)
        for (j, &f) in self.features.iter().enumerate() {
            let n_cand = self.score_feature(j, lo, hi);
            let mut left_rows = 0;
            for c in 0..n_cand {
                left_rows += self.counts[c];
                let threshold = self.thresholds[c];
                let left_n = left_rows as f64;
                let right_n = n - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let left_sum = self.left_sums[c];
                let right_sum = total - left_sum;
                // Variance reduction ∝ Σ_child (sum² / n) − total²/n.
                let gain = left_sum * left_sum / left_n + right_sum * right_sum / right_n
                    - total * total / n;
                let improved = match best {
                    None => gain > 1e-12,
                    Some((g, bf, bt, _)) => {
                        gain > g + 1e-12
                            // Deterministic tie-break: lower feature id, then
                            // lower threshold.
                            || ((gain - g).abs() <= 1e-12 && (f, threshold) < (bf, bt))
                    }
                };
                if improved {
                    best = Some((gain, f, threshold, j));
                }
            }
        }
        best.map(|(_, _, t, j)| (j, t))
    }

    /// Score candidate feature `j` on the node `[lo, hi)`: fill
    /// `thresholds`, `counts` (rows per threshold bucket) and `left_sums`;
    /// returns the number of thresholds.
    fn score_feature(&mut self, j: usize, lo: usize, hi: usize) -> usize {
        let col = &self.cols[j * self.n..(j + 1) * self.n];
        let (distinct, rank) = (&mut self.distinct, &mut self.rank);
        distinct.clear();
        let mut last = f64::NAN;
        for &s in &self.sorted[j * self.n + lo..j * self.n + hi] {
            let v = col[s as usize];
            if v != last {
                distinct.push(v);
                last = v;
            }
            rank[s as usize] = (distinct.len() - 1) as u32;
        }
        let u = distinct.len();
        if u < 2 {
            return 0;
        }
        let n_cand = self.params.max_thresholds.min(u - 1);
        let thresholds = &mut self.thresholds;
        thresholds.clear();
        for c in 0..n_cand {
            // Quantile-spaced midpoints between consecutive unique values.
            let pos = (c + 1) * (u - 1) / (n_cand + 1);
            thresholds.push(0.5 * (distinct[pos] + distinct[pos + 1]));
        }
        // Thresholds never decrease in c (midpoints of ascending pairs,
        // rounded monotonically), so a value goes left at exactly the
        // thresholds from its bucket on. The one possible NaN threshold,
        // between -inf and +inf, is then the only one, and no row goes left
        // at it.
        let bucket = &mut self.bucket;
        bucket.clear();
        let mut c = 0;
        for &v in distinct.iter() {
            while c < n_cand && (v > thresholds[c] || thresholds[c].is_nan()) {
                c += 1;
            }
            bucket.push(c as u32);
        }
        let (counts, sums) = (&mut self.counts, &mut self.left_sums);
        counts.clear();
        counts.resize(n_cand + 1, 0);
        sums.clear();
        sums.resize(n_cand, 0.0);
        // In row order, add each row's `y` to the sums of the thresholds
        // from its bucket on. Adding +0.0 to the others changes none of
        // them: a sum that starts at +0.0 never becomes -0.0.
        for &s in &self.order[lo..hi] {
            let b = bucket[rank[s as usize] as usize];
            counts[b as usize] += 1;
            let y = self.y[s as usize];
            for (c, sum) in sums.iter_mut().enumerate() {
                *sum += if c as u32 >= b { y } else { 0.0 };
            }
        }
        n_cand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Matrix, Vec<f64>) {
        // y = 1 if x0 > 0.5 else 0 (perfectly splittable).
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0, 0.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<f64> = (0..40).map(|i| if i as f64 / 40.0 > 0.5 { 1.0 } else { 0.0 }).collect();
        (x, y)
    }

    #[test]
    fn learns_a_step_function() {
        let (x, y) = step_data();
        let rows: Vec<usize> = (0..40).collect();
        let tree = build_tree(&x, &y, &rows, &[0, 1], TreeParams::default()).unwrap();
        for (i, &yi) in y.iter().enumerate() {
            assert_eq!(tree.predict_row(x.row(i)), yi, "row {i}");
        }
    }

    #[test]
    fn depth_zero_gives_mean_leaf() {
        let (x, y) = step_data();
        let rows: Vec<usize> = (0..40).collect();
        let params = TreeParams { max_depth: 0, ..TreeParams::default() };
        let tree = build_tree(&x, &y, &rows, &[0], params).unwrap();
        assert_eq!(tree.nodes.len(), 1);
        let mean = y.iter().sum::<f64>() / 40.0;
        assert!((tree.predict_row(x.row(0)) - mean).abs() < 1e-12);
    }

    #[test]
    fn respects_min_leaf() {
        let (x, y) = step_data();
        let rows: Vec<usize> = (0..40).collect();
        let params = TreeParams { max_depth: 10, min_leaf: 25, max_thresholds: 16 };
        // No split can give both children >= 25 rows out of 40.
        let tree = build_tree(&x, &y, &rows, &[0], params).unwrap();
        assert_eq!(tree.nodes.len(), 1, "must stay a single leaf");
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let (x, _) = step_data();
        let y = vec![3.0; 40];
        let rows: Vec<usize> = (0..40).collect();
        let tree = build_tree(&x, &y, &rows, &[0, 1], TreeParams::default()).unwrap();
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.predict_row(x.row(5)), 3.0);
    }

    #[test]
    fn feature_restriction_is_honored() {
        let (x, y) = step_data();
        let rows: Vec<usize> = (0..40).collect();
        // Only the constant feature 1 is allowed: no split possible.
        let tree = build_tree(&x, &y, &rows, &[1], TreeParams::default()).unwrap();
        assert_eq!(tree.nodes.len(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let (x, y) = step_data();
        let rows: Vec<usize> = (0..40).collect();
        let a = build_tree(&x, &y, &rows, &[0, 1], TreeParams::default()).unwrap();
        let b = build_tree(&x, &y, &rows, &[0, 1], TreeParams::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_inputs_rejected() {
        let (x, y) = step_data();
        assert!(build_tree(&x, &y, &[], &[0], TreeParams::default()).is_err());
        assert!(build_tree(&x, &y, &[0], &[], TreeParams::default()).is_err());
    }

    #[test]
    fn nan_features_rejected() {
        let (mut x, y) = step_data();
        x.set(7, 1, f64::NAN);
        let rows: Vec<usize> = (0..40).collect();
        assert!(build_tree(&x, &y, &rows, &[0, 1], TreeParams::default()).is_err());
        // A NaN outside the given rows and features is never read.
        assert!(build_tree(&x, &y, &rows, &[0], TreeParams::default()).is_ok());
    }

    #[test]
    fn deeper_trees_fit_better() {
        // Piecewise target needing two splits.
        let rows_data: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = rows_data.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<f64> = (0..60).map(|i| (i / 20) as f64).collect();
        let rows: Vec<usize> = (0..60).collect();
        let shallow =
            build_tree(&x, &y, &rows, &[0], TreeParams { max_depth: 1, ..TreeParams::default() })
                .unwrap();
        let deep =
            build_tree(&x, &y, &rows, &[0], TreeParams { max_depth: 3, ..TreeParams::default() })
                .unwrap();
        let sse = |t: &TreeModel| -> f64 {
            (0..60).map(|i| (t.predict_row(x.row(i)) - y[i]).powi(2)).sum()
        };
        assert!(sse(&deep) < sse(&shallow));
    }
}
