//! Criterion micro-benchmarks of the physical-implementation cost
//! asymmetries the equivalence optimizer exploits: each pair fits the same
//! logical operator two ways on identical data.

use criterion::{criterion_group, criterion_main, Criterion};
use hyppo_ml::{execute, Artifact, Config, LogicalOp, TaskType};
use hyppo_workloads::higgs;
use std::hint::black_box;

fn imputed_higgs(rows: usize) -> Artifact {
    let raw = Artifact::Data(higgs::generate(rows, 5));
    let cfg = Config::new();
    let imp = &execute(LogicalOp::ImputerMean, TaskType::Fit, 0, &cfg, &[&raw]).unwrap()[0];
    execute(LogicalOp::ImputerMean, TaskType::Transform, 0, &cfg, &[imp, &raw]).unwrap().remove(0)
}

fn bench_pairs(c: &mut Criterion) {
    let data = imputed_higgs(2000);
    let cfg = Config::new()
        .with_i("n_trees", 10)
        .with_i("n_rounds", 10)
        .with_i("n_components", 5)
        .with_i("seed", 3);
    for op in [
        LogicalOp::StandardScaler,
        LogicalOp::RobustScaler,
        LogicalOp::Pca,
        LogicalOp::RandomForest,
        LogicalOp::GradientBoosting,
    ] {
        let mut group = c.benchmark_group(format!("{}_fit", op.name()));
        group.sample_size(10);
        for imp in op.impls() {
            group.bench_function(imp.name, |b| {
                b.iter(|| execute(op, TaskType::Fit, imp.index, &cfg, &[black_box(&data)]).unwrap())
            });
        }
        group.finish();
    }
}

/// The tree builder at `sweep_real`'s model stage: a 40-tree, depth-8
/// forest (the sweep grid's largest) and a depth-8 decision tree on about
/// 1 000 imputed HIGGS rows.
fn bench_trees(c: &mut Criterion) {
    let data = imputed_higgs(1000);
    let forest = Config::new().with_i("n_trees", 40).with_i("max_depth", 8).with_i("seed", 1);
    let tree = Config::new().with_i("max_depth", 8);
    let mut group = c.benchmark_group("trees_1000x30");
    group.sample_size(10);
    for imp in LogicalOp::RandomForest.impls() {
        group.bench_function(format!("random_forest_fit_{}", imp.name), |b| {
            b.iter(|| {
                execute(
                    LogicalOp::RandomForest,
                    TaskType::Fit,
                    imp.index,
                    &forest,
                    &[black_box(&data)],
                )
                .unwrap()
            })
        });
    }
    group.bench_function("decision_tree_fit", |b| {
        b.iter(|| {
            execute(LogicalOp::DecisionTree, TaskType::Fit, 0, &tree, &[black_box(&data)]).unwrap()
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let data = imputed_higgs(2000);
    c.bench_function("codec_encode_2000x30", |b| {
        b.iter(|| hyppo_core::codec::encode(black_box(&data)))
    });
    let bytes = hyppo_core::codec::encode(&data);
    c.bench_function("codec_decode_2000x30", |b| {
        b.iter(|| hyppo_core::codec::decode(black_box(&bytes)).unwrap())
    });
}

criterion_group!(benches, bench_pairs, bench_trees, bench_codec);
criterion_main!(benches);
