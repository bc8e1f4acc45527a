//! The trainer's headline concurrency claim: results are bit-for-bit
//! identical however many rayon workers run. Work fans out only over
//! independent outputs (samples, rows, messages) and every reduction runs
//! in index order, so no sum's grouping follows the thread count.
//!
//! The offline rayon shim runs everything on the calling thread, but
//! inside `ThreadPool::install` it reports the installed pool's size as
//! rayon does. So a kernel that sized its split by the thread count would
//! still sum differently under pools of 1 and 4, and these tests would
//! catch it. The second training case uses hidden width 32, so each
//! layer's weight gradient `hᵀ·dZ` over a 16-sample minibatch (about 700
//! rows) crosses `matmul::PAR_FLOP_THRESHOLD` and takes the parallel path.

use am_dgcnn::{predict_probs, Experiment, GnnKind, Hyperparams, TrainConfig};
use amdgcnn_data::{wn18_like, Wn18Config};

fn train_losses_and_probs(
    threads: usize,
    hidden_dim: usize,
    epochs: usize,
) -> (Vec<f32>, Vec<f32>) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    pool.install(|| {
        let ds = wn18_like(&Wn18Config::tiny());
        let mut exp = Experiment::new(
            GnnKind::am_dgcnn(),
            Hyperparams {
                lr: 5e-3,
                hidden_dim,
                sort_k: 10,
            },
            17,
        );
        exp.train = TrainConfig {
            lr: 5e-3,
            seed: 17,
            ..Default::default()
        };
        let mut session = exp.session(&ds, None).expect("session");
        session
            .trainer
            .train(
                &session.model,
                &mut session.ps,
                &session.train_samples,
                epochs,
            )
            .expect("train");
        let losses = session.trainer.history.iter().map(|e| e.loss).collect();
        let probs = predict_probs(&session.model, &session.ps, &session.test_samples);
        (losses, probs.data().to_vec())
    })
}

#[test]
fn training_is_identical_across_thread_counts() {
    let (l1, p1) = train_losses_and_probs(1, 8, 3);
    let (l4, p4) = train_losses_and_probs(4, 8, 3);
    assert_eq!(l1, l4, "loss history must not depend on worker count");
    assert_eq!(p1, p4, "predictions must not depend on worker count");
}

#[test]
fn training_above_the_parallel_threshold_is_identical_across_thread_counts() {
    let (l1, p1) = train_losses_and_probs(1, 32, 2);
    let (l4, p4) = train_losses_and_probs(4, 32, 2);
    assert_eq!(l1, l4, "loss history must not depend on worker count");
    assert_eq!(p1, p4, "predictions must not depend on worker count");
}

#[test]
fn sample_preparation_is_identical_across_thread_counts() {
    use am_dgcnn::{prepare_batch, FeatureConfig};
    let ds = wn18_like(&Wn18Config::tiny());
    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    let serial = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(|| prepare_batch(&ds, &ds.train, &fcfg));
    let parallel = prepare_batch(&ds, &ds.train, &fcfg);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(parallel.iter()) {
        assert_eq!(a.features, b.features);
        assert_eq!(a.label, b.label);
        assert_eq!(a.num_edges, b.num_edges);
    }
}
