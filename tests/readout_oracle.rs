//! The minibatch read-out against reference copies of the per-sample
//! kernels it replaced.
//!
//! `oracle_conv1d` is the earlier direct convolution loop, `oracle_sort_pool`
//! the earlier one-subgraph SortPooling and `oracle_matmul_nt` the earlier
//! dot-product `A · Bᵀ`. The library now runs SortPooling over row blocks,
//! the convolution over `[B, C_in*L]` rows through im2col and the
//! transposed weight, and `matmul_nt` as an i-k-j product; each must stay
//! bit-identical to its oracle on seeded shapes that include padding, tied
//! sort keys and one-row operands. Then, on each generator's `tiny()`
//! graph, a 16-sample `forward_batched` must equal 16 batches of one, in
//! inference and with per-sample dropout RNGs.

use am_dgcnn::sample::prepare_batch;
use am_dgcnn::{DgcnnModel, FeatureConfig, GnnKind, ModelConfig, PreparedSample};
use amdgcnn_data::{
    biokg_like, cora_like, primekg_like, wn18_like, BioKgConfig, CoraConfig, Dataset,
    PrimeKgConfig, Wn18Config,
};
use amdgcnn_tensor::matmul::matmul_nt;
use amdgcnn_tensor::{Conv1dSpec, Matrix, ParamStore, Tape};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// The earlier direct convolution: `[C_in, L]` in, `[C_out, L_out]` out,
/// each output accumulated from the bias in `c * kernel + offset` order.
fn oracle_conv1d(x: &Matrix, w: &Matrix, b: &Matrix, spec: Conv1dSpec) -> Matrix {
    let l_out = spec.out_len(x.cols());
    let mut out = Matrix::zeros(spec.out_channels, l_out);
    for o in 0..spec.out_channels {
        let wrow = w.row(o);
        let bval = b.get(o, 0);
        for t in 0..l_out {
            let start = t * spec.stride;
            let mut acc = bval;
            for ci in 0..spec.in_channels {
                let xrow = x.row(ci);
                let wslice = &wrow[ci * spec.kernel..(ci + 1) * spec.kernel];
                for (kk, &wv) in wslice.iter().enumerate() {
                    acc += wv * xrow[start + kk];
                }
            }
            out.set(o, t, acc);
        }
    }
    out
}

/// The earlier one-subgraph SortPooling: rows by descending last channel,
/// then earlier channels, then index; first `k` kept, zero-padded.
fn oracle_sort_pool(src: &Matrix, k: usize) -> Matrix {
    let (n, c) = src.shape();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (src.row(a), src.row(b));
        for ch in (0..c).rev() {
            match rb[ch].partial_cmp(&ra[ch]) {
                Some(std::cmp::Ordering::Equal) | None => continue,
                Some(ord) => return ord,
            }
        }
        a.cmp(&b)
    });
    let mut out = Matrix::zeros(k, c);
    for (dst, &row) in order.iter().take(k).enumerate() {
        out.row_mut(dst).copy_from_slice(src.row(row));
    }
    out
}

/// The earlier `A · Bᵀ`: one serial dot product per output entry.
fn oracle_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0f32;
            for p in 0..a.cols() {
                acc += a.get(i, p) * b.get(j, p);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Seeded values in [-1, 1), with about one in five set to exactly zero
/// (SortPool padding reaches the convolution as zero rows).
fn random(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.random_range(0..5) == 0 {
            0.0
        } else {
            rng.random_range(-1.0f32..1.0)
        }
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Both read-out convolution shapes, at several batch sizes: conv1 has one
/// input channel and stride = kernel = the channel count; conv2 has 16
/// input channels, kernel 5 and stride 1.
#[test]
fn conv1d_matches_the_direct_loop() {
    let mut rng = StdRng::seed_from_u64(2701);
    let shapes = [
        // (in_channels, out_channels, kernel, stride, len)
        (1, 16, 97, 97, 97 * 30),
        (1, 16, 33, 33, 33 * 5),
        (16, 32, 5, 1, 15),
        (16, 32, 2, 1, 2),
        (2, 3, 3, 2, 8),
    ];
    for (c_in, c_out, kernel, stride, len) in shapes {
        let spec = Conv1dSpec {
            in_channels: c_in,
            out_channels: c_out,
            kernel,
            stride,
        };
        let w = random(c_out, c_in * kernel, &mut rng);
        let b = random(c_out, 1, &mut rng);
        for batch in [1usize, 3, 16] {
            let inputs: Vec<Matrix> = (0..batch).map(|_| random(c_in, len, &mut rng)).collect();
            let expect: Vec<Matrix> = inputs
                .iter()
                .map(|x| oracle_conv1d(x, &w, &b, spec))
                .collect();
            let mut tape = Tape::new();
            let (vw, vb) = (tape.leaf(w.clone()), tape.leaf(b.clone()));
            for (x, e) in inputs.iter().zip(&expect) {
                let vx = tape.leaf(x.clone());
                let y = tape.conv1d(vx, vw, vb, spec);
                assert_eq!(tape.shape(y), e.shape());
                assert_eq!(bits(tape.value(y)), bits(e), "conv1d {spec:?}");
            }
            let flat: Vec<Matrix> = inputs.iter().map(|x| x.reshaped(1, c_in * len)).collect();
            let rows = tape.leaf(Matrix::concat_rows(&flat.iter().collect::<Vec<_>>()));
            let y = tape.conv1d_rows(rows, vw, vb, spec);
            assert_eq!(tape.shape(y), (batch, expect[0].len()));
            for (r, e) in expect.iter().enumerate() {
                let got: Vec<u32> = tape.value(y).row(r).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, bits(e), "conv1d_rows {spec:?} batch {batch} row {r}");
            }
        }
    }
}

/// Block SortPooling against the per-block oracle: blocks shorter than
/// `k` (padding), longer (truncation), empty, and keys drawn from three
/// values so most comparisons tie on the last channel and many on every
/// channel (the index breaks those).
#[test]
fn block_sort_pool_matches_per_sample_sort_pool() {
    let mut rng = StdRng::seed_from_u64(2702);
    for (c, k) in [(1usize, 4usize), (3, 5), (7, 12)] {
        let sizes = [1usize, 3, 0, 17, 5, 12, 2];
        let blocks_data: Vec<Matrix> = sizes
            .iter()
            .map(|&n| Matrix::from_fn(n, c, |_, _| rng.random_range(0..3) as f32 - 1.0))
            .collect();
        let packed = Matrix::concat_rows(&blocks_data.iter().collect::<Vec<_>>());
        let mut blocks = Vec::new();
        let mut start = 0;
        for &n in &sizes {
            blocks.push(start..start + n);
            start += n;
        }
        let mut tape = Tape::new();
        let x = tape.leaf(packed);
        let pooled = tape.sort_pool_blocks(x, &blocks, k);
        assert_eq!(tape.shape(pooled), (sizes.len(), k * c));
        for (b, m) in blocks_data.iter().enumerate() {
            let expect = oracle_sort_pool(m, k);
            let got: Vec<u32> = tape
                .value(pooled)
                .row(b)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, bits(&expect), "block {b} (n = {}, k = {k})", m.rows());
            if m.rows() > 0 {
                let xb = tape.leaf(m.clone());
                let single = tape.sort_pool(xb, k);
                assert_eq!(
                    bits(tape.value(single)),
                    bits(&expect),
                    "sort_pool n = {}",
                    m.rows()
                );
            }
        }
    }
}

/// `matmul_nt` against the dot-product loop, including one-row left
/// operands and a product above the parallel threshold.
#[test]
fn matmul_nt_matches_the_dot_loop() {
    let mut rng = StdRng::seed_from_u64(2703);
    for (m, k, n) in [
        (1, 128, 352),
        (1, 1, 1),
        (16, 128, 352),
        (300, 32, 32),
        (7, 5, 1),
        (70, 60, 70),
    ] {
        let a = random(m, k, &mut rng);
        let b = random(n, k, &mut rng);
        assert_eq!(
            bits(&matmul_nt(&a, &b)),
            bits(&oracle_matmul_nt(&a, &b)),
            "[{m}x{k}]·[{n}x{k}]ᵀ"
        );
    }
}

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("wn18", wn18_like(&Wn18Config::tiny())),
        ("primekg", primekg_like(&PrimeKgConfig::tiny())),
        ("biokg", biokg_like(&BioKgConfig::tiny())),
        ("cora", cora_like(&CoraConfig::tiny())),
    ]
}

/// A 16-sample minibatch gives every sample the logits a batch of one
/// gives it, bit for bit, for each model family, in inference and with
/// per-sample dropout streams.
#[test]
fn batched_read_out_equals_batches_of_one() {
    for (name, ds) in datasets() {
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let samples = prepare_batch(&ds, &ds.train[..16], &fcfg);
        let refs: Vec<&PreparedSample> = samples.iter().collect();
        let sizes: Vec<usize> = samples.iter().map(|s| s.features.rows()).collect();
        for gnn in [
            GnnKind::Gcn,
            GnnKind::am_dgcnn(),
            GnnKind::Rgcn { num_bases: 3 },
        ] {
            if gnn == GnnKind::am_dgcnn() && ds.edge_attrs.dim() == 0 {
                continue; // AM-DGCNN needs edge attributes; Cora has none
            }
            let mut cfg =
                ModelConfig::dgcnn_defaults(gnn, fcfg.dim(), ds.edge_attrs.dim(), ds.num_classes);
            // One hidden message-passing layer keeps R-GCN's per-relation
            // passes cheap in a debug build; the read-out keeps its shape.
            cfg.num_layers = 1;
            cfg.hidden_dim = 8;
            cfg.dense_dim = 16;
            cfg.num_relations = ds.graph.num_edge_types();
            // Some subgraphs shorter than k (padding), some longer.
            let mut sorted = sizes.clone();
            sorted.sort_unstable();
            cfg.sort_k = sorted[sorted.len() / 2].max(4);
            let mut ps = ParamStore::new();
            let model = DgcnnModel::new(cfg, &mut ps, &mut StdRng::seed_from_u64(2704));
            let rngs =
                || -> Vec<StdRng> { (0..16).map(|i| StdRng::seed_from_u64(2800 + i)).collect() };
            for train in [false, true] {
                let mut batch_rngs = rngs();
                let mut tape = Tape::new();
                let batched = model.forward_batched(
                    &mut tape,
                    &ps,
                    &refs,
                    train.then_some(batch_rngs.as_mut_slice()),
                );
                let mut one_rngs = rngs();
                for (i, s) in refs.iter().enumerate() {
                    let mut one = Tape::new();
                    let single = model.forward_batched(
                        &mut one,
                        &ps,
                        &[*s],
                        train.then_some(&mut one_rngs[i..i + 1]),
                    );
                    assert_eq!(
                        bits(tape.value(batched[i])),
                        bits(one.value(single[0])),
                        "{name} {} sample {i} (train {train})",
                        gnn.name()
                    );
                }
            }
        }
    }
}
