//! Shared experiment runners for the table/figure binaries: model-pair
//! comparisons, epoch sweeps, and training-sample sweeps, each emitting
//! both an aligned text table and JSON rows.

use crate::configs::Bench;
use am_dgcnn::{EvalMetrics, Experiment, GnnKind, Hyperparams};
use amdgcnn_data::{
    biokg_like, cora_like, primekg_like, wn18_like, BioKgConfig, CoraConfig, Dataset,
    PrimeKgConfig, Wn18Config,
};
use amdgcnn_obs::Obs;
use serde::Serialize;

/// Materialize a benchmark dataset at its default (paper-scaled) size.
pub fn load_dataset(bench: Bench) -> Dataset {
    match bench {
        Bench::PrimeKg => primekg_like(&PrimeKgConfig::default()),
        Bench::BioKg => biokg_like(&BioKgConfig::default()),
        Bench::Wn18 => wn18_like(&Wn18Config::default()),
        Bench::Cora => cora_like(&CoraConfig::default()),
    }
}

/// The AM-DGCNN variant appropriate for a dataset: edge attributes when the
/// dataset has them, plain attention otherwise (Cora).
pub fn am_dgcnn_for(ds: &Dataset) -> GnnKind {
    GnnKind::Gat {
        edge_attrs: ds.edge_attrs.dim() > 0,
        heads: 1,
    }
}

/// One comparison row: both models on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonRow {
    /// Dataset name.
    pub dataset: String,
    /// AM-DGCNN metrics.
    pub am_dgcnn: EvalMetrics,
    /// Vanilla DGCNN metrics.
    pub vanilla: EvalMetrics,
}

/// Train both models with the given hyperparameters and compare (Table III
/// row).
pub fn compare_models(ds: &Dataset, hyper: Hyperparams, epochs: usize, seed: u64) -> ComparisonRow {
    let am = Experiment::builder()
        .gnn(am_dgcnn_for(ds))
        .hyper(hyper)
        .seed(seed)
        .build()
        .run(ds, epochs)
        .expect("comparison run");
    let vanilla = Experiment::builder()
        .gnn(GnnKind::Gcn)
        .hyper(hyper)
        .seed(seed)
        .build()
        .run(ds, epochs)
        .expect("comparison run");
    ComparisonRow {
        dataset: ds.name.to_string(),
        am_dgcnn: am,
        vanilla,
    }
}

/// One point of an epoch- or sample-sweep series.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// X value (epochs trained, or training samples used).
    pub x: usize,
    /// AM-DGCNN AUC.
    pub am_dgcnn_auc: f64,
    /// Vanilla DGCNN AUC.
    pub vanilla_auc: f64,
}

/// Epoch sweep (Figs. 3–6): evaluate both models at each checkpoint while
/// training continues incrementally, recording per-stage timing (sample
/// preparation, training phases, evaluation) into `obs`. Observation never
/// feeds back into the computation, so the sweep points are identical with
/// [`Obs::disabled`].
pub fn epoch_sweep(
    ds: &Dataset,
    hyper: Hyperparams,
    checkpoints: &[usize],
    seed: u64,
    obs: &Obs,
) -> Vec<SweepPoint> {
    let am_exp = Experiment::builder()
        .gnn(am_dgcnn_for(ds))
        .hyper(hyper)
        .seed(seed)
        .observe(obs.clone())
        .build();
    let am = am_exp
        .run_session(am_exp.session(ds, None).expect("session"), checkpoints)
        .expect("epoch sweep");
    let va_exp = Experiment::builder()
        .gnn(GnnKind::Gcn)
        .hyper(hyper)
        .seed(seed)
        .observe(obs.clone())
        .build();
    let va = va_exp
        .run_session(va_exp.session(ds, None).expect("session"), checkpoints)
        .expect("epoch sweep");
    checkpoints
        .iter()
        .zip(am.iter().zip(va.iter()))
        .map(|(&x, (a, v))| SweepPoint {
            x,
            am_dgcnn_auc: a.auc,
            vanilla_auc: v.auc,
        })
        .collect()
}

/// Training-sample sweep (Figs. 7–9): train to `epochs` on increasing
/// subsets of the training split, recording per-stage timing into `obs`.
/// The sweep points are identical with or without observation.
pub fn sample_sweep(
    ds: &Dataset,
    hyper: Hyperparams,
    subset_sizes: &[usize],
    epochs: usize,
    seed: u64,
    obs: &Obs,
) -> Vec<SweepPoint> {
    subset_sizes
        .iter()
        .map(|&n| {
            let am_exp = Experiment::builder()
                .gnn(am_dgcnn_for(ds))
                .hyper(hyper)
                .seed(seed)
                .observe(obs.clone())
                .build();
            let am = am_exp
                .run_session(am_exp.session(ds, Some(n)).expect("session"), &[epochs])
                .expect("sample sweep")
                .pop()
                .expect("one");
            let va_exp = Experiment::builder()
                .gnn(GnnKind::Gcn)
                .hyper(hyper)
                .seed(seed)
                .observe(obs.clone())
                .build();
            let va = va_exp
                .run_session(va_exp.session(ds, Some(n)).expect("session"), &[epochs])
                .expect("sample sweep")
                .pop()
                .expect("one");
            SweepPoint {
                x: n,
                am_dgcnn_auc: am.auc,
                vanilla_auc: va.auc,
            }
        })
        .collect()
}

/// The standard checkpoint grid of the paper's epoch figures (2..12 step 2).
pub const EPOCH_GRID: [usize; 6] = [2, 4, 6, 8, 10, 12];

/// Subset fractions for the sample-sweep figures (sixths of the split).
pub fn subset_grid(train_size: usize) -> Vec<usize> {
    (1..=6).map(|i| (train_size * i / 6).max(1)).collect()
}

/// Render sweep points as an aligned text table.
pub fn format_sweep(title: &str, xlabel: &str, points: &[SweepPoint]) -> String {
    let mut out = format!(
        "{title}\n{:<10} {:>14} {:>14}\n",
        xlabel, "AM-DGCNN AUC", "DGCNN AUC"
    );
    for p in points {
        out.push_str(&format!(
            "{:<10} {:>14.4} {:>14.4}\n",
            p.x, p.am_dgcnn_auc, p.vanilla_auc
        ));
    }
    out
}

/// Render comparison rows as the Table III layout.
pub fn format_comparison(rows: &[ComparisonRow]) -> String {
    let mut out = format!(
        "{:<14} | {:>8} {:>8} | {:>8} {:>8}\n",
        "Dataset", "AM AUC", "AM AP", "VAN AUC", "VAN AP"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} | {:>8.2} {:>7.0}% | {:>8.2} {:>7.0}%\n",
            r.dataset,
            r.am_dgcnn.auc,
            r.am_dgcnn.ap * 100.0,
            r.vanilla.auc,
            r.vanilla.ap * 100.0
        ));
    }
    out
}

/// Emit a result payload as pretty JSON on stdout (consumed by
/// EXPERIMENTS.md tooling).
pub fn emit_json<T: Serialize>(label: &str, value: &T) {
    println!(
        "JSON {label} {}",
        serde_json::to_string(value).expect("experiment results serialize")
    );
}

/// Print and emit a figure run's per-stage timing: a span table on stdout
/// and a `JSON <figure>_timing {...}` line.
fn emit_timing(figure: &str, obs: &Obs) {
    let report = obs.report();
    println!("{figure} per-stage timing\n{}", report.format_spans());
    emit_json(&format!("{figure}_timing"), &report);
}

/// Drive a full epoch figure (Figs. 4–6): panels (a) default and (b)
/// per-dataset tuned hyperparameters, both models, the standard epoch grid.
/// Per-stage timing across both panels is printed and emitted at the end.
pub fn run_epoch_figure(bench: Bench, figure: &str, fast: bool) {
    let ds = load_dataset(bench);
    let obs = Obs::enabled();
    let grid: &[usize] = if fast { &[2, 4] } else { &EPOCH_GRID };
    for (panel, hyper) in [
        (
            "(a) default hyperparameters",
            crate::configs::default_hyper(),
        ),
        (
            "(b) auto-tuned hyperparameters",
            crate::configs::tuned_hyper(bench),
        ),
    ] {
        let pts = epoch_sweep(&ds, hyper, grid, 0xf16, &obs);
        println!(
            "{}",
            format_sweep(&format!("{figure} {panel} — {}", ds.name), "epochs", &pts)
        );
        emit_json(
            &format!(
                "{figure}_{}",
                if panel.starts_with("(a)") {
                    "default"
                } else {
                    "tuned"
                }
            ),
            &pts,
        );
    }
    emit_timing(figure, &obs);
}

/// Drive a full training-sample figure (Figs. 7–9): panels (a) default and
/// (b) tuned, both models, sixth-fraction subsets, 10 training epochs.
/// Per-stage timing across both panels is printed and emitted at the end.
pub fn run_sample_figure(bench: Bench, figure: &str, fast: bool) {
    let ds = load_dataset(bench);
    let obs = Obs::enabled();
    let epochs = if fast { 3 } else { 10 };
    let subsets = if fast {
        vec![ds.train.len() / 2, ds.train.len()]
    } else {
        subset_grid(ds.train.len())
    };
    for (panel, hyper) in [
        (
            "(a) default hyperparameters",
            crate::configs::default_hyper(),
        ),
        (
            "(b) auto-tuned hyperparameters",
            crate::configs::tuned_hyper(bench),
        ),
    ] {
        let pts = sample_sweep(&ds, hyper, &subsets, epochs, 0xf79, &obs);
        println!(
            "{}",
            format_sweep(&format!("{figure} {panel} — {}", ds.name), "samples", &pts)
        );
        emit_json(
            &format!(
                "{figure}_{}",
                if panel.starts_with("(a)") {
                    "default"
                } else {
                    "tuned"
                }
            ),
            &pts,
        );
    }
    emit_timing(figure, &obs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_grid_is_monotone_and_ends_full() {
        let g = subset_grid(600);
        assert_eq!(g, vec![100, 200, 300, 400, 500, 600]);
        let tiny = subset_grid(4);
        assert!(tiny.iter().all(|&n| n >= 1));
        assert_eq!(*tiny.last().expect("nonempty"), 4);
    }

    #[test]
    fn formatters_contain_data() {
        let pts = vec![SweepPoint {
            x: 2,
            am_dgcnn_auc: 0.9,
            vanilla_auc: 0.5,
        }];
        let s = format_sweep("t", "epochs", &pts);
        assert!(s.contains("0.9000"));
        assert!(s.contains("0.5000"));
        let rows = vec![ComparisonRow {
            dataset: "x".into(),
            am_dgcnn: EvalMetrics {
                auc: 0.99,
                ap: 0.97,
                accuracy: 0.9,
            },
            vanilla: EvalMetrics {
                auc: 0.75,
                ap: 0.55,
                accuracy: 0.6,
            },
        }];
        let t = format_comparison(&rows);
        assert!(t.contains("0.99"));
        assert!(t.contains("97%"));
    }

    #[test]
    fn am_variant_follows_edge_attrs() {
        let cora = cora_like(&CoraConfig::tiny());
        assert_eq!(
            am_dgcnn_for(&cora),
            GnnKind::Gat {
                edge_attrs: false,
                heads: 1
            }
        );
        let wn = wn18_like(&Wn18Config::tiny());
        assert_eq!(
            am_dgcnn_for(&wn),
            GnnKind::Gat {
                edge_attrs: true,
                heads: 1
            }
        );
    }
}
