//! Regenerates **Fig. 3** (effect of the number of epochs on AUC for Cora
//! with auto-tuned hyperparameters; both models, epochs 2..12 step 2).
//!
//! ```text
//! cargo run -p amdgcnn-bench --release --bin fig3_cora_epochs [fast]
//! ```

use amdgcnn_bench::runner::{emit_json, epoch_sweep, format_sweep};
use amdgcnn_bench::{load_dataset, tuned_hyper, Bench, EPOCH_GRID};
use amdgcnn_obs::Obs;

fn main() {
    let fast = std::env::args().any(|a| a == "fast");
    let ds = load_dataset(Bench::Cora);
    let grid: &[usize] = if fast { &[2, 4] } else { &EPOCH_GRID };
    let pts = epoch_sweep(&ds, tuned_hyper(Bench::Cora), grid, 0xf16, &Obs::disabled());
    println!(
        "{}",
        format_sweep("Fig. 3 — Cora, auto-tuned hyperparameters", "epochs", &pts)
    );
    emit_json("fig3_tuned", &pts);
}
