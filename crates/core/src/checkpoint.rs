//! Durable training-state checkpoints and generation-numbered checkpoint
//! directories — the one way to save and resume a training run.
//! [`Trainer::snapshot`](crate::Trainer::snapshot) captures a
//! [`TrainState`], [`CheckpointDir::save`] writes it as a generation,
//! [`CheckpointDir::latest`] reads the newest intact one back, and
//! [`Trainer::restore`](crate::Trainer::restore) checks it and resumes
//! from it (see the example on [`CheckpointDir`]).
//!
//! A [`TrainState`] is everything needed to resume a training run so that
//! the resumed run is **bit-identical** to an uninterrupted one: the
//! parameters, the Adam moment estimates and step count, the epoch counter,
//! the RNG seed (per-epoch RNG streams are a pure function of
//! `(seed, epoch)`, so the seed plus the epoch counter *is* the RNG stream
//! position), and the watchdog's history and recovery log.
//!
//! On disk a state is one `ckpt-NNNNNNNN.amts` file per generation
//! (generation = epochs completed), written via
//! [`amdgcnn_tensor::write_atomic`] (write-to-temp + fsync + atomic
//! rename). The file is an `AMTS` version 2
//! [`durable`] container:
//!
//! ```text
//! section 0:        u64 epochs done | u64 seed | u64 Adam step count
//!                   u32 history len | per epoch: u32 epoch | f32 loss | u32 retries
//!                   u32 recovery len | per event: u32 epoch | u32 attempt
//!                                               | u8 cause | f32 next lr
//! sections 1..n:    the parameters, one each (the `AMDG` section layout)
//! section n+1, n+2: Adam `m`, then Adam `v`:
//!                   u32 slot count | per slot: u8 present | matrix if present
//! ```
//!
//! Every section is checksummed, so a torn write or a flipped bit anywhere
//! is detected at load. [`CheckpointDir::latest`] walks generations
//! newest-first and returns the newest one that loads cleanly — a crash
//! mid-write can only cost the torn generation, never a previously
//! committed one.

use crate::error::{Error, Result};
use crate::train::{DivergenceCause, EpochStats, RecoveryEvent};
use amdgcnn_nn::AdamState;
use amdgcnn_tensor::durable::{self, invalid, put_matrix, write_atomic, Cursor, DiskFault};
use amdgcnn_tensor::io::{param_sections, params_from_sections};
use amdgcnn_tensor::{Matrix, ParamStore};
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"AMTS";
const VERSION: u32 = 2;

/// Ceilings on declared list lengths: a real history has one entry per
/// epoch, so anything beyond this is a corrupt file, not a long run.
const MAX_LIST_LEN: usize = 1 << 24;

/// A complete, resumable snapshot of a training run.
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Epochs completed when the snapshot was taken. Together with `seed`
    /// this pins the RNG stream position: shuffle and dropout streams are
    /// derived per-epoch from `(seed, epoch)`.
    pub epochs_done: usize,
    /// The training seed the run was started with. Verified on resume so a
    /// checkpoint cannot silently continue under a different data order.
    pub seed: u64,
    /// Model parameters.
    pub params: ParamStore,
    /// Adam step count and moment estimates.
    pub opt: AdamState,
    /// Per-epoch loss history up to the snapshot.
    pub history: Vec<EpochStats>,
    /// Watchdog recovery log up to the snapshot.
    pub recoveries: Vec<RecoveryEvent>,
}

/// Serialize a [`TrainState`] as one checksummed container: the header
/// section, the parameters, then Adam `m` and `v`.
pub fn encode_train_state(state: &TrainState) -> Vec<u8> {
    let mut head = Vec::new();
    head.extend_from_slice(&(state.epochs_done as u64).to_le_bytes());
    head.extend_from_slice(&state.seed.to_le_bytes());
    head.extend_from_slice(&state.opt.t.to_le_bytes());
    head.extend_from_slice(&(state.history.len() as u32).to_le_bytes());
    for e in &state.history {
        head.extend_from_slice(&(e.epoch as u32).to_le_bytes());
        head.extend_from_slice(&e.loss.to_le_bytes());
        head.extend_from_slice(&(e.retries as u32).to_le_bytes());
    }
    head.extend_from_slice(&(state.recoveries.len() as u32).to_le_bytes());
    for r in &state.recoveries {
        head.extend_from_slice(&(r.epoch as u32).to_le_bytes());
        head.extend_from_slice(&(r.attempt as u32).to_le_bytes());
        head.push(match r.cause {
            DivergenceCause::NonFiniteLoss => 0,
            DivergenceCause::NonFiniteGradient => 1,
        });
        head.extend_from_slice(&r.lr_next.to_le_bytes());
    }
    let mut sections = vec![head];
    sections.extend(param_sections(&state.params));
    sections.push(moments_section(&state.opt.m));
    sections.push(moments_section(&state.opt.v));
    durable::encode(MAGIC, VERSION, &sections)
}

/// Deserialize a [`TrainState`] written by [`encode_train_state`], verifying
/// every section checksum and the footer.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] on bad magic/version, truncation,
/// checksum mismatch, trailing bytes, or implausible declared lengths.
pub fn load_train_state(bytes: &[u8]) -> io::Result<TrainState> {
    let sections = durable::parse(bytes, MAGIC, VERSION)?.into_intact()?;
    let [head, params @ .., m, v] = sections.as_slice() else {
        return Err(invalid(format!(
            "train state holds {} section(s), needs at least 3",
            sections.len()
        )));
    };
    let mut r = Cursor::new(&bytes[head.clone()]);
    let epochs_done = r.u64("epoch counter")? as usize;
    let seed = r.u64("seed")?;
    let t = r.u64("adam step count")?;
    let history_len = r.count(MAX_LIST_LEN, "history length")?;
    let mut history = Vec::with_capacity(history_len.min(1024));
    for _ in 0..history_len {
        history.push(EpochStats {
            epoch: r.u32("history epoch")? as usize,
            loss: r.f32("history loss")?,
            retries: r.u32("history retries")? as usize,
        });
    }
    let recoveries_len = r.count(MAX_LIST_LEN, "recovery length")?;
    let mut recoveries = Vec::with_capacity(recoveries_len.min(1024));
    for _ in 0..recoveries_len {
        let epoch = r.u32("recovery epoch")? as usize;
        let attempt = r.u32("recovery attempt")? as usize;
        let cause = match r.u8("recovery cause")? {
            0 => DivergenceCause::NonFiniteLoss,
            1 => DivergenceCause::NonFiniteGradient,
            c => return Err(invalid(format!("unknown divergence cause tag {c}"))),
        };
        recoveries.push(RecoveryEvent {
            epoch,
            attempt,
            cause,
            lr_next: r.f32("recovery lr")?,
        });
    }
    r.finish("train-state header")?;
    Ok(TrainState {
        epochs_done,
        seed,
        params: params_from_sections(bytes, params)?,
        opt: AdamState {
            t,
            m: moments_from(&bytes[m.clone()])?,
            v: moments_from(&bytes[v.clone()])?,
        },
        history,
        recoveries,
    })
}

/// Encode Adam moment slots: `u32 slot count`, then per slot a presence
/// byte and, when present, the matrix.
fn moments_section(slots: &[Option<Matrix>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(slots.len() as u32).to_le_bytes());
    for slot in slots {
        match slot {
            Some(m) => {
                out.push(1);
                put_matrix(&mut out, m);
            }
            None => out.push(0),
        }
    }
    out
}

/// Inverse of [`moments_section`].
fn moments_from(section: &[u8]) -> io::Result<Vec<Option<Matrix>>> {
    let mut r = Cursor::new(section);
    let len = r.count(MAX_LIST_LEN, "moment slot count")?;
    let mut slots = Vec::with_capacity(len.min(1024));
    for i in 0..len {
        slots.push(match r.u8("moment slot tag")? {
            0 => None,
            1 => Some(r.matrix("moment slot")?),
            tag => return Err(invalid(format!("bad tag {tag} on moment slot {i}"))),
        });
    }
    r.finish("moment section")?;
    Ok(slots)
}

/// A directory of generation-numbered [`TrainState`] files.
///
/// Writes are crash-safe (temp + fsync + atomic rename) and every
/// generation is independently checksummed, so after a crash at *any*
/// instant the directory still yields the newest fully committed
/// generation. [`save`](Self::save) never deletes the previous generation
/// before the new one is durably in place.
///
/// Resume from the newest intact generation, then train one epoch at a
/// time and save after each. A crash loses at most the epoch in flight,
/// and the resumed run is bit-identical to one that never stopped:
///
/// ```no_run
/// use am_dgcnn::{CheckpointDir, Experiment};
/// use amdgcnn_data::{wn18_like, Wn18Config};
///
/// # fn main() -> am_dgcnn::error::Result<()> {
/// let ds = wn18_like(&Wn18Config::tiny());
/// let exp = Experiment::builder().seed(7).build();
/// let mut s = exp.session(&ds, None)?;
/// let dir = CheckpointDir::create("ckpts")?;
/// // An empty directory starts fresh; a generation from another run is
/// // refused with `Error::ResumeMismatch`.
/// if let Some((_generation, state)) = dir.latest()? {
///     s.trainer.restore(&state, &mut s.ps)?;
/// }
/// while s.trainer.epochs_done() < 10 {
///     s.trainer.train(&s.model, &mut s.ps, &s.train_samples, 1)?;
///     dir.save(&s.trainer.snapshot(&s.ps), 2, None)?;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
}

impl CheckpointDir {
    /// Bind to `dir`, creating it if missing.
    ///
    /// # Errors
    /// [`Error::CheckpointIo`] when the directory cannot be created.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| Error::CheckpointIo {
            detail: format!("cannot create checkpoint dir {}: {e}", dir.display()),
        })?;
        Ok(Self { dir })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// File path of generation `generation`.
    pub fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:08}.amts"))
    }

    /// Committed generation numbers, ascending. Stale `.tmp` files from
    /// interrupted writes are ignored.
    pub fn generations(&self) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| Error::CheckpointIo {
            detail: format!("cannot read checkpoint dir {}: {e}", self.dir.display()),
        })?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".amts"))
            {
                if let Ok(g) = num.parse::<u64>() {
                    out.push(g);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Durably write `state` as generation `state.epochs_done`, then prune
    /// old generations down to `keep` (at least 2 are always retained so a
    /// torn newest generation leaves a fallback). Returns the generation
    /// number written.
    ///
    /// `fault` deterministically injects a durability failure for testing;
    /// pass `None` in production.
    ///
    /// # Errors
    /// [`Error::CheckpointIo`] on I/O failure.
    pub fn save(&self, state: &TrainState, keep: usize, fault: Option<DiskFault>) -> Result<u64> {
        let generation = state.epochs_done as u64;
        let path = self.generation_path(generation);
        write_atomic(&path, &encode_train_state(state), fault).map_err(|e| {
            Error::CheckpointIo {
                detail: format!("cannot write {}: {e}", path.display()),
            }
        })?;
        self.prune(keep.max(2));
        Ok(generation)
    }

    /// Load the newest generation that passes all integrity checks,
    /// together with its generation number. Corrupt newer generations
    /// (torn writes, bit flips) are skipped, never silently accepted.
    /// Returns `Ok(None)` when the directory holds no checkpoint files at
    /// all (a fresh run).
    ///
    /// # Errors
    /// [`Error::CheckpointIo`] when checkpoint files exist but none of
    /// them loads cleanly — resuming silently from scratch would discard
    /// real progress, so that decision is left to the caller.
    pub fn latest(&self) -> Result<Option<(u64, TrainState)>> {
        let generations = self.generations()?;
        if generations.is_empty() {
            return Ok(None);
        }
        let mut failures = Vec::new();
        for &g in generations.iter().rev() {
            let path = self.generation_path(g);
            match std::fs::read(&path).and_then(|bytes| load_train_state(&bytes)) {
                Ok(state) => return Ok(Some((g, state))),
                Err(e) => failures.push(format!("generation {g}: {e}")),
            }
        }
        Err(Error::CheckpointIo {
            detail: format!(
                "no loadable checkpoint generation in {} ({})",
                self.dir.display(),
                failures.join("; ")
            ),
        })
    }

    /// Delete committed generations beyond the newest `keep`, plus any
    /// stale `.tmp` files from interrupted writes. Best-effort: pruning
    /// failures never fail a save.
    fn prune(&self, keep: usize) {
        if let Ok(generations) = self.generations() {
            if generations.len() > keep {
                for &g in &generations[..generations.len() - keep] {
                    let _ = std::fs::remove_file(self.generation_path(g));
                }
            }
        }
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_str().is_some_and(|n| n.ends_with(".tmp")) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "amdgcnn-ckpt-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn sample_state(epochs: usize) -> TrainState {
        let mut params = ParamStore::new();
        params.register("w", Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 * 0.1));
        params.register("b", Matrix::from_vec(1, 3, vec![0.5, -0.5, 1.5]));
        TrainState {
            epochs_done: epochs,
            seed: 42,
            params,
            opt: AdamState {
                t: epochs as u64 * 7,
                m: vec![Some(Matrix::full(2, 3, 0.01)), None],
                v: vec![Some(Matrix::full(2, 3, 0.02)), None],
            },
            history: (1..=epochs)
                .map(|e| EpochStats {
                    epoch: e,
                    loss: 1.0 / e as f32,
                    retries: usize::from(e == 2),
                })
                .collect(),
            recoveries: vec![RecoveryEvent {
                epoch: 2,
                attempt: 1,
                cause: DivergenceCause::NonFiniteLoss,
                lr_next: 1e-3,
            }],
        }
    }

    fn assert_states_equal(a: &TrainState, b: &TrainState) {
        assert_eq!(a.epochs_done, b.epochs_done);
        assert_eq!(a.seed, b.seed);
        assert_eq!(
            amdgcnn_tensor::io::params_digest(&a.params),
            amdgcnn_tensor::io::params_digest(&b.params)
        );
        assert_eq!(a.opt.t, b.opt.t);
        assert_eq!(a.opt.m.len(), b.opt.m.len());
        for (x, y) in a.opt.m.iter().zip(&b.opt.m) {
            assert_eq!(x.as_ref().map(|m| m.data()), y.as_ref().map(|m| m.data()));
        }
        assert_eq!(a.history.len(), b.history.len());
        assert_eq!(a.recoveries, b.recoveries);
    }

    #[test]
    fn train_state_roundtrip() {
        let state = sample_state(3);
        let buf = encode_train_state(&state);
        let loaded = load_train_state(buf.as_slice()).expect("load");
        assert_states_equal(&state, &loaded);
    }

    #[test]
    fn every_byte_flip_in_state_is_detected() {
        let state = sample_state(2);
        let buf = encode_train_state(&state);
        for pos in (0..buf.len()).step_by(3) {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 0x20;
            assert!(
                load_train_state(corrupt.as_slice()).is_err(),
                "flip at {pos} must be rejected"
            );
        }
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let state = sample_state(2);
        let buf = encode_train_state(&state);
        for cut in (0..buf.len()).step_by(5) {
            assert!(
                load_train_state(&buf[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn appended_bytes_are_rejected() {
        let mut buf = encode_train_state(&sample_state(2));
        buf.push(0);
        let err = load_train_state(&buf).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn checkpoint_dir_saves_and_loads_latest() {
        let dir = CheckpointDir::create(scratch_dir("latest")).expect("dir");
        dir.save(&sample_state(1), 4, None).expect("save 1");
        dir.save(&sample_state(2), 4, None).expect("save 2");
        let (g, state) = dir.latest().expect("latest").expect("present");
        assert_eq!(g, 2);
        assert_eq!(state.epochs_done, 2);
        assert_eq!(dir.generations().expect("list"), vec![1, 2]);
    }

    #[test]
    fn empty_dir_resumes_fresh() {
        let dir = CheckpointDir::create(scratch_dir("empty")).expect("dir");
        assert!(dir.latest().expect("latest").is_none());
    }

    #[test]
    fn torn_write_falls_back_to_previous_generation() {
        let dir = CheckpointDir::create(scratch_dir("torn")).expect("dir");
        dir.save(&sample_state(1), 4, None).expect("save 1");
        dir.save(&sample_state(2), 4, Some(DiskFault::TornWrite))
            .expect("torn save");
        let (g, state) = dir.latest().expect("latest").expect("present");
        assert_eq!(g, 1, "torn generation 2 must be skipped");
        assert_eq!(state.epochs_done, 1);
    }

    #[test]
    fn bit_flip_falls_back_to_previous_generation() {
        let dir = CheckpointDir::create(scratch_dir("flip")).expect("dir");
        dir.save(&sample_state(1), 4, None).expect("save 1");
        dir.save(&sample_state(2), 4, Some(DiskFault::BitFlip))
            .expect("flipped save");
        let (g, _) = dir.latest().expect("latest").expect("present");
        assert_eq!(g, 1, "bit-flipped generation 2 must be skipped");
    }

    #[test]
    fn partial_flush_leaves_previous_generation_live() {
        let dir = CheckpointDir::create(scratch_dir("flush")).expect("dir");
        dir.save(&sample_state(1), 4, None).expect("save 1");
        dir.save(&sample_state(2), 4, Some(DiskFault::PartialFlush))
            .expect("flushed save");
        let (g, _) = dir.latest().expect("latest").expect("present");
        assert_eq!(g, 1, "generation 2 never committed");
        // The stale tmp does not appear as a generation.
        assert_eq!(dir.generations().expect("list"), vec![1]);
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error() {
        let dir = CheckpointDir::create(scratch_dir("allbad")).expect("dir");
        dir.save(&sample_state(1), 4, Some(DiskFault::TornWrite))
            .expect("torn save");
        let err = dir.latest().expect_err("must fail");
        assert!(matches!(err, Error::CheckpointIo { .. }), "{err:?}");
    }

    #[test]
    fn prune_keeps_newest_generations() {
        let dir = CheckpointDir::create(scratch_dir("prune")).expect("dir");
        for e in 1..=5 {
            dir.save(&sample_state(e), 2, None).expect("save");
        }
        assert_eq!(dir.generations().expect("list"), vec![4, 5]);
    }
}
