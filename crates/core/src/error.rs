//! Error type of the pipeline's public API.
//!
//! The training/serving entry points (`Trainer::train`,
//! `Experiment::session`, `Experiment::run_session`) return these instead of
//! panicking, so long-running callers (the serving layer, the bench harness)
//! can surface misuse to their own callers.

/// Convenient alias used across the pipeline API.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Everything that can go wrong in the high-level pipeline API.
///
/// Mirrors the `thiserror` idiom (one variant per failure, `Display` gives
/// the human message, `std::error::Error` implemented) without the derive
/// dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Training was requested on an empty sample split.
    EmptySplit,
    /// `run_session` was given checkpoints that go backwards: a trainer
    /// cannot un-train epochs.
    DescendingCheckpoints {
        /// Epochs the session had already completed.
        epochs_done: usize,
        /// The (smaller) checkpoint that was requested next.
        requested: usize,
    },
    /// A training-subset size exceeded the available training split.
    SubsetTooLarge {
        /// The subset size the caller asked for.
        requested: usize,
        /// Links actually available in the training split.
        available: usize,
    },
    /// Training diverged (non-finite loss or gradients) and the watchdog's
    /// rollback/LR-halving retries were exhausted without recovering.
    Diverged {
        /// The epoch (1-based) that kept diverging.
        epoch: usize,
        /// Retries spent before giving up.
        retries: usize,
    },
    /// The watchdog's rollback checkpoint held non-finite parameters, so
    /// recovery could not proceed from it.
    CheckpointCorrupt {
        /// The epoch (1-based) whose checkpoint failed validation.
        epoch: usize,
    },
    /// A durable checkpoint could not be written, read, or verified
    /// (I/O failure, truncation, checksum mismatch). The detail carries
    /// the underlying error text; it is a `String` so the error type stays
    /// `Clone + PartialEq + Eq`.
    CheckpointIo {
        /// Human-readable description of the failure.
        detail: String,
    },
    /// A checkpoint loaded cleanly but does not fit this experiment
    /// (different seed, parameter names, or shapes; Adam moments that do
    /// not match the parameters; non-finite values) — resuming from it
    /// would silently change the run or crash its next step.
    ResumeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A sample store file could not be read or written (plain I/O failure,
    /// not a verification failure).
    StoreIo {
        /// Human-readable description of the failure.
        detail: String,
    },
    /// A sample store failed integrity verification: unreadable header,
    /// truncated file, or a record whose CRC-32 does not match. Damaged
    /// records surface as store *misses* (the sample is re-prepared), never
    /// as garbage samples.
    StoreCorrupt {
        /// Human-readable description of what failed verification.
        detail: String,
    },
    /// A sample store exists and is intact but was built for different data
    /// or configuration (dataset digest, [`crate::FeatureConfig`]
    /// fingerprint, or graph generation differ). Reusing it would silently
    /// change prepared samples, so it is refused.
    StoreMismatch {
        /// Which fingerprint component diverged, with both values.
        detail: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::EmptySplit => write!(f, "cannot train on an empty split"),
            Error::DescendingCheckpoints {
                epochs_done,
                requested,
            } => write!(
                f,
                "checkpoints must be ascending: {requested} requested after \
                 {epochs_done} epochs were already trained"
            ),
            Error::SubsetTooLarge {
                requested,
                available,
            } => write!(
                f,
                "training subset of {requested} links requested but only \
                 {available} are available"
            ),
            Error::Diverged { epoch, retries } => write!(
                f,
                "training diverged at epoch {epoch}: loss/gradients stayed \
                 non-finite after {retries} rollback retries"
            ),
            Error::CheckpointCorrupt { epoch } => write!(
                f,
                "rollback checkpoint for epoch {epoch} holds non-finite \
                 parameters; cannot recover from it"
            ),
            Error::CheckpointIo { detail } => {
                write!(f, "durable checkpoint failure: {detail}")
            }
            Error::ResumeMismatch { detail } => {
                write!(f, "checkpoint does not match this experiment: {detail}")
            }
            Error::StoreIo { detail } => {
                write!(f, "sample store I/O failure: {detail}")
            }
            Error::StoreCorrupt { detail } => {
                write!(f, "sample store failed verification: {detail}")
            }
            Error::StoreMismatch { detail } => {
                write!(f, "sample store belongs to different data: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_numbers() {
        let e = Error::DescendingCheckpoints {
            epochs_done: 3,
            requested: 1,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("ascending") && msg.contains('3') && msg.contains('1'),
            "{msg}"
        );

        let e = Error::SubsetTooLarge {
            requested: 10,
            available: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("10") && msg.contains('4'), "{msg}");

        assert_eq!(
            Error::EmptySplit.to_string(),
            "cannot train on an empty split"
        );
    }
}
