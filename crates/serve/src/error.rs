//! Typed serving errors: every way a query can fail to be answered.
//!
//! The fault-tolerant [`crate::server::BatchServer`] never panics a caller:
//! a query is always resolved, either with class probabilities or with one
//! of these errors describing which protection fired.

/// Why a submitted (or about-to-be-submitted) query was not answered.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The query's deadline passed before a batch slot reached it.
    DeadlineExceeded,
    /// The bounded queue was full; the query was shed at admission.
    Overloaded {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The circuit breaker is open after consecutive batch failures; the
    /// server sheds load until a cooldown probe succeeds.
    Degraded,
    /// The server was shut down (or dropped) before answering.
    ServerShutdown,
    /// The batch worker panicked while executing this query's batch. The
    /// worker has been respawned; the query may be retried by the caller.
    WorkerPanicked,
    /// The engine kept failing transiently through the retry budget.
    EngineFault {
        /// Retries attempted before giving up.
        retries: u32,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DeadlineExceeded => write!(f, "query deadline exceeded while queued"),
            Error::Overloaded { capacity } => {
                write!(f, "server overloaded: queue capacity {capacity} exhausted")
            }
            Error::Degraded => write!(
                f,
                "server degraded: circuit breaker open after consecutive batch failures"
            ),
            Error::ServerShutdown => write!(f, "server shut down before answering"),
            Error::WorkerPanicked => {
                write!(f, "batch worker panicked executing this query's batch")
            }
            Error::EngineFault { retries } => write!(
                f,
                "engine failed transiently and stayed failed through {retries} retries"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_protection() {
        assert!(Error::DeadlineExceeded.to_string().contains("deadline"));
        assert!(Error::Overloaded { capacity: 8 }.to_string().contains('8'));
        assert!(Error::Degraded.to_string().contains("circuit breaker"));
        assert!(Error::ServerShutdown.to_string().contains("shut down"));
        assert!(Error::WorkerPanicked.to_string().contains("panicked"));
        assert!(Error::EngineFault { retries: 2 }.to_string().contains('2'));
    }
}
