//! The workspace-wide error type.

use std::fmt;

/// Errors surfaced by any layer of the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GdbError {
    /// Schema/catalog violations (unknown table, type mismatch, ...).
    Schema(String),
    /// SQL parse errors.
    Parse(String),
    /// Planner/binder errors.
    Plan(String),
    /// Runtime execution errors.
    Execution(String),
    /// Transaction aborted (serialization failure, mode transition, ...).
    TxnAborted(String),
    /// Write conflict: another transaction holds a lock / wrote first.
    WriteConflict(String),
    /// The addressed node is down or unreachable.
    NodeUnavailable(String),
    /// The request carried a stale routing epoch (shard ownership moved
    /// under it); the client must refresh its route table and retry.
    StaleRoute(String),
    /// Duplicate primary key on insert.
    DuplicateKey(String),
    /// Row not found where one was required.
    NotFound(String),
    /// Internal invariant violation — a bug if ever observed.
    Internal(String),
}

impl fmt::Display for GdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdbError::Schema(m) => write!(f, "schema error: {m}"),
            GdbError::Parse(m) => write!(f, "parse error: {m}"),
            GdbError::Plan(m) => write!(f, "plan error: {m}"),
            GdbError::Execution(m) => write!(f, "execution error: {m}"),
            GdbError::TxnAborted(m) => write!(f, "transaction aborted: {m}"),
            GdbError::WriteConflict(m) => write!(f, "write conflict: {m}"),
            GdbError::NodeUnavailable(m) => write!(f, "node unavailable: {m}"),
            GdbError::StaleRoute(m) => write!(f, "stale routing epoch: {m}"),
            GdbError::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            GdbError::NotFound(m) => write!(f, "not found: {m}"),
            GdbError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for GdbError {}

/// Convenience alias used across the workspace.
pub type GdbResult<T> = Result<T, GdbError>;

impl GdbError {
    /// True for errors a client is expected to retry (aborts / conflicts),
    /// as opposed to programming or schema errors.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            GdbError::TxnAborted(_)
                | GdbError::WriteConflict(_)
                | GdbError::NodeUnavailable(_)
                | GdbError::StaleRoute(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(GdbError::Parse("x".into()).to_string(), "parse error: x");
    }

    #[test]
    fn retryability() {
        assert!(GdbError::WriteConflict("k".into()).is_retryable());
        assert!(GdbError::TxnAborted("m".into()).is_retryable());
        assert!(GdbError::StaleRoute("epoch 3 < 4".into()).is_retryable());
        assert!(!GdbError::Schema("s".into()).is_retryable());
        assert!(!GdbError::DuplicateKey("d".into()).is_retryable());
    }
}
