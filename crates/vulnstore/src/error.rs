//! Error type for store operations.

use std::fmt;

/// Error produced by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A row referenced by id does not exist.
    NotFound {
        /// Description of what was being looked up.
        what: &'static str,
    },
    /// Decoded tables violate a relational invariant (dangling foreign
    /// key, duplicate unique key, …) — the input cannot come from a
    /// well-formed store.
    Inconsistent {
        /// The violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound { what } => write!(f, "{what} not found"),
            StoreError::Inconsistent { what } => {
                write!(f, "inconsistent store tables: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_violated_invariant() {
        let err = StoreError::Inconsistent {
            what: "duplicate CVE identifier",
        };
        assert_eq!(
            err.to_string(),
            "inconsistent store tables: duplicate CVE identifier"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<StoreError>();
    }
}
