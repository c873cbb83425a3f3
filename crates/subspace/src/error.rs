//! Error type for the subspace method.

use entromine_linalg::LinalgError;
use std::fmt;

/// Errors produced while fitting or applying a subspace model.
#[derive(Debug, Clone, PartialEq)]
pub enum SubspaceError {
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
    /// The requested normal-subspace dimension is invalid for the data.
    BadDimension {
        /// Requested dimension.
        requested: usize,
        /// Number of variables available.
        available: usize,
    },
    /// `alpha` must lie strictly inside `(0, 1)`.
    BadAlpha(f64),
    /// The input matrix is unusable (empty, or too few rows to model).
    BadInput(&'static str),
}

impl fmt::Display for SubspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubspaceError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            SubspaceError::BadDimension {
                requested,
                available,
            } => write!(
                f,
                "normal subspace dimension {requested} invalid for {available} variables"
            ),
            SubspaceError::BadAlpha(a) => {
                write!(f, "confidence level alpha={a} must be in (0, 1)")
            }
            SubspaceError::BadInput(what) => write!(f, "bad input: {what}"),
        }
    }
}

impl std::error::Error for SubspaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubspaceError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for SubspaceError {
    fn from(e: LinalgError) -> Self {
        SubspaceError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = SubspaceError::BadAlpha(1.5);
        assert!(e.to_string().contains("1.5"));
        let inner = LinalgError::NotSymmetric;
        let e = SubspaceError::from(inner);
        assert!(std::error::Error::source(&e).is_some());
        let e = SubspaceError::BadDimension {
            requested: 10,
            available: 4,
        };
        assert!(e.to_string().contains("10"));
    }
}
