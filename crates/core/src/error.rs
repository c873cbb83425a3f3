//! Error type for the diagnosis pipeline.

use entromine_subspace::SubspaceError;
use std::fmt;

/// Errors produced by the end-to-end diagnosis pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DiagnosisError {
    /// The underlying subspace method failed.
    Subspace(SubspaceError),
    /// The dataset is unusable for the requested operation.
    BadDataset(&'static str),
    /// The diagnoser configuration is invalid (caught at fit time).
    BadConfig(&'static str),
    /// Classification was asked for with invalid parameters.
    BadClassifier(&'static str),
    /// A measurement row carried NaN or infinite values. Surfaced instead
    /// of silently poisoning the training window: one retained NaN would
    /// fail every later fit until the row rolled out.
    NonFiniteInput(&'static str),
}

impl fmt::Display for DiagnosisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosisError::Subspace(e) => write!(f, "subspace method failed: {e}"),
            DiagnosisError::BadDataset(what) => write!(f, "bad dataset: {what}"),
            DiagnosisError::BadConfig(what) => write!(f, "bad diagnoser config: {what}"),
            DiagnosisError::BadClassifier(what) => write!(f, "bad classifier config: {what}"),
            DiagnosisError::NonFiniteInput(what) => write!(f, "non-finite input: {what}"),
        }
    }
}

impl std::error::Error for DiagnosisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiagnosisError::Subspace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SubspaceError> for DiagnosisError {
    fn from(e: SubspaceError) -> Self {
        DiagnosisError::Subspace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DiagnosisError::BadDataset("too few bins");
        assert!(e.to_string().contains("too few bins"));
        let inner = SubspaceError::BadAlpha(2.0);
        let e: DiagnosisError = inner.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("alpha"));
    }
}
