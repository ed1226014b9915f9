use std::error::Error;
use std::fmt;

use slb_linalg::LinalgError;

/// Error type for Markov-chain construction and analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarkovError {
    /// The supplied matrix is not a valid generator / stochastic matrix.
    InvalidChain {
        /// Which validity condition failed.
        reason: String,
    },
    /// The chain (or the requested quantity) is not well defined, e.g. a
    /// stationary distribution of a chain with absorbing junk states.
    NotErgodic {
        /// Diagnostic detail.
        reason: String,
    },
    /// An underlying dense linear-algebra operation failed.
    Linalg(LinalgError),
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::InvalidChain { reason } => write!(f, "invalid chain: {reason}"),
            MarkovError::NotErgodic { reason } => write!(f, "chain is not ergodic: {reason}"),
            MarkovError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for MarkovError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MarkovError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for MarkovError {
    fn from(e: LinalgError) -> Self {
        MarkovError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MarkovError::from(LinalgError::NotSquare { shape: (2, 3) });
        assert!(e.to_string().contains("linear algebra"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<MarkovError>();
    }
}
