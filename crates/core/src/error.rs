//! Simulator error type.

use std::error::Error;
use std::fmt;

use hygcn_gcn::GcnError;
use hygcn_graph::GraphError;

/// Errors produced by the accelerator simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Buffer configuration cannot hold even one feature vector.
    BufferTooSmall {
        /// Which buffer.
        buffer: &'static str,
        /// Bytes required for a single vector.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// Model/graph mismatch or functional failure.
    Gcn(GcnError),
    /// Graph-side failure.
    Graph(GraphError),
    /// The configuration is internally inconsistent (for example an HBM
    /// geometry that is not a power of two) — the first violated
    /// constraint of [`crate::config::HyGcnConfig::validate`].
    Config(String),
    /// A pluggable [`crate::backend::SimBackend`] failed for a reason of
    /// its own (platform model internals, external tooling, injected
    /// test faults) — the catch-all that lets third-party backends
    /// surface errors without extending this enum.
    Backend(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BufferTooSmall {
                buffer,
                needed,
                available,
            } => write!(
                f,
                "{buffer} buffer too small: one vector needs {needed} bytes, only {available} available"
            ),
            SimError::Gcn(e) => write!(f, "model error: {e}"),
            SimError::Graph(e) => write!(f, "graph error: {e}"),
            SimError::Config(m) => write!(f, "invalid configuration: {m}"),
            SimError::Backend(m) => write!(f, "backend error: {m}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Gcn(e) => Some(e),
            SimError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GcnError> for SimError {
    fn from(e: GcnError) -> Self {
        SimError::Gcn(e)
    }
}

impl From<GraphError> for SimError {
    fn from(e: GraphError) -> Self {
        SimError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::BufferTooSmall {
            buffer: "input",
            needed: 5732,
            available: 1024,
        };
        let s = e.to_string();
        assert!(s.contains("input"));
        assert!(s.contains("5732"));
    }

    #[test]
    fn conversions() {
        let e: SimError = GcnError::InvalidModel("x".into()).into();
        assert!(e.source().is_some());
    }
}
