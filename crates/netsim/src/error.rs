//! Error types for the network simulator.

use std::error::Error;
use std::fmt;

use crate::id::NodeId;

/// Errors surfaced by networking operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A node id did not refer to a node in the network.
    UnknownNode,
    /// No path exists between the given nodes: a transfer to oneself.
    NoRoute {
        /// Source of the attempted route.
        src: NodeId,
        /// Destination of the attempted route.
        dst: NodeId,
    },
    /// The target node is offline (e.g. has churned out of the swarm).
    NodeOffline(NodeId),
    /// A transfer of zero bytes was requested.
    EmptyTransfer,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode => write!(f, "unknown node id"),
            NetError::NoRoute { src, dst } => write!(f, "no route from {src} to {dst}"),
            NetError::NodeOffline(n) => write!(f, "node {n} is offline"),
            NetError::EmptyTransfer => write!(f, "transfer must carry at least one byte"),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = NetError::NoRoute {
            src: NodeId::from_index(1),
            dst: NodeId::from_index(2),
        };
        assert_eq!(e.to_string(), "no route from n1 to n2");
        assert_eq!(NetError::UnknownNode.to_string(), "unknown node id");
        assert_eq!(
            NetError::EmptyTransfer.to_string(),
            "transfer must carry at least one byte"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }
}
