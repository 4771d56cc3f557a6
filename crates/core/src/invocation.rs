//! Marshalled invocation messages.

use std::fmt;

use bytes::Bytes;
use globe_wire::wire_record;

use crate::MethodId;

/// Whether a method only observes state or also modifies it.
///
/// The control object needs this classification to route an invocation
/// through the replication object correctly; it is the *only* semantic
/// knowledge the framework requires about a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Observes state; may execute at any replica.
    Read,
    /// Modifies state; subject to the object's coherence model.
    Write,
}

impl fmt::Display for MethodKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MethodKind::Read => "read",
            MethodKind::Write => "write",
        })
    }
}

/// A marshalled method invocation: "invocation messages in which method
/// identifiers and parameters have been encoded" (§2).
///
/// Replication and communication objects forward, buffer, log, and replay
/// these without ever interpreting `args`.
///
/// # Examples
///
/// ```
/// use globe_core::{InvocationMessage, MethodId};
///
/// let inv = InvocationMessage::new(MethodId::new(1), bytes::Bytes::from_static(b"index.html"));
/// assert_eq!(inv.method, MethodId::new(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationMessage {
    /// The invoked method.
    pub method: MethodId,
    /// Marshalled parameters, opaque to the framework.
    pub args: Bytes,
}

impl InvocationMessage {
    /// Creates an invocation message.
    pub fn new(method: MethodId, args: Bytes) -> Self {
        InvocationMessage { method, args }
    }
}

wire_record!(InvocationMessage { method, args });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let inv = InvocationMessage::new(MethodId::new(7), Bytes::from_static(b"\x01page"));
        let b = globe_wire::to_bytes(&inv);
        assert_eq!(
            globe_wire::from_bytes::<InvocationMessage>(&b).unwrap(),
            inv
        );
    }

    #[test]
    fn kind_display() {
        assert_eq!(MethodKind::Read.to_string(), "read");
        assert_eq!(MethodKind::Write.to_string(), "write");
    }
}
