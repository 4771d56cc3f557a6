//! Identities used by the coherence machinery.

use std::fmt;

use bytes::{Buf, BufMut};
use globe_wire::{wire_record, WireDecode, WireEncode, WireError};

/// Identifies one client session.
///
/// In the paper's terms a client is a process that performs read and write
/// operations on a Web object (the Web master and each user are clients);
/// PRAM write identifiers and all session guarantees are scoped by client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(u32);

impl ClientId {
    /// Creates a client id from its raw index.
    pub const fn new(raw: u32) -> Self {
        ClientId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl WireEncode for ClientId {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.0);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl WireDecode for ClientId {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(ClientId(u32::decode(buf)?))
    }
}

/// Identifies one store (one replica holder of an object's state).
///
/// Permanent stores, object-initiated stores (mirrors), and
/// client-initiated stores (caches) all carry `StoreId`s; the class lives
/// in `globe-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreId(u32);

impl StoreId {
    /// Creates a store id from its raw index.
    pub const fn new(raw: u32) -> Self {
        StoreId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for StoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl WireEncode for StoreId {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.0);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl WireDecode for StoreId {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(StoreId(u32::decode(buf)?))
    }
}

/// The paper's *WiD*: a write identifier composed of the issuing client
/// and a per-client sequence number (`WiD = ⟨client id, sequence number⟩`,
/// §4.2). Sequence numbers start at 1; `seq = 0` never names a real write.
///
/// # Examples
///
/// ```
/// use globe_coherence::{ClientId, WriteId};
///
/// let w1 = WriteId::new(ClientId::new(3), 1);
/// let w2 = w1.next();
/// assert!(w1 < w2);
/// assert_eq!(w2.to_string(), "w(c3,2)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WriteId {
    /// The issuing client.
    pub client: ClientId,
    /// Position in that client's write sequence, starting at 1.
    pub seq: u64,
}

impl WriteId {
    /// Creates a write id.
    pub const fn new(client: ClientId, seq: u64) -> Self {
        WriteId { client, seq }
    }

    /// The next write id in this client's sequence.
    pub const fn next(self) -> Self {
        WriteId {
            client: self.client,
            seq: self.seq + 1,
        }
    }
}

impl fmt::Display for WriteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w({},{})", self.client, self.seq)
    }
}

wire_record!(WriteId { client, seq });

/// The paper's RYW dependency record: "the identifier of the last
/// performed write and the identifier of the store on which it has been
/// performed" (§4.2), transmitted with read requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dependency {
    /// The write the issuing client most recently performed.
    pub wid: WriteId,
    /// The store that accepted that write.
    pub store: StoreId,
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.wid, self.store)
    }
}

wire_record!(Dependency { wid, store });

#[cfg(test)]
mod tests {
    use super::*;
    use globe_wire::{from_bytes, to_bytes};

    #[test]
    fn write_id_ordering_is_client_then_seq() {
        let a = WriteId::new(ClientId::new(1), 5);
        let b = WriteId::new(ClientId::new(2), 1);
        assert!(a < b, "ordering groups by client first");
        assert!(a < a.next());
    }

    #[test]
    fn wire_roundtrips() {
        let wid = WriteId::new(ClientId::new(7), 123);
        assert_eq!(from_bytes::<WriteId>(&to_bytes(&wid)).unwrap(), wid);
        let dep = Dependency {
            wid,
            store: StoreId::new(2),
        };
        assert_eq!(from_bytes::<Dependency>(&to_bytes(&dep)).unwrap(), dep);
        // Field order on the wire: client, seq, then the store.
        assert_eq!(&to_bytes(&dep)[..], [0, 0, 0, 7, 123, 0, 0, 0, 2]);
        let c = ClientId::new(9);
        assert_eq!(from_bytes::<ClientId>(&to_bytes(&c)).unwrap(), c);
        let s = StoreId::new(4);
        assert_eq!(from_bytes::<StoreId>(&to_bytes(&s)).unwrap(), s);
    }

    #[test]
    fn displays() {
        assert_eq!(ClientId::new(1).to_string(), "c1");
        assert_eq!(StoreId::new(2).to_string(), "s2");
        assert_eq!(
            Dependency {
                wid: WriteId::new(ClientId::new(1), 3),
                store: StoreId::new(0)
            }
            .to_string(),
            "w(c1,3)@s0"
        );
    }
}
