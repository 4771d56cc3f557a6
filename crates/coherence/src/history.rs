//! Recorded executions.
//!
//! The deterministic simulator lets us treat a whole distributed run as
//! one replayable history: every client read/write, every store apply,
//! and each store's final state digest. The checkers in [`crate::check`]
//! then decide whether that history satisfies a given coherence model.

use std::collections::BTreeMap;

use globe_net::SimTime;

use crate::{ClientId, StoreId, VersionVector, WriteId};

/// Name of one page of a Web document; histories track coherence per page
/// ("a document is a collection of one or more pages", §1).
pub type PageKey = String;

/// What a client operation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// A read that returned the value written by `sees` (or the initial
    /// state when `None`), executed by a store whose applied-write vector
    /// was `store_version` at that moment.
    Read {
        /// The write whose value was returned.
        sees: Option<WriteId>,
        /// The executing store's applied vector at read time.
        store_version: VersionVector,
    },
    /// A write tagged `wid`, carrying causal dependencies `deps`
    /// (empty unless the object runs the causal model).
    Write {
        /// The write identifier (paper's WiD).
        wid: WriteId,
        /// Writes this one causally depends on.
        deps: VersionVector,
    },
}

/// One client-issued operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOp {
    /// Global record order; assigned monotonically by the recorder.
    pub tick: u64,
    /// Virtual time of execution.
    pub at: SimTime,
    /// The issuing client.
    pub client: ClientId,
    /// The store that executed the operation.
    pub store: StoreId,
    /// The page operated on.
    pub page: PageKey,
    /// Read or write payload.
    pub kind: OpKind,
}

/// One write being applied to one store's replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyRecord {
    /// Global record order shared with [`ClientOp::tick`].
    pub tick: u64,
    /// Virtual time of application.
    pub at: SimTime,
    /// The applying store.
    pub store: StoreId,
    /// The applied write.
    pub wid: WriteId,
    /// The page the write touched.
    pub page: PageKey,
}

/// A complete recorded execution.
///
/// # Examples
///
/// ```
/// use globe_coherence::{ClientId, History, StoreId, VersionVector, WriteId};
/// use globe_net::SimTime;
///
/// let mut h = History::new();
/// let (c, s) = (ClientId::new(1), StoreId::new(0));
/// let w = WriteId::new(c, 1);
/// h.record_write(SimTime::ZERO, c, s, "index.html", w, VersionVector::new());
/// h.record_apply(SimTime::ZERO, s, w, "index.html");
/// assert_eq!(h.writes().count(), 1);
/// assert_eq!(h.applies().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct History {
    next_tick: u64,
    ops: Vec<ClientOp>,
    applies: Vec<ApplyRecord>,
    final_digests: BTreeMap<StoreId, u64>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    fn tick(&mut self) -> u64 {
        let t = self.next_tick;
        self.next_tick += 1;
        t
    }

    /// Records a client read.
    pub fn record_read(
        &mut self,
        at: SimTime,
        client: ClientId,
        store: StoreId,
        page: impl Into<PageKey>,
        sees: Option<WriteId>,
        store_version: VersionVector,
    ) {
        let tick = self.tick();
        self.ops.push(ClientOp {
            tick,
            at,
            client,
            store,
            page: page.into(),
            kind: OpKind::Read {
                sees,
                store_version,
            },
        });
    }

    /// Records a client write submission.
    pub fn record_write(
        &mut self,
        at: SimTime,
        client: ClientId,
        store: StoreId,
        page: impl Into<PageKey>,
        wid: WriteId,
        deps: VersionVector,
    ) {
        let tick = self.tick();
        self.ops.push(ClientOp {
            tick,
            at,
            client,
            store,
            page: page.into(),
            kind: OpKind::Write { wid, deps },
        });
    }

    /// Records a store applying a write to its replica.
    pub fn record_apply(
        &mut self,
        at: SimTime,
        store: StoreId,
        wid: WriteId,
        page: impl Into<PageKey>,
    ) {
        let tick = self.tick();
        self.applies.push(ApplyRecord {
            tick,
            at,
            store,
            wid,
            page: page.into(),
        });
    }

    /// Records a store's final state digest (for convergence checking).
    pub fn record_final_digest(&mut self, store: StoreId, digest: u64) {
        self.final_digests.insert(store, digest);
    }

    /// All client operations in global record order.
    pub fn ops(&self) -> &[ClientOp] {
        &self.ops
    }

    /// All apply events in global record order.
    pub fn applies(&self) -> &[ApplyRecord] {
        &self.applies
    }

    /// Final state digests by store.
    pub fn final_digests(&self) -> &BTreeMap<StoreId, u64> {
        &self.final_digests
    }

    /// Client operations of one client, in program order.
    pub fn client_ops(&self, client: ClientId) -> impl Iterator<Item = &ClientOp> + '_ {
        self.ops.iter().filter(move |op| op.client == client)
    }

    /// All write submissions, in global record order.
    pub fn writes(&self) -> impl Iterator<Item = (&ClientOp, WriteId, &VersionVector)> + '_ {
        self.ops.iter().filter_map(|op| match &op.kind {
            OpKind::Write { wid, deps } => Some((op, *wid, deps)),
            OpKind::Read { .. } => None,
        })
    }

    /// Apply events of one store, in application order.
    pub fn store_applies(&self, store: StoreId) -> impl Iterator<Item = &ApplyRecord> + '_ {
        self.applies.iter().filter(move |a| a.store == store)
    }

    /// Every client that issued at least one operation.
    pub fn clients(&self) -> Vec<ClientId> {
        let mut out: Vec<ClientId> = self.ops.iter().map(|op| op.client).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every store that applied at least one write or served an operation.
    pub fn stores(&self) -> Vec<StoreId> {
        let mut out: Vec<StoreId> = self
            .applies
            .iter()
            .map(|a| a.store)
            .chain(self.ops.iter().map(|op| op.store))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.ops.len() + self.applies.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.applies.is_empty()
    }
}

/// 64-bit FNV-1a digest, used to fingerprint replica states for the
/// eventual-convergence checker without shipping whole states around.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u32) -> ClientId {
        ClientId::new(n)
    }
    fn s(n: u32) -> StoreId {
        StoreId::new(n)
    }

    #[test]
    fn ticks_are_globally_monotone_across_streams() {
        let mut h = History::new();
        h.record_write(
            SimTime::ZERO,
            c(1),
            s(0),
            "p",
            WriteId::new(c(1), 1),
            VersionVector::new(),
        );
        h.record_apply(SimTime::ZERO, s(0), WriteId::new(c(1), 1), "p");
        h.record_read(
            SimTime::ZERO,
            c(1),
            s(0),
            "p",
            Some(WriteId::new(c(1), 1)),
            VersionVector::new(),
        );
        assert_eq!(h.ops()[0].tick, 0);
        assert_eq!(h.applies()[0].tick, 1);
        assert_eq!(h.ops()[1].tick, 2);
    }

    #[test]
    fn filtered_views() {
        let mut h = History::new();
        h.record_write(
            SimTime::ZERO,
            c(1),
            s(0),
            "p",
            WriteId::new(c(1), 1),
            VersionVector::new(),
        );
        h.record_write(
            SimTime::ZERO,
            c(2),
            s(1),
            "p",
            WriteId::new(c(2), 1),
            VersionVector::new(),
        );
        h.record_apply(SimTime::ZERO, s(0), WriteId::new(c(1), 1), "p");
        assert_eq!(h.clients(), vec![c(1), c(2)]);
        assert_eq!(h.stores(), vec![s(0), s(1)]);
        assert_eq!(h.client_ops(c(1)).count(), 1);
        assert_eq!(h.store_applies(s(0)).count(), 1);
        assert_eq!(h.writes().count(), 2);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"conference"), fnv1a(b"conference"));
    }
}
