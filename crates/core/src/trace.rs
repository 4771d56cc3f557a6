//! The protocol flight recorder: a typed, bounded event journal.
//!
//! Every protocol-significant step — staging, flushing, ordering,
//! fan-out, application, acknowledgement, lease traffic, suspicion and
//! takeover — can be captured as a [`ProtocolEvent`], stamped with the
//! emitting node/store/object and the backend's notion of *now*
//! (virtual [`SimTime`] on the simulator, wall-epoch nanoseconds on the
//! TCP and shard backends), and recorded into a bounded per-node ring
//! ([`TraceLog`]). Capture is off by default
//! (`RuntimeConfig::trace_capacity(0)`): the hot path pays exactly one
//! branch. A [`TraceSnapshot`] merges the rings into one time-ordered
//! journal, derives structured views (per-write latency breakdown,
//! flush-reason histogram, fail-over timeline), and feeds the
//! [`TraceChecker`], which asserts protocol invariants directly from
//! the journal.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use globe_coherence::{StoreId, VersionVector, WriteId};
use globe_naming::ObjectId;
use globe_net::{NodeId, SimTime};

/// Why a sequencer's staged batch flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlushReason {
    /// The batch reached `batch_max` staged writes.
    Max,
    /// The `batch_window` timer expired on a partial batch.
    Window,
    /// A read arrived; the batch flushed so the read sees staged writes.
    Read,
    /// A peer demanded an update; staged writes must be ordered first.
    Demand,
    /// A policy change; staged writes commit under the outgoing policy.
    Policy,
}

impl FlushReason {
    /// All reasons, in histogram order.
    pub const ALL: [FlushReason; 5] = [
        FlushReason::Max,
        FlushReason::Window,
        FlushReason::Read,
        FlushReason::Demand,
        FlushReason::Policy,
    ];
}

/// Which path served a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReadSource {
    /// The home (sequencing) store answered.
    Home,
    /// A permanent replica answered locally under a valid read lease.
    Lease,
    /// A replica answered locally because its policy allows local reads
    /// (leases not in play).
    LocalPolicy,
}

/// One protocol-significant step, as the emitting replica saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A group-committing sequencer staged a write.
    WriteStaged {
        /// The staged write.
        write: WriteId,
    },
    /// The staged batch flushed: `size` writes admitted in one pass.
    BatchFlushed {
        /// What forced the flush.
        reason: FlushReason,
        /// Writes in the flushed batch.
        size: usize,
    },
    /// The sequencer assigned `seq` in the total order, under its
    /// election `epoch`.
    WriteOrdered {
        /// The ordered write.
        write: WriteId,
        /// The assigned total-order slot.
        seq: u64,
        /// The sequencer's election epoch at assignment.
        epoch: u64,
    },
    /// The home fanned pending writes out to `peers` in-scope peers.
    FanoutSent {
        /// Peers that received a transfer frame in this pass.
        peers: usize,
    },
    /// The write was applied to this replica's semantics state.
    WriteApplied {
        /// The applied write.
        write: WriteId,
    },
    /// This replica sent the client-facing acknowledgement.
    WriteAcked {
        /// The acknowledged write.
        write: WriteId,
    },
    /// A read was answered here, by the named path.
    ReadServed {
        /// Which path served it.
        source: ReadSource,
    },
    /// This replica installed a fresh read lease.
    LeaseGranted {
        /// The granting sequencer's epoch.
        epoch: u64,
    },
    /// This replica refreshed a lease it already held.
    LeaseRenewed {
        /// The granting sequencer's epoch.
        epoch: u64,
    },
    /// This replica's lease was dropped (revocation frame, suspicion,
    /// epoch change, demotion).
    LeaseRevoked {
        /// The epoch this replica followed when the lease died.
        epoch: u64,
    },
    /// This replica noticed its lease had lapsed (validity window or
    /// grant-point staleness) when a read tried to use it.
    LeaseExpired {
        /// The epoch this replica followed at the refusal.
        epoch: u64,
    },
    /// The failure detector reported `peer` as suspect to this replica.
    SuspicionRaised {
        /// The suspect node.
        peer: NodeId,
    },
    /// This replica decided to run for sequencer at `epoch`.
    ElectionStarted {
        /// The epoch the election targets.
        epoch: u64,
    },
    /// This replica announced its takeover at `epoch`.
    TakeoverAnnounced {
        /// The epoch of the takeover.
        epoch: u64,
    },
    /// The home shipped a full state transfer to a joiner at `to`.
    StateTransferSent {
        /// The joiner's node.
        to: NodeId,
        /// Write-log entries carried by the transfer.
        entries: usize,
    },
    /// This replica installed a lifecycle state transfer.
    StateTransferInstalled,
    /// This replica checkpointed its storage backend (snapshot at the
    /// current applied vector; durable backends persist it).
    CheckpointTaken {
        /// Logical log length at the checkpoint.
        log_len: usize,
    },
    /// The home recorded a peer's ack of the pending checkpoint (the
    /// receive side of [`ProtocolEvent::CheckpointTaken`]'s announce/ack round; when
    /// the last ack lands the covered log prefix becomes compactable).
    CheckpointAcked {
        /// The acking peer.
        from: NodeId,
        /// Peers whose ack is still outstanding after this one.
        outstanding: usize,
    },
    /// This replica dropped a fully-acknowledged log prefix.
    LogCompacted {
        /// Entries truncated in this pass.
        truncated: usize,
    },
    /// The home shipped an incremental (suffix-only) state transfer.
    DeltaTransferSent {
        /// The recovering joiner's node.
        to: NodeId,
        /// Write-log entries carried by the delta (across all chunks).
        entries: usize,
        /// Chunks the delta was split into.
        chunks: usize,
    },
    /// This replica assembled and applied an incremental transfer.
    DeltaTransferInstalled {
        /// Writes applied from the delta.
        entries: usize,
    },
    /// This replica restored a checkpoint from local durable storage at
    /// start-up; nothing below `version` may be applied again.
    CheckpointInstalled {
        /// The restored checkpoint's applied vector.
        version: VersionVector,
    },
}

impl ProtocolEvent {
    /// Stable event-kind label (the frame catalogue's "Trace story"
    /// column names these).
    pub const fn kind(&self) -> &'static str {
        match self {
            ProtocolEvent::WriteStaged { .. } => "write_staged",
            ProtocolEvent::BatchFlushed { .. } => "batch_flushed",
            ProtocolEvent::WriteOrdered { .. } => "write_ordered",
            ProtocolEvent::FanoutSent { .. } => "fanout_sent",
            ProtocolEvent::WriteApplied { .. } => "write_applied",
            ProtocolEvent::WriteAcked { .. } => "write_acked",
            ProtocolEvent::ReadServed { .. } => "read_served",
            ProtocolEvent::LeaseGranted { .. } => "lease_granted",
            ProtocolEvent::LeaseRenewed { .. } => "lease_renewed",
            ProtocolEvent::LeaseRevoked { .. } => "lease_revoked",
            ProtocolEvent::LeaseExpired { .. } => "lease_expired",
            ProtocolEvent::SuspicionRaised { .. } => "suspicion_raised",
            ProtocolEvent::ElectionStarted { .. } => "election_started",
            ProtocolEvent::TakeoverAnnounced { .. } => "takeover_announced",
            ProtocolEvent::StateTransferSent { .. } => "state_transfer_sent",
            ProtocolEvent::StateTransferInstalled => "state_transfer_installed",
            ProtocolEvent::CheckpointTaken { .. } => "checkpoint_taken",
            ProtocolEvent::CheckpointAcked { .. } => "checkpoint_acked",
            ProtocolEvent::LogCompacted { .. } => "log_compacted",
            ProtocolEvent::DeltaTransferSent { .. } => "delta_transfer_sent",
            ProtocolEvent::DeltaTransferInstalled { .. } => "delta_transfer_installed",
            ProtocolEvent::CheckpointInstalled { .. } => "checkpoint_installed",
        }
    }
}

/// One journal entry: an event plus where and when it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Backend-appropriate instant: virtual time on sim, wall-epoch
    /// nanoseconds on TCP/shard.
    pub at: SimTime,
    /// The node that emitted the event.
    pub node: NodeId,
    /// The distributed object the event belongs to.
    pub object: ObjectId,
    /// The emitting replica's store id.
    pub store: StoreId,
    /// What happened.
    pub event: ProtocolEvent,
}

/// Bounded per-node ring buffers holding the captured journal.
///
/// Capacity is per node; when a ring is full the oldest entry is
/// evicted (and counted in `dropped`), so each surviving per-node
/// suffix stays contiguous and time-ordered. Capacity `0` disables
/// capture entirely.
#[derive(Debug, Default)]
pub struct TraceLog {
    capacity: usize,
    rings: BTreeMap<NodeId, VecDeque<TraceEvent>>,
    dropped: u64,
}

impl TraceLog {
    /// The per-node ring capacity (`0` = capture off).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets the per-node ring capacity. Shrinking evicts oldest-first.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        for ring in self.rings.values_mut() {
            while ring.len() > capacity {
                ring.pop_front();
                self.dropped += 1;
            }
        }
    }

    /// Whether capture is on.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Events evicted by ring overflow since the start of the run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records an event into the emitter's ring (no-op when off).
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let ring = self.rings.entry(event.node).or_default();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped += 1;
        }
        ring.push_back(event);
    }

    /// Merges the rings into one snapshot. The merge concatenates the
    /// per-node rings and stable-sorts by instant, so each node's
    /// events keep their emission order even at equal timestamps.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .rings
            .values()
            .flat_map(|ring| ring.iter().cloned())
            .collect();
        events.sort_by_key(|e| e.at);
        events
    }
}

/// Always-on protocol counters, cheap enough to live outside the trace
/// ring: flush reasons, batch occupancy, and the lease read mix. All
/// zero when group commit and read leases are off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolCounters {
    /// Flushes forced by a full batch.
    pub flush_max: u64,
    /// Flushes forced by the batch-window timer.
    pub flush_window: u64,
    /// Flushes forced by an incoming read.
    pub flush_read: u64,
    /// Flushes forced by a peer's demand.
    pub flush_demand: u64,
    /// Flushes forced by a policy change.
    pub flush_policy: u64,
    /// Total writes that went through a batch flush.
    pub batch_writes: u64,
    /// Largest batch flushed so far.
    pub batch_max_size: u64,
    /// Reads served locally under a valid lease.
    pub lease_served: u64,
    /// Reads forwarded to the home because no lease was held.
    pub lease_forwarded: u64,
    /// Reads refused by a held-but-invalid lease (then forwarded).
    pub lease_refused: u64,
    /// Write-log entries truncated by checkpoint compaction.
    pub log_truncated: u64,
}

impl ProtocolCounters {
    /// Counts one batch flush under its reason.
    pub fn record_flush(&mut self, reason: FlushReason, size: usize) {
        match reason {
            FlushReason::Max => self.flush_max += 1,
            FlushReason::Window => self.flush_window += 1,
            FlushReason::Read => self.flush_read += 1,
            FlushReason::Demand => self.flush_demand += 1,
            FlushReason::Policy => self.flush_policy += 1,
        }
        self.batch_writes += size as u64;
        self.batch_max_size = self.batch_max_size.max(size as u64);
    }

    /// The count recorded under one flush reason.
    pub fn flush_count(&self, reason: FlushReason) -> u64 {
        match reason {
            FlushReason::Max => self.flush_max,
            FlushReason::Window => self.flush_window,
            FlushReason::Read => self.flush_read,
            FlushReason::Demand => self.flush_demand,
            FlushReason::Policy => self.flush_policy,
        }
    }

    /// Total batch flushes across all reasons.
    pub fn flushes(&self) -> u64 {
        FlushReason::ALL.iter().map(|&r| self.flush_count(r)).sum()
    }

    /// Mean writes per flushed batch (0 when nothing flushed).
    pub fn mean_batch_occupancy(&self) -> f64 {
        let flushes = self.flushes();
        if flushes == 0 {
            0.0
        } else {
            self.batch_writes as f64 / flushes as f64
        }
    }

    /// Lease-path reads at non-home replicas, all outcomes.
    pub fn lease_reads(&self) -> u64 {
        self.lease_served + self.lease_forwarded + self.lease_refused
    }

    /// Fraction of lease-path reads served locally (0 when none).
    pub fn lease_hit_ratio(&self) -> f64 {
        let total = self.lease_reads();
        if total == 0 {
            0.0
        } else {
            self.lease_served as f64 / total as f64
        }
    }
}

/// A point-in-time copy of the journal plus the always-on counters.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// The per-node ring capacity the journal ran with.
    pub capacity: usize,
    /// Events lost to ring eviction before the snapshot.
    pub dropped: u64,
    /// The merged journal, time-ordered (per-node order preserved at
    /// equal instants).
    pub events: Vec<TraceEvent>,
    /// The always-on protocol counters at snapshot time.
    pub counters: ProtocolCounters,
}

/// The per-write latency breakdown joined from the journal: the first
/// instant each stage was observed for one write id on one node.
#[derive(Debug, Clone, Copy)]
pub struct WriteBreakdown {
    /// The write.
    pub write: WriteId,
    /// Staged at the sequencer (group commit only).
    pub staged: Option<SimTime>,
    /// Assigned a slot in the total order.
    pub ordered: Option<SimTime>,
    /// Applied to semantics state.
    pub applied: Option<SimTime>,
    /// Fanned out to peers (first fan-out at/after application).
    pub fanout: Option<SimTime>,
    /// Acknowledged toward the client.
    pub acked: Option<SimTime>,
}

impl WriteBreakdown {
    /// Staging → ordering wait (group-commit queueing delay).
    pub fn stage_wait(&self) -> Option<Duration> {
        Some(self.ordered?.saturating_since(self.staged?))
    }

    /// Ordering → application.
    pub fn apply_delay(&self) -> Option<Duration> {
        Some(self.applied?.saturating_since(self.ordered?))
    }

    /// Application → acknowledgement.
    pub fn ack_delay(&self) -> Option<Duration> {
        Some(self.acked?.saturating_since(self.applied?))
    }

    /// Staging → acknowledgement, the full sequencer-side residence.
    pub fn total(&self) -> Option<Duration> {
        Some(self.acked?.saturating_since(self.staged?))
    }
}

/// The fail-over phases as the journal recorded them: first suspicion,
/// first election decision, first takeover announcement, and the first
/// write applied at or after the takeover.
#[derive(Debug, Clone, Copy, Default)]
pub struct FailoverTimeline {
    /// First `SuspicionRaised`.
    pub suspected: Option<SimTime>,
    /// First `ElectionStarted`.
    pub election: Option<SimTime>,
    /// First `TakeoverAnnounced`.
    pub takeover: Option<SimTime>,
    /// First `WriteApplied` at or after the takeover.
    pub first_write_after: Option<SimTime>,
}

impl FailoverTimeline {
    /// Suspicion → takeover announcement.
    pub fn detection_to_takeover(&self) -> Option<Duration> {
        Some(self.takeover?.saturating_since(self.suspected?))
    }

    /// Takeover announcement → first accepted write.
    pub fn takeover_to_first_write(&self) -> Option<Duration> {
        Some(self.first_write_after?.saturating_since(self.takeover?))
    }
}

impl TraceSnapshot {
    /// Whether the journal captured anything.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Joins per-write stage instants on the node that ordered each
    /// write (the sequencer), keyed by write id. Writes the journal
    /// only partially covers produce partially filled breakdowns.
    pub fn write_breakdowns(&self) -> Vec<WriteBreakdown> {
        // Join on the ordering node so a replica's own apply of the
        // same write does not pollute the sequencer-side breakdown.
        let mut orderer: BTreeMap<WriteId, NodeId> = BTreeMap::new();
        for event in &self.events {
            if let ProtocolEvent::WriteOrdered { write, .. } = event.event {
                orderer.entry(write).or_insert(event.node);
            }
        }
        let mut map: BTreeMap<WriteId, WriteBreakdown> = BTreeMap::new();
        // Per node, the writes applied there that still wait for a
        // fan-out: the journal is time-ordered, so the node's next
        // fan-out is the first at or after each of those applications.
        let mut awaiting: BTreeMap<NodeId, Vec<WriteId>> = BTreeMap::new();
        for event in &self.events {
            let (write, slot): (WriteId, fn(&mut WriteBreakdown) -> &mut Option<SimTime>) =
                match event.event {
                    ProtocolEvent::WriteStaged { write } => (write, |b| &mut b.staged),
                    ProtocolEvent::WriteOrdered { write, .. } => (write, |b| &mut b.ordered),
                    ProtocolEvent::WriteApplied { write } => (write, |b| &mut b.applied),
                    ProtocolEvent::WriteAcked { write } => (write, |b| &mut b.acked),
                    ProtocolEvent::FanoutSent { .. } => {
                        for write in awaiting.remove(&event.node).unwrap_or_default() {
                            if let Some(entry) = map.get_mut(&write) {
                                entry.fanout = Some(event.at);
                            }
                        }
                        continue;
                    }
                    _ => continue,
                };
            if let Some(&home) = orderer.get(&write) {
                if event.node != home {
                    continue;
                }
            }
            let entry = map.entry(write).or_insert(WriteBreakdown {
                write,
                staged: None,
                ordered: None,
                applied: None,
                fanout: None,
                acked: None,
            });
            let was_applied = entry.applied.is_some();
            let field = slot(entry);
            if field.is_none() {
                *field = Some(event.at);
            }
            if !was_applied && entry.applied.is_some() {
                awaiting.entry(event.node).or_default().push(write);
            }
        }
        map.into_values().collect()
    }

    /// Derives the fail-over timeline (all `None` when the run had no
    /// fail-over).
    pub fn failover_timeline(&self) -> FailoverTimeline {
        let mut timeline = FailoverTimeline::default();
        for event in &self.events {
            match event.event {
                ProtocolEvent::SuspicionRaised { .. } if timeline.suspected.is_none() => {
                    timeline.suspected = Some(event.at);
                }
                ProtocolEvent::ElectionStarted { .. } if timeline.election.is_none() => {
                    timeline.election = Some(event.at);
                }
                ProtocolEvent::TakeoverAnnounced { .. } if timeline.takeover.is_none() => {
                    timeline.takeover = Some(event.at);
                }
                ProtocolEvent::WriteApplied { .. } if timeline.first_write_after.is_none() => {
                    if let Some(takeover) = timeline.takeover {
                        if event.at >= takeover {
                            timeline.first_write_after = Some(event.at);
                        }
                    }
                }
                _ => {}
            }
        }
        timeline
    }
}

/// One invariant the journal contradicts.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The node whose journal broke the rule.
    pub node: NodeId,
    /// The rule that failed.
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[node {}] {}: {}",
            self.node.raw(),
            self.rule,
            self.detail
        )
    }
}

/// Asserts protocol invariants directly from a captured journal:
///
/// 1. **No ack before apply** — per (node, write), the first
///    acknowledgement never precedes the first application; an
///    acknowledgement with no application in a loss-free journal
///    (`dropped == 0`) is a violation.
/// 2. **Contiguous sequencing** — per (node, epoch), the observed
///    total-order slots are consecutive. Ring eviction only drops a
///    prefix, so a surviving suffix must still be gap-free.
/// 3. **No lease-served read after invalidation** — per node, a
///    `ReadServed{Lease}` whose most recent preceding lease event is a
///    revocation or expiry is a violation.
/// 4. **No apply below an installed checkpoint** — per (node, store),
///    once a recovering replica restored a checkpoint at some version
///    vector, a later `WriteApplied` already covered by that vector
///    means recovery replayed history it had promised was settled.
pub struct TraceChecker;

impl TraceChecker {
    /// Runs every invariant over the snapshot; an empty result means
    /// the journal is consistent (a disabled trace passes trivially).
    pub fn check(snapshot: &TraceSnapshot) -> Vec<Violation> {
        let mut violations = Vec::new();
        Self::check_ack_after_apply(snapshot, &mut violations);
        Self::check_contiguous_orders(snapshot, &mut violations);
        Self::check_lease_reads(snapshot, &mut violations);
        Self::check_apply_above_checkpoint(snapshot, &mut violations);
        violations
    }

    fn check_ack_after_apply(snapshot: &TraceSnapshot, out: &mut Vec<Violation>) {
        let mut applied: BTreeMap<(NodeId, WriteId), SimTime> = BTreeMap::new();
        let mut acked: BTreeMap<(NodeId, WriteId), SimTime> = BTreeMap::new();
        for event in &snapshot.events {
            match event.event {
                ProtocolEvent::WriteApplied { write } => {
                    applied.entry((event.node, write)).or_insert(event.at);
                }
                ProtocolEvent::WriteAcked { write } => {
                    acked.entry((event.node, write)).or_insert(event.at);
                }
                _ => {}
            }
        }
        for (&(node, write), &ack_at) in &acked {
            match applied.get(&(node, write)) {
                Some(&apply_at) if ack_at < apply_at => out.push(Violation {
                    node,
                    rule: "ack_before_apply",
                    detail: format!(
                        "write {}#{} acked at {} but applied at {}",
                        write.client.raw(),
                        write.seq,
                        ack_at,
                        apply_at
                    ),
                }),
                None if snapshot.dropped == 0 => out.push(Violation {
                    node,
                    rule: "ack_without_apply",
                    detail: format!(
                        "write {}#{} acked at {} with no application in a loss-free journal",
                        write.client.raw(),
                        write.seq,
                        ack_at
                    ),
                }),
                _ => {}
            }
        }
    }

    fn check_contiguous_orders(snapshot: &TraceSnapshot, out: &mut Vec<Violation>) {
        let mut last: BTreeMap<(NodeId, u64), u64> = BTreeMap::new();
        for event in &snapshot.events {
            if let ProtocolEvent::WriteOrdered { seq, epoch, .. } = event.event {
                if let Some(&prev) = last.get(&(event.node, epoch)) {
                    if seq != prev + 1 {
                        out.push(Violation {
                            node: event.node,
                            rule: "order_gap",
                            detail: format!(
                                "epoch {epoch}: order {seq} follows {prev} (expected {})",
                                prev + 1
                            ),
                        });
                    }
                }
                last.insert((event.node, epoch), seq);
            }
        }
    }

    fn check_lease_reads(snapshot: &TraceSnapshot, out: &mut Vec<Violation>) {
        #[derive(Clone, Copy, PartialEq)]
        enum LeaseState {
            Unknown,
            Valid,
            Invalid,
        }
        let mut state: BTreeMap<NodeId, LeaseState> = BTreeMap::new();
        for event in &snapshot.events {
            let slot = state.entry(event.node).or_insert(LeaseState::Unknown);
            match event.event {
                ProtocolEvent::LeaseGranted { .. } | ProtocolEvent::LeaseRenewed { .. } => {
                    *slot = LeaseState::Valid;
                }
                ProtocolEvent::LeaseRevoked { .. } | ProtocolEvent::LeaseExpired { .. } => {
                    *slot = LeaseState::Invalid;
                }
                ProtocolEvent::ReadServed {
                    source: ReadSource::Lease,
                } if *slot == LeaseState::Invalid => {
                    out.push(Violation {
                        node: event.node,
                        rule: "lease_read_after_invalidation",
                        detail: format!("lease-served read at {} after revoke/expiry", event.at),
                    });
                }
                _ => {}
            }
        }
    }

    fn check_apply_above_checkpoint(snapshot: &TraceSnapshot, out: &mut Vec<Violation>) {
        let mut floor: BTreeMap<(NodeId, StoreId), VersionVector> = BTreeMap::new();
        for event in &snapshot.events {
            match &event.event {
                ProtocolEvent::CheckpointInstalled { version } => {
                    floor.insert((event.node, event.store), version.clone());
                }
                ProtocolEvent::WriteApplied { write } => {
                    if let Some(version) = floor.get(&(event.node, event.store)) {
                        if version.covers(*write) {
                            out.push(Violation {
                                node: event.node,
                                rule: "apply_below_checkpoint",
                                detail: format!(
                                    "write {}#{} applied at {} below the checkpoint \
                                     installed from local storage",
                                    write.client.raw(),
                                    write.seq,
                                    event.at
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use globe_coherence::ClientId;

    use super::*;

    fn ev(at_ms: u64, node: u32, event: ProtocolEvent) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_millis(at_ms),
            node: NodeId::new(node),
            object: ObjectId::new(1),
            store: StoreId::new(node),
            event,
        }
    }

    fn wid(seq: u64) -> WriteId {
        WriteId::new(ClientId::new(0), seq)
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut log = TraceLog::default();
        log.set_capacity(2);
        for i in 0..5 {
            log.record(ev(i, 0, ProtocolEvent::WriteApplied { write: wid(i + 1) }));
        }
        assert_eq!(log.dropped(), 3);
        let events = log.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].event,
            ProtocolEvent::WriteApplied { write: wid(4) }
        );
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut log = TraceLog::default();
        log.record(ev(0, 0, ProtocolEvent::StateTransferInstalled));
        assert!(log.snapshot().is_empty());
        assert!(!log.enabled());
    }

    #[test]
    fn checker_flags_ack_before_apply() {
        let snap = TraceSnapshot {
            capacity: 8,
            dropped: 0,
            events: vec![
                ev(1, 0, ProtocolEvent::WriteAcked { write: wid(1) }),
                ev(2, 0, ProtocolEvent::WriteApplied { write: wid(1) }),
            ],
            counters: ProtocolCounters::default(),
        };
        let violations = TraceChecker::check(&snap);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "ack_before_apply");
    }

    #[test]
    fn checker_accepts_apply_then_ack_same_instant() {
        let snap = TraceSnapshot {
            capacity: 8,
            dropped: 0,
            events: vec![
                ev(1, 0, ProtocolEvent::WriteApplied { write: wid(1) }),
                ev(1, 0, ProtocolEvent::WriteAcked { write: wid(1) }),
            ],
            counters: ProtocolCounters::default(),
        };
        assert!(TraceChecker::check(&snap).is_empty());
    }

    #[test]
    fn checker_flags_order_gap_within_epoch_only() {
        let ordered = |at, seq, epoch| {
            ev(
                at,
                0,
                ProtocolEvent::WriteOrdered {
                    write: wid(seq + 1),
                    seq,
                    epoch,
                },
            )
        };
        let clean = TraceSnapshot {
            capacity: 8,
            dropped: 0,
            events: vec![ordered(1, 0, 0), ordered(2, 1, 0), ordered(3, 5, 1)],
            counters: ProtocolCounters::default(),
        };
        assert!(TraceChecker::check(&clean).is_empty());
        let gapped = TraceSnapshot {
            capacity: 8,
            dropped: 0,
            events: vec![ordered(1, 0, 0), ordered(2, 2, 0)],
            counters: ProtocolCounters::default(),
        };
        assert_eq!(TraceChecker::check(&gapped)[0].rule, "order_gap");
    }

    #[test]
    fn checker_flags_lease_read_after_revoke() {
        let snap = TraceSnapshot {
            capacity: 8,
            dropped: 0,
            events: vec![
                ev(1, 2, ProtocolEvent::LeaseGranted { epoch: 0 }),
                ev(
                    2,
                    2,
                    ProtocolEvent::ReadServed {
                        source: ReadSource::Lease,
                    },
                ),
                ev(3, 2, ProtocolEvent::LeaseRevoked { epoch: 0 }),
                ev(
                    4,
                    2,
                    ProtocolEvent::ReadServed {
                        source: ReadSource::Lease,
                    },
                ),
            ],
            counters: ProtocolCounters::default(),
        };
        let violations = TraceChecker::check(&snap);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "lease_read_after_invalidation");
    }

    #[test]
    fn checker_flags_apply_below_installed_checkpoint() {
        let ckpt: VersionVector = [(ClientId::new(0), 3u64)].into_iter().collect();
        let snap = TraceSnapshot {
            capacity: 8,
            dropped: 0,
            events: vec![
                ev(1, 1, ProtocolEvent::CheckpointInstalled { version: ckpt }),
                ev(2, 1, ProtocolEvent::WriteApplied { write: wid(2) }),
                ev(3, 1, ProtocolEvent::WriteApplied { write: wid(4) }),
            ],
            counters: ProtocolCounters::default(),
        };
        let violations = TraceChecker::check(&snap);
        assert_eq!(violations.len(), 1, "only the covered write violates");
        assert_eq!(violations[0].rule, "apply_below_checkpoint");

        // The same applies on a node without an installed checkpoint
        // are fine.
        let clean = TraceSnapshot {
            capacity: 8,
            dropped: 0,
            events: vec![
                ev(2, 2, ProtocolEvent::WriteApplied { write: wid(2) }),
                ev(3, 2, ProtocolEvent::WriteApplied { write: wid(4) }),
            ],
            counters: ProtocolCounters::default(),
        };
        assert!(TraceChecker::check(&clean).is_empty());
    }

    #[test]
    fn breakdown_joins_stages_and_counters_derive_ratios() {
        let snap = TraceSnapshot {
            capacity: 8,
            dropped: 0,
            events: vec![
                ev(1, 0, ProtocolEvent::WriteStaged { write: wid(1) }),
                ev(
                    3,
                    0,
                    ProtocolEvent::WriteOrdered {
                        write: wid(1),
                        seq: 0,
                        epoch: 0,
                    },
                ),
                ev(3, 0, ProtocolEvent::WriteApplied { write: wid(1) }),
                ev(4, 0, ProtocolEvent::WriteAcked { write: wid(1) }),
            ],
            counters: ProtocolCounters::default(),
        };
        let breakdowns = snap.write_breakdowns();
        assert_eq!(breakdowns.len(), 1);
        assert_eq!(breakdowns[0].stage_wait(), Some(Duration::from_millis(2)));
        assert_eq!(breakdowns[0].total(), Some(Duration::from_millis(3)));

        let mut counters = ProtocolCounters::default();
        counters.record_flush(FlushReason::Max, 8);
        counters.record_flush(FlushReason::Window, 2);
        assert_eq!(counters.flushes(), 2);
        assert_eq!(counters.batch_max_size, 8);
        assert!((counters.mean_batch_occupancy() - 5.0).abs() < f64::EPSILON);
        counters.lease_served = 3;
        counters.lease_forwarded = 1;
        assert!((counters.lease_hit_ratio() - 0.75).abs() < 1e-9);
    }

    /// A write's fan-out is the first one its ordering node sends at or
    /// after applying it: another node's fan-out, a replica's apply and
    /// the node's later fan-outs do not count.
    #[test]
    fn breakdown_takes_the_ordering_nodes_next_fanout() {
        let ordered = |seq| ProtocolEvent::WriteOrdered {
            write: wid(seq),
            seq: seq - 1,
            epoch: 0,
        };
        let snap = TraceSnapshot {
            capacity: 16,
            dropped: 0,
            events: vec![
                ev(1, 0, ordered(1)),
                ev(1, 0, ProtocolEvent::WriteApplied { write: wid(1) }),
                ev(2, 1, ProtocolEvent::FanoutSent { peers: 1 }),
                ev(2, 0, ordered(2)),
                ev(2, 0, ProtocolEvent::WriteApplied { write: wid(2) }),
                ev(3, 0, ProtocolEvent::FanoutSent { peers: 2 }),
                ev(4, 1, ProtocolEvent::WriteApplied { write: wid(1) }),
                ev(5, 0, ordered(3)),
                ev(5, 0, ProtocolEvent::WriteApplied { write: wid(3) }),
                ev(5, 0, ProtocolEvent::FanoutSent { peers: 2 }),
                ev(6, 0, ProtocolEvent::FanoutSent { peers: 2 }),
            ],
            counters: ProtocolCounters::default(),
        };
        let fanouts: Vec<_> = snap
            .write_breakdowns()
            .iter()
            .map(|b| (b.write, b.applied, b.fanout))
            .collect();
        let ms = |at| Some(SimTime::from_millis(at));
        assert_eq!(
            fanouts,
            vec![
                (wid(1), ms(1), ms(3)),
                (wid(2), ms(2), ms(3)),
                (wid(3), ms(5), ms(5)),
            ]
        );
    }
}
