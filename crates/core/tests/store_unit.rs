//! Direct unit tests of the store engine: a `StoreReplica` (or the
//! `ControlObject` routing to its sessions) driven by hand, with every
//! outbound message captured and decoded. These pin the
//! message-level behaviours the integration tests only observe in the
//! aggregate.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test-only crate: clippy's in-tests exemptions cover #[test] bodies, not helpers"
)]

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use globe_coherence::{ClientId, ObjectModel, StoreClass, StoreId, VersionVector, WriteId};
use globe_core::{
    registers, shared_history, shared_metrics, CallOutcome, CoherenceMsg, ControlObject, NetMsg,
    OutdateReaction, PeerStore, RegisterDoc, ReplicationPolicy, RequestId, Session, SessionConfig,
    StoreConfig, StoreReplica,
};
use globe_naming::ObjectId;
use globe_net::{Event, NetCtx, NodeId, SimNet, SimTime, TimerId, TimerToken, Topology};

/// Captures every NetMsg delivered to a node.
fn capture(net: &mut SimNet, node: NodeId) -> Rc<RefCell<Vec<(NodeId, CoherenceMsg)>>> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let log2 = Rc::clone(&log);
    net.set_handler(node, move |event, _ctx| {
        if let Event::Message { from, payload } = event {
            let env: NetMsg = globe_wire::from_bytes(&payload).expect("valid frame");
            log2.borrow_mut().push((from, env.msg));
        }
    });
    log
}

/// Passes everything through to the real context, noting each send's
/// destination and frame in the order the engine issued it — delivery
/// order says nothing about that once links add jitter.
struct SendOrder<'a> {
    inner: &'a mut dyn NetCtx,
    sends: Vec<(NodeId, CoherenceMsg)>,
}

impl NetCtx for SendOrder<'_> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn send(&mut self, to: NodeId, payload: Bytes) {
        let env: NetMsg = globe_wire::from_bytes(&payload).expect("valid frame");
        self.sends.push((to, env.msg));
        self.inner.send(to, payload);
    }
    fn set_timer(&mut self, delay: Duration, token: TimerToken) -> TimerId {
        self.inner.set_timer(delay, token)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.inner.cancel_timer(id);
    }
}

struct Rig {
    net: SimNet,
    store: StoreReplica,
    home_node: NodeId,
    peer_node: NodeId,
    client_node: NodeId,
    peer_log: Rc<RefCell<Vec<(NodeId, CoherenceMsg)>>>,
    client_log: Rc<RefCell<Vec<(NodeId, CoherenceMsg)>>>,
    metrics: globe_core::SharedMetrics,
}

fn rig(policy: ReplicationPolicy, is_home: bool) -> Rig {
    rig_tuned(policy, is_home, globe_core::StoreTuning::default())
}

fn rig_tuned(policy: ReplicationPolicy, is_home: bool, tuning: globe_core::StoreTuning) -> Rig {
    rig_full(
        policy,
        is_home,
        tuning,
        globe_core::storage::StorageSpec::default(),
    )
}

fn rig_full(
    policy: ReplicationPolicy,
    is_home: bool,
    tuning: globe_core::StoreTuning,
    storage: globe_core::storage::StorageSpec,
) -> Rig {
    let mut net = SimNet::new(Topology::lan(), 0);
    let home_node = net.add_node();
    let peer_node = net.add_node();
    let client_node = net.add_node();
    let peer_log = capture(&mut net, peer_node);
    let client_log = capture(&mut net, client_node);
    let metrics = shared_metrics();
    if tuning.trace_capacity > 0 {
        metrics.lock().set_trace_capacity(tuning.trace_capacity);
    }
    // When testing a replica (is_home = false), the "store under test"
    // lives on peer_node's id space conceptually, but we drive it by
    // hand, so node identity only matters for message routing.
    let store = StoreReplica::new(StoreConfig {
        object: ObjectId::new(1),
        store_id: StoreId::new(0),
        class: if is_home {
            StoreClass::Permanent
        } else {
            StoreClass::ClientInitiated
        },
        policy,
        home_node,
        home_store: StoreId::new(0),
        is_home,
        peers: if is_home {
            vec![PeerStore {
                node: peer_node,
                store: StoreId::new(1),
                class: StoreClass::ClientInitiated,
            }]
        } else {
            Vec::new()
        },
        semantics: Box::new(RegisterDoc::new()),
        history: shared_history(),
        metrics: metrics.clone(),
        detector: globe_core::lifecycle::DetectorConfig::disabled(),
        tuning,
        storage,
    });
    Rig {
        net,
        store,
        home_node,
        peer_node,
        client_node,
        peer_log,
        client_log,
        metrics,
    }
}

fn wid(c: u32, s: u64) -> WriteId {
    WriteId::new(ClientId::new(c), s)
}

fn client_write(seq: u64) -> globe_core::LoggedWrite {
    globe_core::LoggedWrite::from_client(
        wid(9, seq),
        registers::put("page", format!("v{seq}").as_bytes()),
        VersionVector::new(),
    )
}

#[test]
fn duplicate_write_req_is_acked_idempotently() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .unwrap();
    let mut r = rig(policy, true);
    let (store, client_node) = (&mut r.store, r.client_node);
    r.net.with_ctx(r.home_node, |ctx| {
        store.accept_write(
            Some((client_node, RequestId::new(1), ClientId::new(9))),
            client_write(1),
            ctx,
        );
        // The proxy retransmits the same WiD.
        store.accept_write(
            Some((client_node, RequestId::new(1), ClientId::new(9))),
            client_write(1),
            ctx,
        );
    });
    r.net.run_until_quiescent();
    // Exactly one semantic application…
    assert_eq!(r.store.applied().get(ClientId::new(9)), 1);
    // …but two acks, both successful.
    let replies = r
        .client_log
        .borrow()
        .iter()
        .filter(|(_, m)| matches!(m, CoherenceMsg::Reply { .. }))
        .count();
    assert_eq!(replies, 2);
}

#[test]
fn immediate_push_carries_backlog_to_late_peers() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .unwrap();
    let mut r = rig(policy, true);
    let (store, client_node) = (&mut r.store, r.client_node);
    r.net.with_ctx(r.home_node, |ctx| {
        for seq in 1..=3 {
            store.accept_write(
                Some((client_node, RequestId::new(seq), ClientId::new(9))),
                client_write(seq),
                ctx,
            );
        }
    });
    r.net.run_until_quiescent();
    let log = r.peer_log.borrow();
    // First write: single Update; the peer is then up to date, so each
    // subsequent write is a single Update too.
    let updates = log
        .iter()
        .filter(|(_, m)| matches!(m, CoherenceMsg::Update { .. }))
        .count();
    assert_eq!(updates, 3, "one Update per write: {log:?}");
}

#[test]
fn queued_read_drains_when_the_write_arrives() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .client_outdate(OutdateReaction::Wait)
        .build()
        .unwrap();
    let mut r = rig(policy, true);
    let (store, client_node) = (&mut r.store, r.client_node);
    // A read requiring write #1, which has not arrived yet.
    let min: VersionVector = [(ClientId::new(9), 1u64)].into_iter().collect();
    r.net.with_ctx(r.home_node, |ctx| {
        store.serve_read(
            client_node,
            RequestId::new(10),
            ClientId::new(5),
            registers::get("page"),
            min,
            ctx,
        );
    });
    r.net.run_until_quiescent();
    assert!(r.client_log.borrow().is_empty(), "read must be parked");
    // The write arrives; the parked read completes with the fresh value.
    r.net.with_ctx(r.home_node, |ctx| {
        store.accept_write(None, client_write(1), ctx);
    });
    r.net.run_until_quiescent();
    let log = r.client_log.borrow();
    match &log[..] {
        [(_, CoherenceMsg::Reply { req, outcome, .. })] => {
            assert_eq!(*req, RequestId::new(10));
            assert_eq!(outcome, &CallOutcome::Ok(Bytes::from_static(b"v1")));
        }
        other => panic!("expected exactly the parked reply, got {other:?}"),
    }
}

#[test]
fn demand_update_ships_exactly_the_missing_writes() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .lazy(Duration::from_secs(60))
        .build()
        .unwrap();
    let mut r = rig(policy, true);
    let (store, client_node) = (&mut r.store, r.client_node);
    r.net.with_ctx(r.home_node, |ctx| {
        for seq in 1..=4 {
            store.accept_write(
                Some((client_node, RequestId::new(seq), ClientId::new(9))),
                client_write(seq),
                ctx,
            );
        }
    });
    // A peer that already has writes 1–2 demands the rest.
    let since: VersionVector = [(ClientId::new(9), 2u64)].into_iter().collect();
    let (store, peer_node) = (&mut r.store, r.peer_node);
    r.net.with_ctx(r.home_node, |ctx| {
        store.handle_demand_update(peer_node, since, None, ctx);
    });
    r.net.run_until_quiescent();
    let log = r.peer_log.borrow();
    let batch = log
        .iter()
        .find_map(|(_, m)| match m {
            CoherenceMsg::UpdateBatch { writes, .. } => Some(writes.clone()),
            _ => None,
        })
        .expect("an UpdateBatch reply");
    let seqs: Vec<u64> = batch.iter().map(|w| w.wid.seq).collect();
    assert_eq!(seqs, vec![3, 4], "only the missing suffix ships");
}

#[test]
fn stale_full_state_is_ignored() {
    let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .unwrap();
    let mut r = rig(policy, false);
    let store = &mut r.store;
    // The replica applies write 5 of client 9.
    let mut w = client_write(5);
    w.page = Some("page".to_string());
    r.net.with_ctx(r.peer_node, |ctx| {
        store.accept_write(None, w, ctx);
    });
    let digest_before = r.store.final_digest();
    // An older snapshot arrives (version only covers write 2): ignored.
    let stale_version: VersionVector = [(ClientId::new(9), 2u64)].into_iter().collect();
    let mut old_doc = RegisterDoc::new();
    use globe_core::Semantics as _;
    old_doc.dispatch(&registers::put("page", b"OLD")).unwrap();
    let state = old_doc.snapshot();
    let store = &mut r.store;
    r.net.with_ctx(r.peer_node, |ctx| {
        store.handle_full_state(
            stale_version,
            state,
            vec![("page".into(), wid(9, 2))],
            None,
            ctx,
        );
    });
    assert_eq!(
        r.store.final_digest(),
        digest_before,
        "stale snapshot must not regress state"
    );
}

#[test]
fn invalidated_page_read_demands_from_home() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .propagation(globe_core::Propagation::Invalidate)
        .immediate()
        .object_outdate(OutdateReaction::Wait) // even with wait…
        .build()
        .unwrap();
    let mut r = rig(policy, false);
    let store = &mut r.store;
    let home_log = capture(&mut r.net, r.home_node);
    // Home invalidates "page".
    let version: VersionVector = [(ClientId::new(9), 1u64)].into_iter().collect();
    r.net.with_ctx(r.peer_node, |ctx| {
        store.handle_invalidate(vec![Some("page".to_string())], version, ctx);
    });
    // A read on the invalid page must demand data (invalidate implies
    // refetch-on-read) and park the read.
    let (store, client_node) = (&mut r.store, r.client_node);
    r.net.with_ctx(r.peer_node, |ctx| {
        store.serve_read(
            client_node,
            RequestId::new(1),
            ClientId::new(5),
            registers::get("page"),
            VersionVector::new(),
            ctx,
        );
    });
    r.net.run_until_quiescent();
    assert!(
        home_log
            .borrow()
            .iter()
            .any(|(_, m)| matches!(m, CoherenceMsg::DemandUpdate { .. })),
        "invalid-page read must trigger a demand"
    );
    assert!(r.client_log.borrow().is_empty(), "read parked until data");
}

/// Announces a takeover by `store` on `new_home` at `epoch` to the rig's
/// replica, as a retiring home's relay would.
fn announce_takeover(r: &mut Rig, new_home: NodeId, store: u32, epoch: u64) {
    let replica = &mut r.store;
    let old_home = replica.home_node();
    r.net.with_ctx(r.peer_node, |ctx| {
        replica.handle_sequencer_handoff(
            old_home,
            new_home,
            StoreId::new(store),
            epoch,
            VersionVector::new(),
            globe_core::Semantics::snapshot(&RegisterDoc::new()),
            Vec::new(),
            None,
            Vec::new(),
            Vec::new(),
            ctx,
        );
    });
    r.net.run_until_quiescent();
}

/// With read leases on, a replica without a lease forwards reads to
/// the sequencer, and nothing else retries a read. When the sequencer
/// moves, the replica re-forwards the reads it still owes an answer: a
/// read in flight to a home that left or died is otherwise never served.
#[test]
fn forwarded_read_follows_the_sequencer_to_its_successor() {
    let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .unwrap();
    let tuning = globe_core::StoreTuning {
        read_leases: true,
        ..globe_core::StoreTuning::default()
    };
    let mut r = rig_tuned(policy, false, tuning);
    let home_log = capture(&mut r.net, r.home_node);
    let successor = r.net.add_node();
    let successor_log = capture(&mut r.net, successor);
    let is_the_read = |(_, m): &(NodeId, CoherenceMsg)| matches!(m, CoherenceMsg::ReadReq { req, .. } if *req == RequestId::new(1));

    let (store, client_node) = (&mut r.store, r.client_node);
    r.net.with_ctx(r.peer_node, |ctx| {
        store.serve_read(
            client_node,
            RequestId::new(1),
            ClientId::new(5),
            registers::get("page"),
            VersionVector::new(),
            ctx,
        );
    });
    r.net.run_until_quiescent();
    assert!(home_log.borrow().iter().any(is_the_read), "read forwarded");
    assert!(r.client_log.borrow().is_empty(), "and not yet answered");

    // The sequencer hands over before it served the read.
    announce_takeover(&mut r, successor, 2, 1);
    assert!(
        successor_log.borrow().iter().any(is_the_read),
        "the unanswered read must reach the new sequencer: {:?}",
        successor_log.borrow()
    );
}

/// A lease grant stamped with an epoch older than the sequencer the
/// replica follows — a deposed home's grant arriving late — grants
/// nothing: the next read is forwarded as one with no lease held. A
/// grant at the current epoch lets the replica serve locally.
#[test]
fn lease_grant_from_an_older_epoch_is_ignored() {
    let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .unwrap();
    let tuning = globe_core::StoreTuning {
        read_leases: true,
        ..globe_core::StoreTuning::default()
    };
    let mut r = rig_tuned(policy, false, tuning);
    let home_log = capture(&mut r.net, r.home_node);
    let home = r.home_node;
    announce_takeover(&mut r, home, 0, 2);
    let grant_then_read = |r: &mut Rig, epoch: u64, req: u64| {
        let (store, client_node) = (&mut r.store, r.client_node);
        r.net.with_ctx(r.peer_node, |ctx| {
            store.handle_lease_grant(
                home,
                epoch,
                VersionVector::new(),
                Duration::from_secs(60),
                ctx,
            );
            store.serve_read(
                client_node,
                RequestId::new(req),
                ClientId::new(5),
                registers::get("page"),
                VersionVector::new(),
                ctx,
            );
        });
        r.net.run_until_quiescent();
        home_log.borrow().iter().any(|(_, m)| {
            matches!(m, CoherenceMsg::ReadReq { req: got, .. } if *got == RequestId::new(req))
        })
    };

    assert!(grant_then_read(&mut r, 1, 1), "a stale grant: forwarded");
    assert!(r.client_log.borrow().is_empty());
    let counters = r.metrics.lock().protocol;
    assert_eq!(
        (counters.lease_forwarded, counters.lease_refused),
        (1, 0),
        "forwarded as a read with no lease, not one with a lapsed lease"
    );

    assert!(!grant_then_read(&mut r, 2, 2), "a current grant: served");
    assert_eq!(r.client_log.borrow().len(), 1);
    assert_eq!(r.metrics.lock().protocol.lease_served, 1);
}

/// A takeover announced from an epoch older than the one the replica
/// follows is stale — a deposed home's claim arriving late — and moves
/// nothing, even from a store that would win a same-epoch tie-break.
#[test]
fn sequencer_handoff_from_an_older_epoch_is_refused() {
    let policy = ReplicationPolicy::builder(ObjectModel::Sequential)
        .immediate()
        .build()
        .unwrap();
    let mut r = rig(policy, false);
    let (current, stale) = (r.net.add_node(), r.net.add_node());
    announce_takeover(&mut r, current, 3, 2);
    assert_eq!((r.store.home_node(), r.store.home_epoch()), (current, 2));

    announce_takeover(&mut r, stale, 1, 1);
    assert_eq!(
        (r.store.home_node(), r.store.home_epoch()),
        (current, 2),
        "an epoch-1 claim must not displace the epoch-2 sequencer"
    );
}

/// Two claims in one epoch (an election raced a flap): the lower store
/// id wins, whichever arrives first, so every replica settles on the
/// same sequencer.
#[test]
fn same_epoch_handoff_goes_to_the_lower_store_id() {
    let policy = ReplicationPolicy::builder(ObjectModel::Sequential)
        .immediate()
        .build()
        .unwrap();
    let mut r = rig(policy, false);
    let (first, lower, higher) = (r.net.add_node(), r.net.add_node(), r.net.add_node());
    announce_takeover(&mut r, first, 3, 1);
    assert_eq!((r.store.home_node(), r.store.home_epoch()), (first, 1));

    announce_takeover(&mut r, lower, 2, 1);
    assert_eq!(
        (r.store.home_node(), r.store.home_epoch()),
        (lower, 1),
        "a same-epoch claim by a lower store id is accepted"
    );

    announce_takeover(&mut r, higher, 5, 1);
    assert_eq!(
        (r.store.home_node(), r.store.home_epoch()),
        (lower, 1),
        "a same-epoch claim by a higher store id is refused"
    );
}

/// A session resends what its old home never acknowledged the moment
/// its control object accepts a takeover claim, and only for a claim
/// it has not seen: a repeated, older-epoch or higher-store-id claim
/// sends nothing and moves nothing.
#[test]
fn new_takeover_claim_resends_unacked_writes_once() {
    let mut net = SimNet::new(Topology::lan(), 0);
    let old_home = net.add_node();
    let new_home = net.add_node();
    let rival = net.add_node();
    let client_node = net.add_node();
    let (object, client) = (ObjectId::new(1), ClientId::new(9));
    let mut control = ControlObject::proxy_only(object);
    control.add_session(Session::new(SessionConfig {
        client,
        object,
        model: ObjectModel::Pram,
        guards: Vec::new(),
        read_node: old_home,
        read_store: StoreId::new(0),
        write_node: old_home,
        write_store: StoreId::new(0),
        history: shared_history(),
        metrics: shared_metrics(),
    }));
    // Three pipelined writes; the old home acknowledges only the first.
    let reqs: Vec<RequestId> = net.with_ctx(client_node, |ctx| {
        (1..=3)
            .map(|i| {
                let put = registers::put("page", format!("v{i}").as_bytes());
                control.client_write(client, put, ctx).unwrap()
            })
            .collect()
    });
    let ack = CoherenceMsg::Reply {
        req: reqs[0],
        outcome: CallOutcome::Ok(Bytes::new()),
        version: VersionVector::new(),
        sees: None,
        full_state: None,
    };
    net.with_ctx(client_node, |ctx| {
        control.handle_message(old_home, ack, ctx)
    });

    let mut announce = |from: NodeId, to: NodeId, store: u32, epoch: u64| {
        let claim = CoherenceMsg::SequencerHandoff {
            old_home: from,
            new_home: to,
            new_home_store: StoreId::new(store),
            epoch,
            version: VersionVector::new(),
            state: Bytes::new(),
            writers: Vec::new(),
            order_high: None,
            log: Vec::new(),
            peers: Vec::new(),
        };
        net.with_ctx(client_node, |ctx| {
            let mut ctx = SendOrder {
                inner: ctx,
                sends: Vec::new(),
            };
            control.handle_message(to, claim, &mut ctx);
            ctx.sends
        })
    };

    let resent: Vec<(NodeId, RequestId, u64)> = announce(old_home, new_home, 1, 1)
        .into_iter()
        .map(|(to, m)| match m {
            CoherenceMsg::WriteReq { req, write, .. } => (to, req, write.wid.seq),
            other => panic!("only write resends expected, got {other:?}"),
        })
        .collect();
    assert_eq!(
        resent,
        vec![(new_home, reqs[1], 2), (new_home, reqs[2], 3)],
        "the winning claim resends the two unacknowledged writes, in WiD order"
    );
    let sends = announce(old_home, new_home, 1, 1);
    assert!(sends.is_empty(), "a relayed re-announcement: {sends:?}");
    let sends = announce(new_home, old_home, 0, 0);
    assert!(sends.is_empty(), "an older epoch: {sends:?}");
    let sends = announce(new_home, rival, 2, 1);
    assert!(sends.is_empty(), "a same-epoch higher store id: {sends:?}");
    assert_eq!(
        control.session(client).unwrap().write_node(),
        new_home,
        "stale claims reroute nothing"
    );
}

#[test]
fn group_commit_counters_and_trace_capture_flushes() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .unwrap();
    let tuning = globe_core::StoreTuning {
        batch_max: 2,
        trace_capacity: 64,
        ..globe_core::StoreTuning::default()
    };
    let mut r = rig_tuned(policy, true, tuning);
    let (store, client_node) = (&mut r.store, r.client_node);
    r.net.with_ctx(r.home_node, |ctx| {
        // Two writes fill the batch: one size-limit flush of size 2.
        for seq in 1..=2 {
            store.accept_write(
                Some((client_node, RequestId::new(seq), ClientId::new(9))),
                client_write(seq),
                ctx,
            );
        }
        // A third write stages alone; the local read forces it out as a
        // read-triggered flush of size 1.
        store.accept_write(
            Some((client_node, RequestId::new(3), ClientId::new(9))),
            client_write(3),
            ctx,
        );
        store.serve_read(
            client_node,
            RequestId::new(4),
            ClientId::new(5),
            registers::get("page"),
            VersionVector::new(),
            ctx,
        );
    });
    r.net.run_until_quiescent();

    // The always-on counters see both flushes regardless of tracing.
    let m = r.metrics.lock();
    assert_eq!(m.protocol.flush_count(globe_core::FlushReason::Max), 1);
    assert_eq!(m.protocol.flush_count(globe_core::FlushReason::Read), 1);
    assert_eq!(m.protocol.flushes(), 2);
    assert_eq!(m.protocol.batch_writes, 3);
    assert_eq!(m.protocol.batch_max_size, 2);
    assert!((m.protocol.mean_batch_occupancy() - 1.5).abs() < 1e-9);
    let snap = m.trace_snapshot();
    drop(m);

    // The trace ring captured the same story, event by event, and the
    // checker finds it coherent (acks after applies, contiguous orders).
    assert!(snap.events.iter().any(|e| matches!(
        e.event,
        globe_core::ProtocolEvent::BatchFlushed {
            reason: globe_core::FlushReason::Max,
            size: 2
        }
    )));
    assert!(snap.events.iter().any(|e| matches!(
        e.event,
        globe_core::ProtocolEvent::BatchFlushed {
            reason: globe_core::FlushReason::Read,
            size: 1
        }
    )));
    let staged = snap
        .events
        .iter()
        .filter(|e| matches!(e.event, globe_core::ProtocolEvent::WriteStaged { .. }))
        .count();
    assert_eq!(staged, 3, "every batched write is staged exactly once");
    let violations = globe_core::TraceChecker::check(&snap);
    assert!(violations.is_empty(), "trace violations: {violations:?}");
}

/// A group commit hands the batch's fan-out to the transport before it
/// sends any of the batch's acks, like the per-write path does: a home
/// that dies right after acknowledging must not hold the only copy.
#[test]
fn group_commit_fans_out_before_it_acknowledges() {
    let policy = ReplicationPolicy::builder(ObjectModel::Sequential)
        .immediate()
        .build()
        .unwrap();
    let tuning = globe_core::StoreTuning {
        batch_max: 2,
        ..globe_core::StoreTuning::default()
    };
    let mut r = rig_tuned(policy, true, tuning);
    let (store, client_node, peer_node) = (&mut r.store, r.client_node, r.peer_node);
    let sends = r.net.with_ctx(r.home_node, |ctx| {
        let mut ctx = SendOrder {
            inner: ctx,
            sends: Vec::new(),
        };
        for seq in 1..=2 {
            store.accept_write(
                Some((client_node, RequestId::new(seq), ClientId::new(9))),
                client_write(seq),
                &mut ctx,
            );
        }
        ctx.sends
    });
    let sends: Vec<(NodeId, &str)> = sends.iter().map(|(to, m)| (*to, m.kind_name())).collect();
    let is_ack = |send: &(NodeId, &str)| *send == (client_node, "Reply");
    let first_ack = sends.iter().position(is_ack);
    let fanout = sends
        .iter()
        .position(|send| *send == (peer_node, "WriteBatch"));
    assert_eq!(
        sends.iter().filter(|send| is_ack(send)).count(),
        2,
        "both staged writes are acked: {sends:?}"
    );
    assert!(
        fanout.is_some() && fanout < first_ack,
        "the peer's WriteBatch must precede the first ack: {sends:?}"
    );
}

#[test]
fn fifo_replica_jumps_over_skipped_writes() {
    let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .unwrap();
    let mut r = rig(policy, false);
    let store = &mut r.store;
    r.net.with_ctx(r.peer_node, |ctx| {
        store.accept_write(None, client_write(5), ctx); // 1–4 overwritten
        store.accept_write(None, client_write(3), ctx); // late: ignored
    });
    assert_eq!(r.store.applied().get(ClientId::new(9)), 5);
}

/// The write log must not grow without bound once checkpointing is on:
/// every `checkpoint_every` applies the home announces a checkpoint,
/// and when the (sole) peer acks it the covered prefix is dropped. The
/// retained suffix stays small while the *logical* log length keeps
/// counting every write ever applied, and the truncation shows up in
/// the always-on protocol counters.
#[test]
fn checkpointing_home_keeps_the_write_log_bounded() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .unwrap();
    let mut r = rig_full(
        policy,
        true,
        globe_core::StoreTuning::default(),
        globe_core::storage::StorageSpec {
            durable_dir: None,
            checkpoint_every: 4,
        },
    );
    let (client_node, peer_node) = (r.client_node, r.peer_node);
    const WRITES: u64 = 40;
    let mut acked: Vec<VersionVector> = Vec::new();
    for seq in 1..=WRITES {
        let store = &mut r.store;
        r.net.with_ctx(r.home_node, |ctx| {
            store.accept_write(
                Some((client_node, RequestId::new(seq), ClientId::new(9))),
                client_write(seq),
                ctx,
            );
        });
        r.net.run_until_quiescent();
        // Play the healthy peer by hand: ack every announce the home
        // multicast since the last write, exactly as the control plane
        // would after the peer checkpointed its own state.
        let announces: Vec<VersionVector> = r
            .peer_log
            .borrow()
            .iter()
            .filter_map(|(_, m)| match m {
                CoherenceMsg::CheckpointAnnounce { version } => Some(version.clone()),
                _ => None,
            })
            .filter(|v| !acked.contains(v))
            .collect();
        let store = &mut r.store;
        r.net.with_ctx(r.home_node, |ctx| {
            for version in announces {
                store.handle_checkpoint_ack(peer_node, version.clone(), ctx);
                acked.push(version);
            }
        });
        r.net.run_until_quiescent();
    }

    assert_eq!(
        r.store.log_len() as u64,
        WRITES,
        "logical length counts every write ever applied"
    );
    assert!(
        r.store.log_retained() <= 8,
        "retained suffix stays bounded (got {} of {WRITES})",
        r.store.log_retained()
    );
    let truncated = r.metrics.lock().protocol.log_truncated;
    assert!(
        truncated >= WRITES - 8,
        "compaction is accounted: log_truncated = {truncated}"
    );
    // The peers were told to drop the same prefix.
    let compacts = r
        .peer_log
        .borrow()
        .iter()
        .filter(|(_, m)| matches!(m, CoherenceMsg::CompactBelow { .. }))
        .count();
    assert!(compacts > 0, "home broadcasts the compaction floor");
}
