//! Property tests: every coherence protocol message round-trips through
//! the wire format, and arbitrary bytes never panic the decoder — a
//! replica must survive any datagram the network hands it.

use std::collections::BTreeSet;

use bytes::Bytes;
use globe_coherence::{ClientId, ObjectModel, StoreId, VersionVector, WriteId};
use globe_core::{
    AccessTransfer, CallOutcome, CoherenceMsg, CoherenceTransfer, InvocationMessage, LoggedWrite,
    MethodId, NetMsg, OutdateReaction, Propagation, ReplicationPolicy, RequestId, StoreScope,
    TransferInitiative, TransferInstant, WriteSet,
};
use globe_naming::ObjectId;
use globe_net::NodeId;
use proptest::prelude::*;
use proptest::sample::select;
use proptest::test_runner::TestRng;

fn arb_vv() -> impl Strategy<Value = VersionVector> {
    proptest::collection::btree_map(0u32..6, 1u64..100, 0..6).prop_map(|m| {
        m.into_iter()
            .map(|(c, s)| (ClientId::new(c), s))
            .collect::<VersionVector>()
    })
}

fn arb_wid() -> impl Strategy<Value = WriteId> {
    (0u32..8, 1u64..1000).prop_map(|(c, s)| WriteId::new(ClientId::new(c), s))
}

fn arb_inv() -> impl Strategy<Value = InvocationMessage> {
    (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64))
        .prop_map(|(m, args)| InvocationMessage::new(MethodId::new(m), Bytes::from(args)))
}

fn arb_write() -> impl Strategy<Value = LoggedWrite> {
    (
        arb_wid(),
        arb_inv(),
        arb_vv(),
        proptest::option::of("[a-z]{1,12}"),
        proptest::option::of(0u64..10_000),
    )
        .prop_map(|(wid, inv, deps, page, order)| LoggedWrite {
            wid,
            inv,
            deps,
            page,
            order,
        })
}

fn arb_msg() -> impl Strategy<Value = CoherenceMsg> {
    prop_oneof![
        (any::<u64>(), 0u32..8, arb_inv(), arb_vv()).prop_map(|(r, c, inv, min_version)| {
            CoherenceMsg::ReadReq {
                req: RequestId::new(r),
                client: ClientId::new(c),
                inv,
                min_version,
            }
        }),
        (any::<u64>(), 0u32..8, arb_write()).prop_map(|(r, c, write)| CoherenceMsg::WriteReq {
            req: RequestId::new(r),
            client: ClientId::new(c),
            write,
        }),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..32),
            arb_vv(),
            proptest::option::of(arb_wid()),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..32)),
        )
            .prop_map(|(r, body, version, sees, full)| CoherenceMsg::Reply {
                req: RequestId::new(r),
                outcome: CallOutcome::Ok(Bytes::from(body)),
                version,
                sees,
                full_state: full.map(Bytes::from),
            }),
        (any::<u64>(), ".{0,24}").prop_map(|(r, msg)| CoherenceMsg::Reply {
            req: RequestId::new(r),
            outcome: CallOutcome::Err(msg),
            version: VersionVector::new(),
            sees: None,
            full_state: None,
        }),
        arb_write().prop_map(|write| CoherenceMsg::Update { write }),
        (proptest::collection::vec(arb_write(), 0..5), arb_vv())
            .prop_map(|(writes, version)| CoherenceMsg::UpdateBatch { writes, version }),
        (
            arb_vv(),
            proptest::collection::vec(any::<u8>(), 0..64),
            proptest::collection::vec(("[a-z]{1,8}", arb_wid()), 0..4),
            proptest::option::of(any::<u64>()),
        )
            .prop_map(
                |(version, state, writers, order_high)| CoherenceMsg::FullState {
                    version,
                    state: Bytes::from(state),
                    writers,
                    order_high,
                }
            ),
        (
            proptest::collection::vec(proptest::option::of("[a-z]{1,8}"), 0..4),
            arb_vv()
        )
            .prop_map(|(pages, version)| CoherenceMsg::Invalidate { pages, version }),
        arb_vv().prop_map(|version| CoherenceMsg::Notify { version }),
        (arb_vv(), proptest::option::of(any::<u64>()))
            .prop_map(|(since, order_since)| CoherenceMsg::DemandUpdate { since, order_since }),
        (0u32..8, any::<u64>()).prop_map(|(c, s)| CoherenceMsg::DemandResend {
            client: ClientId::new(c),
            from_seq: s,
        }),
        arb_policy().prop_map(|policy| CoherenceMsg::PolicyUpdate { policy }),
        (0u32..8, 0u32..16, arb_class(), arb_vv()).prop_map(|(n, s, class, version)| {
            CoherenceMsg::JoinRequest {
                node: NodeId::new(n),
                store: StoreId::new(s),
                class,
                version,
            }
        }),
        (
            arb_vv(),
            proptest::collection::vec(any::<u8>(), 0..64),
            proptest::collection::vec(("[a-z]{1,8}", arb_wid()), 0..4),
            proptest::option::of(any::<u64>()),
            proptest::collection::vec(arb_write(), 0..5),
            arb_members(),
        )
            .prop_map(|(version, state, writers, order_high, log, peers)| {
                CoherenceMsg::StateTransfer {
                    version,
                    state: Bytes::from(state),
                    writers,
                    order_high,
                    log,
                    peers,
                }
            }),
        (0u32..8).prop_map(|n| CoherenceMsg::Leave {
            node: NodeId::new(n)
        }),
        // The node-scoped detector frames: any byte-level mangling of
        // these must fail cleanly too (covered by the garbage and
        // truncation properties below, which draw from this strategy).
        any::<u64>().prop_map(|seq| CoherenceMsg::NodePing { seq }),
        any::<u64>().prop_map(|seq| CoherenceMsg::NodePong { seq }),
        (arb_members(), any::<u64>())
            .prop_map(|(peers, epoch)| CoherenceMsg::ElectRequest { peers, epoch }),
        (
            (0u32..8, 0u32..8, 0u32..16, any::<u64>()),
            arb_vv(),
            proptest::collection::vec(any::<u8>(), 0..64),
            proptest::collection::vec(("[a-z]{1,8}", arb_wid()), 0..4),
            proptest::option::of(any::<u64>()),
            proptest::collection::vec(arb_write(), 0..5),
            arb_members(),
        )
            .prop_map(
                |(
                    (old_home, new_home, new_home_store, epoch),
                    version,
                    state,
                    writers,
                    order_high,
                    log,
                    peers,
                )| {
                    CoherenceMsg::SequencerHandoff {
                        old_home: NodeId::new(old_home),
                        new_home: NodeId::new(new_home),
                        new_home_store: StoreId::new(new_home_store),
                        epoch,
                        version,
                        state: Bytes::from(state),
                        writers,
                        order_high,
                        log,
                        peers,
                    }
                },
            ),
        arb_members().prop_map(|peers| CoherenceMsg::Membership { peers }),
        // The group-commit and read-lease frames (PR 7): batched write
        // fan-out plus the lease handshake triple.
        (
            any::<u64>(),
            proptest::collection::vec(arb_write(), 0..5),
            arb_vv()
        )
            .prop_map(|(first_order, writes, version)| CoherenceMsg::WriteBatch {
                first_order,
                writes,
                version,
            }),
        (0u32..8, 0u32..16).prop_map(|(n, s)| CoherenceMsg::LeaseRequest {
            node: NodeId::new(n),
            store: StoreId::new(s),
        }),
        (any::<u64>(), arb_vv(), arb_duration()).prop_map(|(epoch, version, duration)| {
            CoherenceMsg::LeaseGrant {
                epoch,
                version,
                duration,
            }
        }),
        any::<u64>().prop_map(|epoch| CoherenceMsg::LeaseRevoke { epoch }),
        // The incremental state-transfer frames (PR 9): chunked deltas
        // plus the checkpoint announce/ack/compact triple.
        (
            (0u64..8, 1u64..8),
            proptest::collection::vec(arb_write(), 0..5),
            arb_vv(),
            proptest::option::of(any::<u64>()),
            arb_members(),
        )
            .prop_map(|((chunk, chunks), writes, version, order_high, peers)| {
                CoherenceMsg::StateDelta {
                    chunk,
                    chunks,
                    writes,
                    version,
                    order_high,
                    peers,
                }
            },),
        arb_vv().prop_map(|version| CoherenceMsg::CheckpointAnnounce { version }),
        (0u32..8, arb_vv()).prop_map(|(n, version)| CoherenceMsg::CheckpointAck {
            node: NodeId::new(n),
            version,
        }),
        arb_vv().prop_map(|version| CoherenceMsg::CompactBelow { version }),
    ]
}

/// Any combination of the policy parameters, not only the ones
/// `validate()` accepts: the codec carries whatever a peer sends.
fn arb_policy() -> impl Strategy<Value = ReplicationPolicy> {
    (
        (
            select(ObjectModel::ALL.to_vec()),
            select(Propagation::ALL.to_vec()),
            select(StoreScope::ALL.to_vec()),
            select(WriteSet::ALL.to_vec()),
            select(TransferInitiative::ALL.to_vec()),
            select(TransferInstant::ALL.to_vec()),
        ),
        arb_duration(),
        (
            select(AccessTransfer::ALL.to_vec()),
            select(CoherenceTransfer::ALL.to_vec()),
            select(OutdateReaction::ALL.to_vec()),
            select(OutdateReaction::ALL.to_vec()),
        ),
    )
        .prop_map(|(a, lazy_period, b)| {
            let (model, propagation, store_scope, write_set, initiative, instant) = a;
            let (access_transfer, coherence_transfer, object_outdate, client_outdate) = b;
            ReplicationPolicy {
                model,
                propagation,
                store_scope,
                write_set,
                initiative,
                instant,
                lazy_period,
                access_transfer,
                coherence_transfer,
                object_outdate,
                client_outdate,
            }
        })
}

fn arb_duration() -> impl Strategy<Value = std::time::Duration> {
    (0u64..10_000_000).prop_map(std::time::Duration::from_micros)
}

/// A wire-carried membership list: `(node, store id, class)` triples.
fn arb_members() -> impl Strategy<Value = Vec<globe_core::WireMember>> {
    proptest::collection::vec((0u32..8, 0u32..16, arb_class()), 0..4).prop_map(|members| {
        members
            .into_iter()
            .map(|(n, s, c)| (NodeId::new(n), globe_coherence::StoreId::new(s), c))
            .collect()
    })
}

fn arb_class() -> impl Strategy<Value = globe_coherence::StoreClass> {
    proptest::sample::select(vec![
        globe_coherence::StoreClass::Permanent,
        globe_coherence::StoreClass::ObjectInitiated,
        globe_coherence::StoreClass::ClientInitiated,
    ])
}

/// The properties below only mean something for the frames `arb_msg`
/// can draw: a frame added to the enum without a strategy arm fails
/// here, by name.
#[test]
fn arb_msg_draws_every_frame_kind() {
    let strategy = arb_msg();
    let mut rng = TestRng::new(27);
    let seen: BTreeSet<&str> = (0..2_000)
        .map(|_| strategy.generate(&mut rng).kind_name())
        .collect();
    let declared: BTreeSet<&str> = CoherenceMsg::KINDS.iter().map(|(_, name)| *name).collect();
    assert_eq!(seen, declared);
}

proptest! {
    #[test]
    fn net_msg_roundtrips(object in any::<u64>(), msg in arb_msg()) {
        let env = NetMsg {
            object: ObjectId::new(object),
            msg,
        };
        let bytes = globe_wire::to_bytes(&env);
        prop_assert_eq!(bytes.len(), globe_wire::WireEncode::encoded_len(&env));
        let back: NetMsg = globe_wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, env);
    }

    /// Arbitrary garbage must never panic the frame decoder.
    #[test]
    fn garbage_frames_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = globe_wire::from_bytes::<NetMsg>(&bytes);
    }

    /// Truncating a valid frame at any boundary yields an error, not a
    /// panic or a bogus success.
    #[test]
    fn truncated_frames_error_cleanly(msg in arb_msg(), cut in any::<prop::sample::Index>()) {
        let env = NetMsg { object: ObjectId::new(1), msg };
        let bytes = globe_wire::to_bytes(&env);
        if bytes.len() > 1 {
            let cut = 1 + cut.index(bytes.len() - 1);
            if cut < bytes.len() {
                prop_assert!(globe_wire::from_bytes::<NetMsg>(&bytes[..cut]).is_err());
            }
        }
    }

    /// Arbitrary garbage must never panic the invocation decoder either
    /// — invocations ride inside writes, so a hostile payload reaches
    /// this decoder on every store.
    #[test]
    fn garbage_invocations_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = globe_wire::from_bytes::<InvocationMessage>(&bytes);
    }

    /// Truncating a valid invocation at any boundary yields an error,
    /// never a panic.
    #[test]
    fn truncated_invocations_error_cleanly(inv in arb_inv(), cut in any::<prop::sample::Index>()) {
        let bytes = globe_wire::to_bytes(&inv);
        if bytes.len() > 1 {
            let cut = 1 + cut.index(bytes.len() - 1);
            if cut < bytes.len() {
                prop_assert!(globe_wire::from_bytes::<InvocationMessage>(&bytes[..cut]).is_err());
            }
        }
    }
}
