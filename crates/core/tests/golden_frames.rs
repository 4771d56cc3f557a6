//! Golden bytes: one fixed, fully-populated sample of every coherence
//! frame, pinned to the exact bytes it puts on the wire.
//!
//! The round-trip properties in `proptest_messages.rs` cannot see a
//! codec whose encode and decode sides swapped two fields *together*;
//! the benchmark only ever sends about eight of the frames. This table
//! is what proves the rest — `SequencerHandoff`, `StateDelta`,
//! `ElectRequest`, the lease and checkpoint frames — kept their tag and
//! field order. The hex was recorded from the hand-written codec that
//! predates `wire_tagged!`; a deliberate format change must update it
//! here, in the same commit, where a reviewer sees it.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test-only crate: clippy's in-tests exemptions cover #[test] bodies, not helpers"
)]

use bytes::Bytes;
use globe_coherence::{ClientId, StoreClass, StoreId, VersionVector, WriteId};
use globe_core::{
    CallOutcome, CheckpointImage, CoherenceMsg, InvocationMessage, LoggedWrite, MethodId, NetMsg,
    ReplicationPolicy, RequestId, WireMember,
};
use globe_naming::ObjectId;
use globe_net::NodeId;
use globe_wire::WireEncode;

fn vv(client: u32, seq: u64) -> VersionVector {
    [(ClientId::new(client), seq)].into_iter().collect()
}

fn wid(client: u32, seq: u64) -> WriteId {
    WriteId::new(ClientId::new(client), seq)
}

fn member(node: u32, store: u32, class: StoreClass) -> WireMember {
    (NodeId::new(node), StoreId::new(store), class)
}

fn sample_write() -> LoggedWrite {
    LoggedWrite {
        wid: wid(1, 3),
        inv: InvocationMessage::new(MethodId::new(1), Bytes::from_static(b"args")),
        deps: vv(2, 1),
        page: Some("index.html".to_string()),
        order: Some(17),
    }
}

/// The samples, in the order of [`GOLDEN`].
fn samples() -> Vec<CoherenceMsg> {
    vec![
        CoherenceMsg::ReadReq {
            req: RequestId::new(1),
            client: ClientId::new(2),
            inv: InvocationMessage::new(MethodId::new(0), Bytes::from_static(b"p")),
            min_version: vv(2, 4),
        },
        CoherenceMsg::WriteReq {
            req: RequestId::new(2),
            client: ClientId::new(1),
            write: sample_write(),
        },
        CoherenceMsg::Reply {
            req: RequestId::new(3),
            outcome: CallOutcome::Ok(Bytes::from_static(b"result")),
            version: vv(1, 3),
            sees: Some(wid(1, 3)),
            full_state: Some(Bytes::from_static(b"snapshot")),
        },
        CoherenceMsg::Reply {
            req: RequestId::new(4),
            outcome: CallOutcome::Err("page missing".into()),
            version: VersionVector::new(),
            sees: None,
            full_state: None,
        },
        CoherenceMsg::Update {
            write: sample_write(),
        },
        CoherenceMsg::UpdateBatch {
            writes: vec![sample_write(), sample_write()],
            version: VersionVector::new(),
        },
        CoherenceMsg::FullState {
            version: vv(1, 9),
            state: Bytes::from_static(b"state"),
            writers: vec![("a".to_string(), wid(1, 9))],
            order_high: Some(12),
        },
        CoherenceMsg::Invalidate {
            pages: vec![Some("a".to_string()), None],
            version: VersionVector::new(),
        },
        CoherenceMsg::Notify { version: vv(3, 1) },
        CoherenceMsg::DemandUpdate {
            since: VersionVector::new(),
            order_since: None,
        },
        CoherenceMsg::DemandResend {
            client: ClientId::new(1),
            from_seq: 4,
        },
        CoherenceMsg::PolicyUpdate {
            policy: ReplicationPolicy::conference_page(),
        },
        CoherenceMsg::JoinRequest {
            node: NodeId::new(3),
            store: StoreId::new(7),
            class: StoreClass::ClientInitiated,
            version: vv(1, 2),
        },
        CoherenceMsg::StateTransfer {
            version: vv(1, 5),
            state: Bytes::from_static(b"snapshot"),
            writers: vec![("a".to_string(), wid(1, 5))],
            order_high: Some(6),
            log: vec![sample_write(), sample_write()],
            peers: vec![member(2, 1, StoreClass::Permanent)],
        },
        CoherenceMsg::Leave {
            node: NodeId::new(9),
        },
        CoherenceMsg::NodePing { seq: 12 },
        CoherenceMsg::NodePong { seq: 12 },
        CoherenceMsg::ElectRequest {
            peers: vec![
                member(2, 0, StoreClass::Permanent),
                member(4, 2, StoreClass::ObjectInitiated),
            ],
            epoch: 3,
        },
        CoherenceMsg::SequencerHandoff {
            old_home: NodeId::new(0),
            new_home: NodeId::new(1),
            new_home_store: StoreId::new(1),
            epoch: 2,
            version: vv(1, 5),
            state: Bytes::from_static(b"snapshot"),
            writers: vec![("a".to_string(), wid(1, 5))],
            order_high: Some(6),
            log: vec![sample_write()],
            peers: vec![member(3, 2, StoreClass::ClientInitiated)],
        },
        CoherenceMsg::Membership {
            peers: vec![
                member(0, 0, StoreClass::Permanent),
                member(5, 3, StoreClass::ObjectInitiated),
            ],
        },
        CoherenceMsg::WriteBatch {
            first_order: 17,
            writes: vec![sample_write(), sample_write()],
            version: vv(1, 4),
        },
        CoherenceMsg::LeaseRequest {
            node: NodeId::new(4),
            store: StoreId::new(2),
        },
        CoherenceMsg::LeaseGrant {
            epoch: 3,
            version: vv(2, 7),
            duration: std::time::Duration::from_millis(1500),
        },
        CoherenceMsg::LeaseRevoke { epoch: 3 },
        CoherenceMsg::StateDelta {
            chunk: 1,
            chunks: 3,
            writes: vec![sample_write(), sample_write()],
            version: vv(1, 8),
            order_high: Some(21),
            peers: vec![member(2, 1, StoreClass::Permanent)],
        },
        CoherenceMsg::StateDelta {
            chunk: 0,
            chunks: 1,
            writes: Vec::new(),
            version: VersionVector::new(),
            order_high: None,
            peers: Vec::new(),
        },
        CoherenceMsg::CheckpointAnnounce { version: vv(2, 6) },
        CoherenceMsg::CheckpointAck {
            node: NodeId::new(4),
            version: vv(2, 6),
        },
        CoherenceMsg::CompactBelow { version: vv(2, 6) },
    ]
}

/// `(kind, hex of the frame inside a NetMsg envelope for object 5)`,
/// one row per entry of [`samples`].
const GOLDEN: &[(&str, &str)] = &[
    ("ReadReq", "0500010000000200000170010000000204"),
    ("WriteReq", "05010200000001000000010300010461726773010000000201010a696e6465782e68746d6c0111"),
    ("Reply", "0502030006726573756c740100000001030100000001030108736e617073686f74"),
    ("Reply", "050204010c70616765206d697373696e67000000"),
    ("Update", "0503000000010300010461726773010000000201010a696e6465782e68746d6c0111"),
    ("UpdateBatch", "050402000000010300010461726773010000000201010a696e6465782e68746d6c0111000000010300010461726773010000000201010a696e6465782e68746d6c011100"),
    ("FullState", "05050100000001090573746174650101610000000109010c"),
    ("Invalidate", "0506020101610000"),
    ("Notify", "0507010000000301"),
    ("DemandUpdate", "05080000"),
    ("DemandResend", "05090000000104"),
    ("PolicyUpdate", "050a01000200000180a8d6b90701010001"),
    ("JoinRequest", "050b000000030000000702010000000102"),
    ("StateTransfer", "050c01000000010508736e617073686f740101610000000105010602000000010300010461726773010000000201010a696e6465782e68746d6c0111000000010300010461726773010000000201010a696e6465782e68746d6c011101000000020000000100"),
    ("Leave", "050d00000009"),
    ("NodePing", "050e0c"),
    ("NodePong", "050f0c"),
    ("ElectRequest", "05100200000002000000000000000004000000020103"),
    ("SequencerHandoff", "05110000000000000001000000010201000000010508736e617073686f740101610000000105010601000000010300010461726773010000000201010a696e6465782e68746d6c011101000000030000000202"),
    ("Membership", "051202000000000000000000000000050000000301"),
    ("WriteBatch", "05131102000000010300010461726773010000000201010a696e6465782e68746d6c0111000000010300010461726773010000000201010a696e6465782e68746d6c0111010000000104"),
    ("LeaseRequest", "05140000000400000002"),
    ("LeaseGrant", "05150301000000020780dea0cb05"),
    ("LeaseRevoke", "051603"),
    ("StateDelta", "0517010302000000010300010461726773010000000201010a696e6465782e68746d6c0111000000010300010461726773010000000201010a696e6465782e68746d6c0111010000000108011501000000020000000100"),
    ("StateDelta", "0517000100000000"),
    ("CheckpointAnnounce", "0518010000000206"),
    ("CheckpointAck", "051900000004010000000206"),
    ("CompactBelow", "051a010000000206"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

#[test]
fn every_frame_matches_its_golden_bytes() {
    let samples = samples();
    assert_eq!(samples.len(), GOLDEN.len(), "one golden row per sample");
    for (msg, (kind, golden)) in samples.into_iter().zip(GOLDEN) {
        assert_eq!(msg.kind_name(), *kind, "sample and golden row out of step");
        let env = NetMsg {
            object: ObjectId::new(5),
            msg,
        };
        let bytes = globe_wire::to_bytes(&env);
        assert_eq!(bytes.len(), env.encoded_len(), "{kind}: encoded_len");
        assert_eq!(hex(&bytes), *golden, "{kind}: bytes on the wire changed");
        let back: NetMsg = globe_wire::from_bytes(&unhex(golden)).expect("golden bytes decode");
        assert_eq!(back, env, "{kind}: golden bytes decode to the sample");
    }
}

/// The checkpoint file a durable store writes is the same field
/// sequence as `FullState`; a store must still read the images it wrote
/// before an upgrade.
#[test]
fn checkpoint_image_matches_its_golden_bytes() {
    let image = CheckpointImage {
        version: vv(1, 9),
        state: Bytes::from_static(b"state"),
        writers: vec![("a".to_string(), wid(1, 9))],
        order_high: Some(12),
    };
    let golden = "0100000001090573746174650101610000000109010c";
    assert_eq!(hex(&globe_wire::to_bytes(&image)), golden);
    let back: CheckpointImage = globe_wire::from_bytes(&unhex(golden)).expect("golden decodes");
    assert_eq!(back, image);
}

/// One sample per declared frame kind, in tag order — what the checks
/// below iterate, since the story is a `match` on a value.
fn one_sample_per_kind() -> Vec<CoherenceMsg> {
    let mut samples = samples();
    samples.sort_by_key(CoherenceMsg::tag);
    samples.dedup_by_key(|msg| msg.tag());
    let sampled: Vec<(u8, &str)> = samples.iter().map(|m| (m.tag(), m.kind_name())).collect();
    assert_eq!(
        sampled,
        CoherenceMsg::KINDS,
        "every frame needs a golden sample"
    );
    samples
}

/// The last column of a catalogue row, as the story `match` dictates it.
fn story_cell(msg: &CoherenceMsg) -> String {
    match msg.trace_story() {
        Ok(kinds) => {
            let quoted: Vec<String> = kinds.iter().map(|kind| format!("`{kind}`")).collect();
            quoted.join(", ")
        }
        Err(reason) => format!("exempt: {reason}"),
    }
}

/// `docs/ARCHITECTURE.md` carries exactly one `| tag | `Name` | role |
/// story |` row per frame, and its story column is the story `match`.
#[test]
fn catalogue_has_exactly_one_row_per_frame() {
    let doc = include_str!("../../../docs/ARCHITECTURE.md");
    let section = doc
        .split("\n## Wire-frame catalogue\n")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("ARCHITECTURE.md has a `## Wire-frame catalogue` section");
    let found: Vec<(String, String, String)> = section
        .lines()
        .filter(|line| line.starts_with("| ") && line.as_bytes()[2].is_ascii_digit())
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 4, "tag, frame, role, story: {line}");
            assert!(!cells[2].is_empty(), "a row needs a role: {line}");
            (
                cells[0].to_string(),
                cells[1].to_string(),
                cells[3].to_string(),
            )
        })
        .collect();
    let expected: Vec<(String, String, String)> = one_sample_per_kind()
        .iter()
        .map(|msg| {
            let name = format!("`{}`", msg.kind_name());
            (msg.tag().to_string(), name, story_cell(msg))
        })
        .collect();
    assert_eq!(found, expected, "catalogue rows (tag, frame, story)");
}

/// What the deleted lint rule asserted about the story: every journal
/// kind it names is a real `ProtocolEvent::kind()` string, and every
/// exemption says why.
#[test]
fn every_story_names_real_event_kinds_or_gives_a_reason() {
    let trace_src = include_str!("../src/trace.rs");
    for msg in one_sample_per_kind() {
        let frame = msg.kind_name();
        match msg.trace_story() {
            Ok(kinds) => {
                assert!(!kinds.is_empty(), "{frame}: journalled as nothing");
                for kind in kinds {
                    assert!(
                        trace_src.contains(&format!("=> \"{kind}\"")),
                        "{frame}: no ProtocolEvent kind `{kind}` in trace.rs"
                    );
                }
            }
            Err(reason) => assert!(
                !reason.trim().is_empty(),
                "{frame}: exempt without a reason"
            ),
        }
    }
}
