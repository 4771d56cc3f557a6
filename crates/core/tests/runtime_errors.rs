//! Negative paths of the runtime API: every misuse must surface as a
//! typed error, never a panic or a silent success.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test-only crate: clippy's in-tests exemptions cover #[test] bodies, not helpers"
)]

use globe_coherence::{ClientId, ObjectModel, StoreClass, StoreId};
use globe_core::{
    registers, BindOptions, CallError, GlobeRuntime, GlobeShard, GlobeSim, GlobeTcp, ObjectSpec,
    ReadChoice, RegisterDoc, ReplicationPolicy, RuntimeError,
};
use globe_naming::ObjectId;
use globe_net::{NodeId, Topology};

fn doc() -> Box<dyn globe_core::Semantics> {
    Box::new(RegisterDoc::new())
}

fn policy() -> ReplicationPolicy {
    ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .unwrap()
}

#[test]
fn create_object_rejects_bad_input() {
    let mut sim = GlobeSim::new(Topology::lan(), 0);
    let node = sim.add_node();

    // No permanent store in the placement.
    let err = ObjectSpec::new("/x")
        .policy(policy())
        .semantics_boxed(doc)
        .store(node, StoreClass::ClientInitiated)
        .create(&mut sim)
        .unwrap_err();
    assert_eq!(err, RuntimeError::NoPermanentStore);

    // Unknown node.
    let err = ObjectSpec::new("/x")
        .policy(policy())
        .semantics_boxed(doc)
        .store(NodeId::new(99), StoreClass::Permanent)
        .create(&mut sim)
        .unwrap_err();
    assert_eq!(err, RuntimeError::UnknownNode(NodeId::new(99)));

    // Malformed name.
    let err = ObjectSpec::new("not-absolute")
        .policy(policy())
        .semantics_boxed(doc)
        .store(node, StoreClass::Permanent)
        .create(&mut sim)
        .unwrap_err();
    assert!(matches!(err, RuntimeError::BadName(_)));

    // Duplicate name.
    ObjectSpec::new("/x")
        .policy(policy())
        .semantics_boxed(doc)
        .home(node)
        .create(&mut sim)
        .unwrap();
    let err = ObjectSpec::new("/x")
        .policy(policy())
        .semantics_boxed(doc)
        .home(node)
        .create(&mut sim)
        .unwrap_err();
    assert!(matches!(err, RuntimeError::NameTaken(_)));

    // Invalid policy.
    let bad = ReplicationPolicy {
        lazy_period: std::time::Duration::ZERO,
        instant: globe_core::TransferInstant::Lazy,
        ..policy()
    };
    let err = ObjectSpec::new("/y")
        .policy(bad)
        .semantics_boxed(doc)
        .home(node)
        .create(&mut sim)
        .unwrap_err();
    assert!(matches!(err, RuntimeError::BadPolicy(_)));
}

/// Every refusal of `bind`, in the one order the driver checks them
/// (node, then object, then replica) — the same on every backend.
fn check_bind_rejections<R: GlobeRuntime>(rt: &mut R) {
    let server = rt.add_node().unwrap();
    let other = rt.add_node().unwrap();
    let object = ObjectSpec::new("/b")
        .policy(policy())
        .semantics_boxed(doc)
        .home(server)
        .create(rt)
        .unwrap();
    let first = rt.bind(object, other, BindOptions::new()).unwrap();

    // Binding reads to a node without a replica.
    let err = rt
        .bind(object, other, BindOptions::new().read_node(other))
        .unwrap_err();
    assert_eq!(err, RuntimeError::NoSuchReplica);

    // Binding in an unknown address space.
    let err = rt
        .bind(object, NodeId::new(77), BindOptions::new())
        .unwrap_err();
    assert_eq!(err, RuntimeError::UnknownNode(NodeId::new(77)));

    // Requesting a store class that has no replica.
    let err = rt
        .bind(
            object,
            other,
            BindOptions {
                read_from: ReadChoice::Class(StoreClass::ObjectInitiated),
                ..BindOptions::new()
            },
        )
        .unwrap_err();
    assert_eq!(err, RuntimeError::NoSuchReplica);

    // Unknown object id.
    let ghost = ObjectId::new(999);
    let err = rt.bind(ghost, other, BindOptions::new()).unwrap_err();
    assert_eq!(err, RuntimeError::UnknownObject(ghost));

    // Unknown object *and* unknown node: the node is checked first.
    let err = rt
        .bind(ghost, NodeId::new(77), BindOptions::new())
        .unwrap_err();
    assert_eq!(err, RuntimeError::UnknownNode(NodeId::new(77)));

    // None of the refused calls burned a client id.
    let next = rt.bind(object, other, BindOptions::new()).unwrap();
    assert_eq!(next.client, ClientId::new(first.client.raw() + 1));
}

#[test]
fn bind_rejects_missing_replicas_and_nodes() {
    check_bind_rejections(&mut GlobeSim::new(Topology::lan(), 1));
    check_bind_rejections(&mut GlobeTcp::new());
    check_bind_rejections(&mut GlobeShard::new(2));
}

#[test]
fn calls_on_unbound_handles_fail_cleanly() {
    let mut sim = GlobeSim::new(Topology::lan(), 2);
    let server = sim.add_node();
    let object = ObjectSpec::new("/c")
        .policy(policy())
        .semantics_boxed(doc)
        .home(server)
        .create(&mut sim)
        .unwrap();
    let real = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    // Forge a handle with a bogus client id.
    let fake = globe_core::ClientHandle {
        object,
        node: server,
        client: globe_coherence::ClientId::new(4242),
    };
    assert_eq!(
        sim.handle(fake).read(registers::get("p")).unwrap_err(),
        CallError::NotBound
    );
    assert_eq!(
        sim.handle(fake)
            .write(registers::put("p", b"x"))
            .unwrap_err(),
        CallError::NotBound
    );
    // The real handle still works.
    sim.handle(real).write(registers::put("p", b"x")).unwrap();
}

#[test]
fn semantics_errors_travel_back_to_the_caller() {
    let mut sim = GlobeSim::new(Topology::lan(), 3);
    let server = sim.add_node();
    let object = ObjectSpec::new("/d")
        .policy(policy())
        .semantics_boxed(doc)
        .home(server)
        .create(&mut sim)
        .unwrap();
    let handle = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    // Method 99 does not exist on RegisterDoc.
    let bogus =
        globe_core::InvocationMessage::new(globe_core::MethodId::new(99), bytes::Bytes::new());
    match sim.handle(handle).read(bogus).unwrap_err() {
        CallError::Semantics(msg) => assert!(msg.contains("m99"), "{msg}"),
        other => panic!("expected a semantics error, got {other:?}"),
    }
}

#[test]
fn stalled_calls_report_instead_of_hanging() {
    // A read bound to a store that can never satisfy it: min_version
    // can't rise because nothing is scheduled. The pump detects the dead
    // simulation and errors.
    let lazy_forever = ReplicationPolicy {
        instant: globe_core::TransferInstant::Lazy,
        lazy_period: std::time::Duration::from_secs(100_000),
        client_outdate: globe_core::OutdateReaction::Wait,
        object_outdate: globe_core::OutdateReaction::Wait,
        ..policy()
    };
    let mut sim = GlobeSim::new(Topology::lan(), 4);
    let server = sim.add_node();
    let cache = sim.add_node();
    let object = ObjectSpec::new("/e")
        .policy(lazy_forever)
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut sim)
        .unwrap();
    let master = sim
        .bind(
            object,
            cache,
            BindOptions::new()
                .read_node(cache)
                .guard(globe_coherence::ClientModel::ReadYourWrites),
        )
        .unwrap();
    sim.handle(master).write(registers::put("p", b"v")).unwrap();
    // RYW read through the un-pushed cache with `wait` everywhere: the
    // read queues until the far-future lazy push. With a short timeout
    // the call reports rather than spinning.
    sim.set_call_timeout(std::time::Duration::from_secs(30));
    let err = sim.handle(master).read(registers::get("p")).unwrap_err();
    assert!(
        matches!(err, CallError::TimedOut | CallError::Stalled),
        "got {err:?}"
    );
}

/// The lifecycle surface reports precise errors instead of panicking,
/// and the same ones on every backend.
fn check_lifecycle_rejections<R: GlobeRuntime>(rt: &mut R) {
    let server = rt.add_node().unwrap();
    let stranger = rt.add_node().unwrap();
    let object = ObjectSpec::new("/legacy")
        .policy(policy())
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .create(rt)
        .unwrap();
    // Unknown object.
    let ghost = ObjectId::new(9999);
    assert!(matches!(
        rt.membership(ghost),
        Err(RuntimeError::UnknownObject(_))
    ));
    // A node that hosts no replica cannot be removed or restarted.
    assert!(matches!(
        rt.remove_store(object, stranger),
        Err(RuntimeError::NoSuchReplica)
    ));
    assert!(matches!(
        rt.restart_store(object, stranger, doc()),
        Err(RuntimeError::NoSuchReplica)
    ));
    // The home store can be neither removed nor restarted.
    assert!(rt.remove_store(object, server).is_err());
    assert!(rt.restart_store(object, server, doc()).is_err());
    // A node cannot host two replicas of the same object.
    assert!(rt
        .add_store(object, server, StoreClass::ClientInitiated, doc())
        .is_err());
}

#[test]
fn lifecycle_rejects_unknown_targets() {
    check_lifecycle_rejections(&mut GlobeSim::new(Topology::lan(), 5));
    check_lifecycle_rejections(&mut GlobeTcp::new());
    check_lifecycle_rejections(&mut GlobeShard::new(2));
}

#[test]
fn tcp_create_after_start_is_refused_not_fatal() {
    // Once a node's event loop owns its endpoint the caller can no longer
    // start a replica there: creation is refused with a typed error (it
    // used to abort the process) and leaves the runtime untouched.
    let mut tcp = GlobeTcp::new();
    let server = tcp.add_node().unwrap();
    let client = tcp.add_node().unwrap();
    let early = ObjectSpec::new("/early")
        .semantics_boxed(doc)
        .home(server)
        .create(&mut tcp)
        .unwrap();
    tcp.start(&[client]);

    let err = ObjectSpec::new("/late")
        .semantics_boxed(doc)
        .home(server)
        .create(&mut tcp)
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Unsupported(_)), "got {err:?}");

    // No store id was allocated for the refused placement…
    let mirror = tcp
        .add_store(early, client, StoreClass::ObjectInitiated, doc())
        .unwrap();
    assert_eq!(mirror, StoreId::new(1));
    // …and the name was not registered: a node the caller still drives
    // can host it, and the object serves calls.
    let late = ObjectSpec::new("/late")
        .semantics_boxed(doc)
        .home(client)
        .create(&mut tcp)
        .unwrap();
    let handle = tcp.bind(late, client, BindOptions::new()).unwrap();
    tcp.handle(handle).write(registers::put("p", b"v")).unwrap();
    let read = tcp.handle(handle).read(registers::get("p")).unwrap();
    assert_eq!(&read[..], b"v");
    tcp.shutdown();
}

#[test]
fn unusable_durable_dir_falls_back_to_memory_and_is_counted() {
    // The durable directory names a regular file, so the store's WAL
    // cannot open: the replica runs on the in-memory log instead, and
    // the failure is counted where a deployment can see it.
    let tmp = globe_core::TempDir::new("durable_is_a_file");
    let file = tmp.path().join("not_a_dir");
    std::fs::write(&file, b"").unwrap();
    let config = globe_core::RuntimeConfig::new().seed(5).durable_dir(&file);
    let mut sim = GlobeSim::with_config(Topology::lan(), config);
    let server = sim.add_node();
    let object = ObjectSpec::new("/d")
        .policy(policy())
        .semantics_boxed(doc)
        .home(server)
        .create(&mut sim)
        .unwrap();
    let handle = sim.bind(object, server, BindOptions::new()).unwrap();
    sim.handle(handle).write(registers::put("p", b"v")).unwrap();
    let read = sim.handle(handle).read(registers::get("p")).unwrap();
    assert_eq!(&read[..], b"v");
    assert_eq!(sim.metrics().lock().storage_errors, 1);
}
