//! The same protocols over real TCP sockets: a smoke test of the
//! sans-IO claim. A server and a cache run on their own threads; the
//! Web-master client (with Read-Your-Writes) and a user client are
//! driven from the test thread.

use std::time::{Duration, Instant};

use globe_coherence::{ClientModel, ObjectModel, StoreClass};
use globe_core::{
    registers, BindOptions, EnginePort, GlobeRuntime, GlobeTcp, ObjectSpec, RegisterDoc,
    ReplicationPolicy,
};

const CALL_TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn conference_page_over_real_sockets() {
    let mut globe = GlobeTcp::new();
    let server = globe.add_node().expect("server node");
    let cache = globe.add_node().expect("cache node");
    let master_node = globe.add_node().expect("master node");
    let user_node = globe.add_node().expect("user node");

    let mut policy = ReplicationPolicy::conference_page();
    policy.lazy_period = Duration::from_millis(300); // faster for a test
    let object = ObjectSpec::new("/conf/icdcs98")
        .policy(policy)
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut globe)
        .expect("create object");

    let master = globe
        .bind(
            object,
            master_node,
            BindOptions::new()
                .read_node(cache)
                .guard(ClientModel::ReadYourWrites),
        )
        .expect("bind master");
    let user = globe
        .bind(object, user_node, BindOptions::new().read_node(cache))
        .expect("bind user");

    globe.start(&[master_node, user_node]);

    // The master writes to the server and immediately reads through the
    // cache: RYW must force the cache to demand the update.
    globe
        .write_timeout(&master, registers::put("program.html", b"v1"), CALL_TIMEOUT)
        .expect("master write");
    let got = globe
        .read_timeout(&master, registers::get("program.html"), CALL_TIMEOUT)
        .expect("master read");
    assert_eq!(&got[..], b"v1", "read-your-writes over TCP");

    // The user eventually sees the page via the periodic push.
    let mut user_saw = Vec::new();
    for _ in 0..50 {
        user_saw = globe
            .read_timeout(&user, registers::get("program.html"), CALL_TIMEOUT)
            .expect("user read")
            .to_vec();
        if user_saw == b"v1" {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(&user_saw[..], b"v1", "push never reached the cache");

    // The history recorded over real sockets passes the same checkers.
    let history = globe.history();
    let history = history.lock();
    globe_coherence::check::check_pram(&history).expect("pram holds over tcp");
    globe_coherence::check::check_read_your_writes(&history, master.client)
        .expect("ryw holds over tcp");
    drop(history);

    globe.shutdown();
}

/// The ROADMAP open item, closed: `set_policy` works on a live
/// deployment — after `start()` has handed every store endpoint to its
/// event-loop thread — by riding the control plane to the home store,
/// which adopts the policy and broadcasts it to the replicas.
#[test]
fn set_policy_works_on_a_live_deployment() {
    let mut globe = GlobeTcp::new();
    let server = globe.add_node().expect("server");
    let cache = globe.add_node().expect("cache");
    let writer_node = globe.add_node().expect("writer");

    // Start lazy with an hour-long period: pushes effectively off.
    let lazy = ReplicationPolicy::builder(globe_coherence::ObjectModel::Fifo)
        .lazy(Duration::from_secs(3600))
        .build()
        .expect("valid");
    let object = ObjectSpec::new("/tcp/live-policy")
        .policy(lazy)
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut globe)
        .expect("create");
    let writer = globe
        .bind(object, writer_node, BindOptions::new().read_node(server))
        .expect("bind writer");
    let reader = globe
        .bind(object, writer_node, BindOptions::new().read_node(cache))
        .expect("bind reader");
    // Every store node spawns its event loop; only the client node
    // stays caller-driven. The old behavior here was a hard
    // `Unsupported` error from set_policy.
    globe.start(&[writer_node]);

    globe
        .write_timeout(&writer, registers::put("page", b"stale"), CALL_TIMEOUT)
        .expect("write under lazy policy");

    // Live switch to immediate pushes, delivered via the control plane.
    let immediate = ReplicationPolicy::builder(globe_coherence::ObjectModel::Fifo)
        .immediate()
        .build()
        .expect("valid");
    globe
        .set_policy(object, immediate)
        .expect("set_policy must work after start()");

    // Under the new policy a fresh write reaches the cache promptly
    // (the switched home also flushes its backlog).
    globe
        .write_timeout(&writer, registers::put("page", b"fresh"), CALL_TIMEOUT)
        .expect("write under immediate policy");
    let mut seen = Vec::new();
    for _ in 0..50 {
        seen = globe
            .read_timeout(&reader, registers::get("page"), CALL_TIMEOUT)
            .expect("read via cache")
            .to_vec();
        if seen == b"fresh" {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(
        &seen[..],
        b"fresh",
        "live policy switch must reach the cache"
    );
    globe.shutdown();
}

#[test]
fn incremental_updates_over_sockets_stay_ordered() {
    let mut globe = GlobeTcp::new();
    let server = globe.add_node().expect("server");
    let cache = globe.add_node().expect("cache");
    let writer_node = globe.add_node().expect("writer");

    let policy = ReplicationPolicy::builder(globe_coherence::ObjectModel::Pram)
        .immediate()
        .build()
        .expect("valid");
    let object = ObjectSpec::new("/tcp/stream")
        .policy(policy)
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut globe)
        .expect("create");
    let writer = globe
        .bind(object, writer_node, BindOptions::new().read_node(server))
        .expect("bind");
    globe.start(&[writer_node]);

    for i in 0..10 {
        globe
            .write_timeout(
                &writer,
                registers::put("page", format!("v{i}").as_bytes()),
                CALL_TIMEOUT,
            )
            .expect("write");
    }
    let got = globe
        .read_timeout(&writer, registers::get("page"), CALL_TIMEOUT)
        .expect("read");
    assert_eq!(&got[..], b"v9");

    // Give the push a moment, then check PRAM order at every store.
    std::thread::sleep(Duration::from_millis(500));
    let history = globe.history();
    let history = history.lock();
    globe_coherence::check::check_pram(&history).expect("pram over tcp");
    drop(history);
    globe.shutdown();
}

/// The TCP client plane as a port: a writer thread and a reader thread
/// issue through one shared `EnginePort` while the node loops and
/// connection readers make the progress. Every call resolves, the
/// recorded history is PRAM, and the settled replicas agree.
#[test]
fn two_threads_share_the_engine_port_over_sockets() {
    const CALLS: usize = 50;

    let mut globe = GlobeTcp::new();
    let server = globe.add_node().expect("server");
    let mirror = globe.add_node().expect("mirror");
    let client_node = globe.add_node().expect("client");
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .expect("valid");
    let object = ObjectSpec::new("/tcp/port")
        .policy(policy)
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .store(mirror, StoreClass::Permanent)
        .create(&mut globe)
        .expect("create");
    let writer = globe
        .bind(object, client_node, BindOptions::new().read_node(server))
        .expect("bind writer");
    let reader = globe
        .bind(object, client_node, BindOptions::new().read_node(mirror))
        .expect("bind reader");
    globe.start(&[client_node]);

    let port = globe
        .engine_port()
        .expect("a started TCP runtime is a port");
    let port: &dyn EnginePort = &*port;
    let deadline = Instant::now() + CALL_TIMEOUT;
    std::thread::scope(|scope| {
        for (handle, is_read) in [(&writer, false), (&reader, true)] {
            scope.spawn(move || {
                let reqs: Vec<_> = (0..CALLS)
                    .map(|i| {
                        let inv = if is_read {
                            registers::get("page")
                        } else {
                            registers::put("page", format!("v{i}").as_bytes())
                        };
                        port.issue(handle, inv, is_read).expect("issue")
                    })
                    .collect();
                for req in reqs {
                    loop {
                        if let Some(result) = port.try_result(handle, req) {
                            result.expect("call completed");
                            break;
                        }
                        assert!(Instant::now() < deadline, "a call never resolved");
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            });
        }
    });

    globe.settle(Duration::from_millis(300));
    let last = format!("v{}", CALLS - 1);
    for handle in [&writer, &reader] {
        let got = globe
            .read_timeout(handle, registers::get("page"), CALL_TIMEOUT)
            .expect("read");
        assert_eq!(&got[..], last.as_bytes(), "settled replicas agree");
    }
    let history = globe.history();
    globe_coherence::check::check_pram(&history.lock()).expect("pram over the port");
    globe.shutdown();
}
