//! Run-time dynamism: guards added after binding, replicas restarted
//! after crashes, and policy changes mid-flight — the "flexibility needed
//! in an evolutionary system such as the Web" (§5).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test-only crate: clippy's in-tests exemptions cover #[test] bodies, not helpers"
)]

use std::time::Duration;

use globe_coherence::{check, ClientModel, ObjectModel, StoreClass};
use globe_core::lifecycle::{LifecycleEventKind, StoreHealth};
use globe_core::{
    registers, BindOptions, GlobeRuntime, GlobeSim, ObjectSpec, ProtocolEvent, RegisterDoc,
    ReplicationPolicy, RuntimeConfig, TempDir,
};
use globe_net::Topology;

fn doc() -> Box<dyn globe_core::Semantics> {
    Box::new(RegisterDoc::new())
}

#[test]
fn guard_added_at_runtime_is_enforced() {
    // A master bound WITHOUT RYW observes the stale cache; after
    // add_guard, the same handle's reads are RYW-enforced.
    let policy = ReplicationPolicy::conference_page(); // 2 s lazy push
    let mut sim = GlobeSim::new(Topology::lan(), 70);
    let server = sim.add_node();
    let cache = sim.add_node();
    let object = ObjectSpec::new("/dynamic/guard")
        .policy(policy)
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut sim)
        .unwrap();
    let master = sim
        .bind(object, cache, BindOptions::new().read_node(cache))
        .unwrap();

    sim.handle(master)
        .write(registers::put("p", b"v1"))
        .unwrap();
    let stale = sim.handle(master).read(registers::get("p")).unwrap();
    assert!(stale.is_empty(), "without the guard the cache is stale");

    sim.add_guard(&master, ClientModel::ReadYourWrites).unwrap();
    sim.handle(master)
        .write(registers::put("p", b"v2"))
        .unwrap();
    let fresh = sim.handle(master).read(registers::get("p")).unwrap();
    assert_eq!(
        &fresh[..],
        b"v2",
        "guard added at run time must enforce RYW"
    );

    let history = sim.history();
    let history = history.lock();
    check::check_pram(&history).unwrap();
}

#[test]
fn subsumed_guard_added_at_runtime_is_ignored() {
    let mut sim = GlobeSim::new(Topology::lan(), 71);
    let server = sim.add_node();
    let object = ObjectSpec::new("/dynamic/subsumed")
        .policy(ReplicationPolicy::whiteboard()) // sequential
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .create(&mut sim)
        .unwrap();
    let handle = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    // Sequential subsumes RYW; adding it must be a harmless no-op.
    sim.add_guard(&handle, ClientModel::ReadYourWrites).unwrap();
    sim.handle(handle).write(registers::put("p", b"x")).unwrap();
    let got = sim.handle(handle).read(registers::get("p")).unwrap();
    assert_eq!(&got[..], b"x");
}

#[test]
fn crashed_cache_recovers_from_the_permanent_store() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .unwrap();
    let mut sim = GlobeSim::new(Topology::wan(), 72);
    let server = sim.add_node();
    let cache = sim.add_node();
    let object = ObjectSpec::new("/dynamic/crash")
        .policy(policy)
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut sim)
        .unwrap();
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    for i in 0..5 {
        sim.handle(master)
            .write(registers::put(&format!("p{i}"), b"live"))
            .unwrap();
    }
    sim.run_for(Duration::from_secs(1));
    let before = sim.store_digest(object, cache).unwrap();
    assert_eq!(before, sim.store_digest(object, server).unwrap());

    // Crash: all in-memory state gone. Recovery: resync from the home
    // store (the permanent store implements persistence, §3.1).
    sim.restart_store(object, cache, doc()).unwrap();
    sim.run_for(Duration::from_secs(2));
    assert_eq!(
        sim.store_digest(object, cache).unwrap(),
        sim.store_digest(object, server).unwrap(),
        "restarted cache must rebuild the full replica"
    );

    // And it keeps receiving pushes afterwards.
    sim.handle(master)
        .write(registers::put("after", b"restart"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        sim.store_digest(object, cache).unwrap(),
        sim.store_digest(object, server).unwrap()
    );
}

#[test]
fn home_store_refuses_restart() {
    // With no second permanent store there is nothing to elect, so the
    // fail-over is refused and the runtime is left untouched.
    let mut sim = GlobeSim::new(Topology::lan(), 73);
    let server = sim.add_node();
    let object = ObjectSpec::new("/dynamic/home")
        .policy(ReplicationPolicy::personal_home_page())
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .create(&mut sim)
        .unwrap();
    assert_eq!(
        sim.restart_store(object, server, doc()),
        Err(globe_core::RuntimeError::NoFailoverCandidate)
    );
    assert_eq!(
        sim.remove_store(object, server),
        Err(globe_core::RuntimeError::NoFailoverCandidate)
    );
    assert_eq!(sim.home_of(object), Some(server));
}

#[test]
fn home_failover_elects_survivor_and_records_the_election() {
    // Kill the home of a two-permanent-store object: the survivor is
    // elected (visible in the membership view) and the election lands in
    // the metrics store's lifecycle events.
    let mut sim = GlobeSim::new(Topology::lan(), 74);
    let first = sim.add_node();
    let second = sim.add_node();
    let object = ObjectSpec::new("/dynamic/elect")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(first, StoreClass::Permanent)
        .store(second, StoreClass::Permanent)
        .create(&mut sim)
        .unwrap();
    let master = sim
        .bind(object, first, BindOptions::new().read_node(first))
        .unwrap();
    sim.handle(master)
        .write(registers::put("p", b"before"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));

    sim.restart_store(object, first, doc()).unwrap();
    sim.run_for(Duration::from_secs(2));

    assert_eq!(sim.home_of(object), Some(second));
    let view = sim.membership(object).unwrap();
    assert!(view.members[0].is_home);
    assert_eq!(view.members[0].node, second);
    let metrics = sim.metrics();
    assert!(
        metrics
            .lock()
            .lifecycle_events(LifecycleEventKind::Elected)
            .any(|e| e.node == second && e.object == object),
        "the election must surface in the metrics"
    );
    // The elected sequencer accepts writes and the old home recovers.
    sim.handle(master)
        .write(registers::put("p", b"after"))
        .unwrap();
    sim.run_for(Duration::from_secs(2));
    assert_eq!(
        sim.store_digest(object, first),
        sim.store_digest(object, second),
        "the rejoined old home must converge on the new sequencer"
    );
}

#[test]
fn suspect_after_misses_tunes_detection_speed() {
    // Same partition, laxer threshold: with `suspect_after_misses(8)`
    // the detector tolerates a silence that the default (3) would flag.
    let hb = Duration::from_millis(500);
    let mut sim = GlobeSim::with_config(
        Topology::lan(),
        RuntimeConfig::new()
            .seed(82)
            .heartbeat_period(hb)
            .suspect_after_misses(8),
    );
    let server = sim.add_node();
    let mirror = sim.add_node();
    let object = ObjectSpec::new("/dynamic/tuned-detector")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .store(mirror, StoreClass::ObjectInitiated)
        .create(&mut sim)
        .unwrap();

    sim.run_for(Duration::from_secs(2));
    sim.topology_mut().partition(server, mirror);
    // Three seconds of silence: six missed periods — past the default
    // grace of 3 × 500ms, still inside the configured 8 × 500ms.
    sim.run_for(Duration::from_secs(3));
    let view = sim.membership(object).unwrap();
    assert!(
        view.all_alive(),
        "a laxer threshold must tolerate the silence the default would flag"
    );
    // Two more seconds pass the configured grace too.
    sim.run_for(Duration::from_secs(3));
    let view = sim.membership(object).unwrap();
    assert_eq!(view.member(mirror).unwrap().health, StoreHealth::Suspect);
}

#[test]
fn failure_detector_suspects_partitioned_replica_and_clears_on_heal() {
    // Heartbeats flow home → mirror → home. Partition the pair: after
    // three missed periods the mirror goes suspect (visible in the
    // membership view and the metrics); heal the link and the next pong
    // clears the suspicion.
    let hb = Duration::from_millis(500);
    let mut sim = GlobeSim::with_config(
        Topology::lan(),
        RuntimeConfig::new().seed(80).heartbeat_period(hb),
    );
    let server = sim.add_node();
    let mirror = sim.add_node();
    let object = ObjectSpec::new("/dynamic/detector")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .store(mirror, StoreClass::ObjectInitiated)
        .create(&mut sim)
        .unwrap();

    sim.run_for(Duration::from_secs(3));
    let view = sim.membership(object).unwrap();
    assert!(view.all_alive(), "healthy mirror must not be suspected");
    assert!(
        view.member(mirror).unwrap().last_heard.is_some(),
        "heartbeat acknowledgements must be recorded"
    );
    assert!(view.member(server).unwrap().is_home);

    sim.topology_mut().partition(server, mirror);
    sim.run_for(Duration::from_secs(5));
    let view = sim.membership(object).unwrap();
    assert_eq!(
        view.member(mirror).unwrap().health,
        StoreHealth::Suspect,
        "a silent replica must be marked suspect"
    );
    assert_eq!(view.suspects(), vec![mirror]);
    let metrics = sim.metrics();
    assert!(
        metrics
            .lock()
            .lifecycle_events(LifecycleEventKind::Suspected)
            .any(|e| e.node == mirror && e.object == object),
        "suspicion must surface in the metrics"
    );

    sim.topology_mut().heal(server, mirror);
    sim.run_for(Duration::from_secs(3));
    let view = sim.membership(object).unwrap();
    assert!(
        view.all_alive(),
        "an answering replica must be un-suspected"
    );
    assert!(
        metrics
            .lock()
            .lifecycle_events(LifecycleEventKind::Recovered)
            .any(|e| e.node == mirror),
        "recovery must surface in the metrics"
    );
}

#[test]
fn auto_failover_elects_without_any_driver_call() {
    // Partition the home with the detector + auto_failover on: the
    // surviving permanent store must confirm the silence, self-elect,
    // accept writes, and the healed old home must rejoin demoted.
    let hb = Duration::from_millis(500);
    let mut sim = GlobeSim::with_config(
        Topology::lan(),
        RuntimeConfig::new()
            .seed(90)
            .heartbeat_period(hb)
            .suspect_after_misses(2)
            .auto_failover(true)
            .failover_confirm_periods(1),
    );
    let first = sim.add_node();
    let second = sim.add_node();
    let client_node = sim.add_node();
    let object = ObjectSpec::new("/dynamic/auto-elect")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(first, StoreClass::Permanent)
        .store(second, StoreClass::Permanent)
        .create(&mut sim)
        .unwrap();
    // Reads via the survivor: its serve path learns the client's node,
    // so the takeover announcement reroutes the session.
    let master = sim
        .bind(object, client_node, BindOptions::new().read_node(second))
        .unwrap();
    sim.handle(master)
        .write(registers::put("p", b"before"))
        .unwrap();
    let warm = sim.handle(master).read(registers::get("p")).unwrap();
    assert_eq!(&warm[..], b"before");
    sim.run_for(Duration::from_secs(2));

    sim.partition_node(first, true).unwrap();
    sim.run_for(Duration::from_secs(4));
    assert_eq!(
        sim.home_of(object),
        Some(second),
        "the survivor must self-elect with no lifecycle call"
    );
    let metrics = sim.metrics();
    assert_eq!(
        metrics
            .lock()
            .lifecycle_events(LifecycleEventKind::Elected)
            .filter(|e| e.object == object)
            .count(),
        1,
        "exactly one election"
    );
    // The elected sequencer accepts the rerouted session's writes.
    sim.handle(master)
        .write(registers::put("p", b"after"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));

    sim.partition_node(first, false).unwrap();
    sim.run_for(Duration::from_secs(4));
    assert_eq!(
        sim.home_of(object),
        Some(second),
        "healing must not move the sequencer back"
    );
    assert_eq!(
        sim.store_digest(object, first),
        sim.store_digest(object, second),
        "the deposed home must converge on the elected sequencer's log"
    );
    let history = sim.history();
    let h = history.lock();
    check::check_fifo(&h).unwrap();
}

#[test]
fn detector_flap_during_confirmation_never_elects_two_sequencers() {
    // The flap guard: silence long enough to suspect the home but not
    // long enough to confirm it must elect nobody; a full outage after
    // the flap elects exactly once, and the epoch check keeps the old
    // home from accepting once it is back.
    let hb = Duration::from_millis(500);
    let mut sim = GlobeSim::with_config(
        Topology::lan(),
        RuntimeConfig::new()
            .seed(91)
            .heartbeat_period(hb)
            .suspect_after_misses(2)
            .auto_failover(true)
            .failover_confirm_periods(4),
    );
    let first = sim.add_node();
    let second = sim.add_node();
    let client_node = sim.add_node();
    let object = ObjectSpec::new("/dynamic/flap")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(first, StoreClass::Permanent)
        .store(second, StoreClass::Permanent)
        .create(&mut sim)
        .unwrap();
    let master = sim
        .bind(object, client_node, BindOptions::new().read_node(second))
        .unwrap();
    sim.handle(master)
        .write(registers::put("p", b"v1"))
        .unwrap();
    let warm = sim.handle(master).read(registers::get("p")).unwrap();
    assert_eq!(&warm[..], b"v1");
    sim.run_for(Duration::from_secs(2));

    // Flap: past suspicion (2 periods), well short of confirmation
    // (4 more periods).
    sim.partition_node(first, true).unwrap();
    sim.run_for(Duration::from_millis(1700));
    sim.partition_node(first, false).unwrap();
    sim.run_for(Duration::from_secs(3));
    let metrics = sim.metrics();
    assert_eq!(
        metrics
            .lock()
            .lifecycle_events(LifecycleEventKind::Elected)
            .count(),
        0,
        "a flap inside the confirmation window must not elect"
    );
    assert_eq!(sim.home_of(object), Some(first));

    // Now a real outage: the survivor elects exactly once, and the
    // flapping old home — silent, then briefly back, then gone again —
    // cannot win a second election for the same epoch.
    sim.partition_node(first, true).unwrap();
    sim.run_for(Duration::from_secs(6));
    assert_eq!(sim.home_of(object), Some(second));
    sim.partition_node(first, false).unwrap();
    sim.run_for(Duration::from_millis(700));
    sim.partition_node(first, true).unwrap();
    sim.run_for(Duration::from_secs(2));
    sim.partition_node(first, false).unwrap();
    sim.run_for(Duration::from_secs(4));
    assert_eq!(
        metrics
            .lock()
            .lifecycle_events(LifecycleEventKind::Elected)
            .count(),
        1,
        "one outage, one election: a flap must never yield two accepting sequencers"
    );
    assert_eq!(
        sim.home_of(object),
        Some(second),
        "the epoch check must keep the sequencer with the elected store"
    );
    sim.handle(master)
        .write(registers::put("p", b"v2"))
        .unwrap();
    sim.run_for(Duration::from_secs(2));
    assert_eq!(
        sim.store_digest(object, first),
        sim.store_digest(object, second),
        "both permanent stores converge on the single sequencer's log"
    );
    let history = sim.history();
    let h = history.lock();
    check::check_fifo(&h).unwrap();
}

#[test]
fn partitioned_standby_cannot_usurp_a_live_sequencer() {
    // The minority side of a partition: the *standby* is isolated, its
    // detector wrongly concludes the home died, and it self-elects in
    // the dark. Meanwhile the real home keeps sequencing acknowledged
    // writes. On heal the incumbent's strictly-ahead log must win —
    // counter-claimed at a higher epoch — so no acknowledged write
    // ever leaves the authoritative log.
    let hb = Duration::from_millis(500);
    let mut sim = GlobeSim::with_config(
        Topology::lan(),
        RuntimeConfig::new()
            .seed(93)
            .heartbeat_period(hb)
            .suspect_after_misses(2)
            .auto_failover(true)
            .failover_confirm_periods(1),
    );
    let home = sim.add_node();
    let standby = sim.add_node();
    let client_node = sim.add_node();
    let object = ObjectSpec::new("/dynamic/usurper")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(home, StoreClass::Permanent)
        .store(standby, StoreClass::Permanent)
        .create(&mut sim)
        .unwrap();
    let master = sim
        .bind(object, client_node, BindOptions::new().read_node(home))
        .unwrap();
    sim.handle(master)
        .write(registers::put("p", b"v1"))
        .unwrap();
    sim.run_for(Duration::from_secs(2));

    // Isolate the standby; the home keeps accepting writes the clients
    // see acknowledged.
    sim.partition_node(standby, true).unwrap();
    sim.run_for(Duration::from_secs(4));
    sim.handle(master)
        .write(registers::put("p", b"acknowledged-during-partition"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));

    // Heal: the standby re-announces its dark-room election, the
    // incumbent counter-claims, and the sequencer stays (or returns)
    // where the authoritative log lives.
    sim.partition_node(standby, false).unwrap();
    sim.run_for(Duration::from_secs(5));
    assert_eq!(
        sim.home_of(object),
        Some(home),
        "a partitioned standby must not keep the sequencer it granted itself"
    );
    // The acknowledged write survives and both replicas converge on it.
    let seen = sim.handle(master).read(registers::get("p")).unwrap();
    assert_eq!(&seen[..], b"acknowledged-during-partition");
    assert_eq!(
        sim.store_digest(object, home),
        sim.store_digest(object, standby),
        "the usurper must converge on the incumbent's log"
    );
    let history = sim.history();
    let h = history.lock();
    check::check_fifo(&h).unwrap();
}

/// Fail-over outage = detection + election: the `tcp_durable_failover`
/// drill's shape on the simulator. A client pipelines writes to the
/// home every 5 ms; the home is partitioned mid-stream. Every write
/// issued into the dark is resent the moment the session accepts the
/// successor's takeover announcement, not when the 1 s session-retry
/// backstop fires.
#[test]
fn takeover_announcement_resends_unacked_writes_at_once() {
    let period = Duration::from_millis(20);
    let config = RuntimeConfig::new()
        .seed(5)
        .heartbeat_period(period)
        .auto_failover(true)
        .trace_capacity(1 << 16);
    let outage_bound = period * (config.suspect_after_misses + config.failover_confirm_periods + 2);
    let mut sim = GlobeSim::with_config(Topology::lan(), config);
    let home = sim.add_node();
    let mirror1 = sim.add_node();
    let mirror2 = sim.add_node();
    let client_node = sim.add_node();
    let object = ObjectSpec::new("/dynamic/takeover-resend")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Pram)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(home, StoreClass::Permanent)
        .store(mirror1, StoreClass::Permanent)
        .store(mirror2, StoreClass::Permanent)
        .create(&mut sim)
        .unwrap();
    // Reads at mirror 1 teach the future sequencer the client's node,
    // so its takeover announcement reaches the session.
    let client = sim
        .bind(object, client_node, BindOptions::new().read_node(mirror1))
        .unwrap();
    sim.handle(client)
        .write(registers::put("warm", b"up"))
        .unwrap();
    let warm = sim.handle(client).read(registers::get("warm")).unwrap();
    assert_eq!(&warm[..], b"up");
    sim.run_for(Duration::from_millis(200));

    // 120 writes 5 ms apart; the last 100 are issued into the dark.
    let gap = Duration::from_millis(5);
    let mut dark_from = None;
    for i in 0..120 {
        if i == 20 {
            sim.partition_node(home, true).unwrap();
            dark_from = Some(sim.now());
        }
        sim.issue_write(&client, registers::put(&format!("k{}", i % 8), b"v"))
            .unwrap();
        sim.run_for(gap);
    }
    sim.run_for(Duration::from_millis(500));
    assert_eq!(sim.home_of(object), Some(mirror1), "mirror 1 self-elects");
    let dark_from = dark_from.unwrap();

    let timeline = sim.trace().failover_timeline();
    let first_write = timeline
        .takeover_to_first_write()
        .expect("a takeover and a write after it");
    assert!(
        first_write <= period,
        "the successor's first write must follow its takeover within one heartbeat \
         period, not a session-retry interval: {first_write:?}"
    );
    let metrics = sim.metrics();
    let dark: Vec<_> = metrics
        .lock()
        .ops
        .iter()
        .filter(|op| op.kind == globe_core::MethodKind::Write && op.issued >= dark_from)
        .copied()
        .collect();
    assert_eq!(dark.len(), 100, "every write into the dark is acked");
    for op in &dark {
        assert!(op.ok);
        assert!(
            op.latency() <= outage_bound,
            "a write issued at {:?} took {:?}, past detection + election ({outage_bound:?})",
            op.issued,
            op.latency()
        );
    }

    // Heal: the deposed home steps down and every store agrees.
    sim.partition_node(home, false).unwrap();
    sim.run_for(Duration::from_secs(2));
    assert_eq!(sim.home_of(object), Some(mirror1));
    let digest = sim.store_digest(object, mirror1).unwrap();
    for node in [home, mirror2] {
        assert_eq!(sim.store_digest(object, node).unwrap(), digest, "{node}");
    }
    check::check_pram(&sim.history().lock()).unwrap();
    let violations = globe_core::TraceChecker::check(&sim.trace());
    assert!(violations.is_empty(), "trace violations: {violations:?}");
}

#[test]
fn node_level_detector_sends_one_stream_per_pair_not_per_object() {
    // Eight objects co-homed on one node pair: heartbeat traffic must
    // stay O(peers) per round (one ping each way), not O(objects).
    let hb = Duration::from_millis(500);
    let mut sim = GlobeSim::with_config(
        Topology::lan(),
        RuntimeConfig::new().seed(92).heartbeat_period(hb),
    );
    let server = sim.add_node();
    let mirror = sim.add_node();
    let objects = 8;
    for i in 0..objects {
        ObjectSpec::new(format!("/dynamic/pair{i}"))
            .policy(
                ReplicationPolicy::builder(ObjectModel::Fifo)
                    .immediate()
                    .build()
                    .unwrap(),
            )
            .semantics_boxed(doc)
            .store(server, StoreClass::Permanent)
            .store(mirror, StoreClass::ObjectInitiated)
            .create(&mut sim)
            .unwrap();
    }
    let rounds = 10u64;
    sim.run_for(Duration::from_millis(500 * rounds));
    let metrics = sim.metrics();
    let metrics = metrics.lock();
    let pings = metrics
        .traffic
        .get("NodePing")
        .map(|k| k.count)
        .unwrap_or(0);
    // Two directed streams (server→mirror, mirror→server), one ping
    // each per round — regardless of how many objects share the pair.
    assert!(pings >= rounds, "the detector must actually run: {pings}");
    assert!(
        pings <= 2 * (rounds + 2),
        "heartbeats must be per node pair, not per object: {pings} pings \
         for {objects} objects over ~{rounds} rounds"
    );
}

#[test]
fn removed_store_leaves_membership_and_propagation() {
    let mut sim = GlobeSim::new(Topology::lan(), 81);
    let server = sim.add_node();
    let cache = sim.add_node();
    let object = ObjectSpec::new("/dynamic/remove")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Pram)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut sim)
        .unwrap();
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    sim.handle(master)
        .write(registers::put("p", b"v1"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));
    assert_eq!(sim.membership(object).unwrap().members.len(), 2);

    sim.remove_store(object, cache).unwrap();
    sim.run_for(Duration::from_secs(1));
    assert!(
        sim.store_digest(object, cache).is_none(),
        "the removed replica must be gone from its space"
    );
    assert_eq!(
        sim.membership(object).unwrap().members.len(),
        1,
        "membership must shrink to the home store"
    );
    let metrics = sim.metrics();
    assert!(
        metrics
            .lock()
            .lifecycle_events(LifecycleEventKind::Left)
            .any(|e| e.node == cache),
        "the departure must surface in the metrics"
    );
    // The workload continues against the home store.
    sim.handle(master)
        .write(registers::put("p", b"v2"))
        .unwrap();
    let got = sim.handle(master).read(registers::get("p")).unwrap();
    assert_eq!(&got[..], b"v2");
}

#[test]
fn restart_preserves_prefailure_history() {
    // The acceptance criterion in one test: after kill-and-recover, the
    // shared history still contains every pre-failure record, and the
    // recovered replica's apply sequence continues it without replays.
    let mut sim = GlobeSim::new(Topology::lan(), 82);
    let server = sim.add_node();
    let cache = sim.add_node();
    let object = ObjectSpec::new("/dynamic/prefix")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut sim)
        .unwrap();
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    for i in 0..4 {
        sim.handle(master)
            .write(registers::put(&format!("p{i}"), b"pre"))
            .unwrap();
    }
    sim.run_for(Duration::from_secs(1));
    let cache_store = sim
        .stores_of(object)
        .iter()
        .find(|(n, _, _)| *n == cache)
        .map(|(_, id, _)| *id)
        .unwrap();
    let pre_applies: Vec<_> = {
        let history = sim.history();
        let h = history.lock();
        h.store_applies(cache_store).cloned().collect()
    };
    assert_eq!(pre_applies.len(), 4, "cache applied the pre-failure writes");

    sim.restart_store(object, cache, doc()).unwrap();
    sim.run_for(Duration::from_secs(2));
    sim.handle(master)
        .write(registers::put("p9", b"post"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));

    let history = sim.history();
    let h = history.lock();
    let post_applies: Vec<_> = h.store_applies(cache_store).cloned().collect();
    assert!(
        post_applies.len() > pre_applies.len(),
        "recovery must continue the history"
    );
    assert_eq!(
        &post_applies[..pre_applies.len()],
        &pre_applies[..],
        "the pre-failure history must survive recovery as an untouched prefix"
    );
    // Per-client apply order stays monotonic across the failure.
    let mut last_seq = 0;
    for apply in &post_applies {
        assert!(
            apply.wid.seq > last_seq,
            "apply order must not replay across the restart"
        );
        last_seq = apply.wid.seq;
    }
    check::check_fifo(&h).unwrap();
    drop(h);
    assert_eq!(
        sim.store_digest(object, cache).unwrap(),
        sim.store_digest(object, server).unwrap()
    );
}

/// Runs three kill/recover rounds of a mirror behind a stream of
/// writes and returns, from the home's journal, the log entries every
/// `StateTransfer` and delta chunk shipped and the number of delta
/// sends among them.
fn recovery_entries_shipped(config: RuntimeConfig) -> (usize, usize) {
    let mut sim = GlobeSim::with_config(Topology::lan(), config.trace_capacity(65_536));
    let server = sim.add_node();
    let mirror = sim.add_node();
    let object = ObjectSpec::new("/dynamic/recovery-cost")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .store(mirror, StoreClass::ObjectInitiated)
        .create(&mut sim)
        .unwrap();
    let writer = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    for round in 0..3 {
        for i in 0..8 {
            sim.handle(writer)
                .write(registers::put(
                    &format!("k{i}"),
                    format!("round-{round}").as_bytes(),
                ))
                .unwrap();
        }
        sim.run_for(Duration::from_secs(1));
        sim.restart_store(object, mirror, doc()).unwrap();
        sim.run_for(Duration::from_secs(1));
        assert_eq!(
            sim.store_digest(object, mirror).unwrap(),
            sim.store_digest(object, server).unwrap(),
            "round {round}: the recovered mirror must reconverge"
        );
    }
    let (mut entries, mut delta_sends) = (0, 0);
    for e in &sim.trace().events {
        match e.event {
            ProtocolEvent::StateTransferSent { entries: n, .. } => entries += n,
            ProtocolEvent::DeltaTransferSent { entries: n, .. } => {
                entries += n;
                delta_sends += 1;
            }
            _ => {}
        }
    }
    (entries, delta_sends)
}

/// What incremental recovery buys, as a count: over the same
/// kill/recover rounds a durable mirror (recovers from its own WAL,
/// then joins with its version vector) makes the home ship no more log
/// entries than an in-memory one (joins blank, gets the whole log), and
/// it does so through the delta path.
#[test]
fn durable_recovery_ships_no_more_log_than_full_transfer() {
    let base = RuntimeConfig::new().seed(21);
    let (full_entries, full_delta_sends) = recovery_entries_shipped(base.clone());
    assert_eq!(full_delta_sends, 0, "a blank mirror has nothing to diff");

    let dir = TempDir::new("dynamic_recovery_cost");
    let (incr_entries, incr_delta_sends) =
        recovery_entries_shipped(base.durable_dir(dir.path()).checkpoint_every(2));
    assert!(
        incr_delta_sends > 0,
        "the durable mirror must rejoin through the delta path"
    );
    assert!(
        incr_entries <= full_entries,
        "incremental recovery shipped {incr_entries} log entries, full transfer {full_entries}"
    );
}

#[test]
fn partitioned_leased_replica_refuses_reads_after_expiry() {
    // The lease-staleness regression: a leased replica cut off from the
    // home may keep serving locally only until its lease expires; after
    // that it must refuse (forward) rather than return possibly-stale
    // state, and a heal must restore local serving via a fresh grant.
    let mut sim = GlobeSim::with_config(
        Topology::lan(),
        RuntimeConfig::new()
            .seed(95)
            .call_timeout(Duration::from_secs(2))
            .read_leases(true)
            .lease_duration(Duration::from_secs(2)),
    );
    let home = sim.add_node();
    let mirror = sim.add_node();
    let client_node = sim.add_node();
    let object = ObjectSpec::new("/dynamic/lease")
        .policy(
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()
                .unwrap(),
        )
        .semantics_boxed(doc)
        .store(home, StoreClass::Permanent)
        .store(mirror, StoreClass::Permanent)
        .create(&mut sim)
        .unwrap();
    let master = sim
        .bind(object, client_node, BindOptions::new().read_node(home))
        .unwrap();
    let reader = sim
        .bind(object, client_node, BindOptions::new().read_node(mirror))
        .unwrap();

    sim.handle(master)
        .write(registers::put("p", b"v1"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));
    let metrics = sim.metrics();
    assert!(
        metrics.lock().traffic.contains_key("LeaseGrant"),
        "the permanent mirror must have requested and received a lease"
    );

    // Cut the home–mirror link only: the client still reaches the
    // mirror, but renewals (and forwards) die on the floor.
    sim.topology_mut().partition(home, mirror);
    let local = sim.handle(reader).read(registers::get("p")).unwrap();
    assert_eq!(
        &local[..],
        b"v1",
        "inside the lease the mirror serves locally — the home is unreachable"
    );
    let served_inside_lease = metrics.lock().protocol.lease_served;
    assert!(
        served_inside_lease >= 1,
        "a lease-authorized local read must count as served"
    );

    // Run past the lease without any renewal getting through: the
    // mirror must now refuse to serve locally and forward into the
    // dead link, so the read times out instead of returning stale data.
    sim.run_for(Duration::from_secs(3));
    let refused = sim.handle(reader).read(registers::get("p"));
    assert!(
        refused.is_err(),
        "an expired lease must never serve a possibly-stale local read: {refused:?}"
    );
    {
        let m = metrics.lock();
        assert!(
            m.protocol.lease_refused >= 1,
            "the expired-lease read must count as refused"
        );
        let ratio = m.protocol.lease_hit_ratio();
        assert!(
            ratio > 0.0 && ratio < 1.0,
            "served and refused reads must both show in the hit ratio: {ratio}"
        );
    }

    // Heal: the next renewal wins a fresh grant and local reads resume,
    // including a write the mirror missed while partitioned.
    sim.topology_mut().heal(home, mirror);
    sim.handle(master)
        .write(registers::put("p", b"v2"))
        .unwrap();
    sim.run_for(Duration::from_secs(3));
    sim.topology_mut().partition(home, mirror);
    let fresh = sim.handle(reader).read(registers::get("p")).unwrap();
    assert_eq!(
        &fresh[..],
        b"v2",
        "a fresh grant must restore local serving with the converged state"
    );
}

#[test]
fn policy_switch_reaches_every_replica() {
    // set_policy broadcasts PolicyUpdate; verify a replica actually
    // adopts it (its store reports the new instant).
    let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .lazy(Duration::from_secs(60))
        .build()
        .unwrap();
    let mut sim = GlobeSim::new(Topology::lan(), 74);
    let server = sim.add_node();
    let cache = sim.add_node();
    let object = ObjectSpec::new("/dynamic/policy")
        .policy(policy)
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut sim)
        .unwrap();
    let immediate = ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .unwrap();
    sim.set_policy(object, immediate.clone()).unwrap();
    sim.run_for(Duration::from_millis(100)); // broadcast in flight
    let metrics = sim.metrics();
    assert!(
        metrics.lock().traffic.contains_key("PolicyUpdate"),
        "policy broadcast must be visible on the wire"
    );
}

#[test]
fn plain_add_store_join_refreshes_every_replica() {
    // PROBE: every pre-existing replica must learn about a replica that
    // joins via plain add_store, or a later unattended election runs
    // over a stale candidate list.
    let mut sim = GlobeSim::new(Topology::lan(), 93);
    let home = sim.add_node();
    let mirror_a = sim.add_node();
    let mirror_b = sim.add_node();
    let joiner = sim.add_node();
    let object = ObjectSpec::new("/dynamic/join-refresh")
        .policy(ReplicationPolicy::whiteboard())
        .semantics_boxed(doc)
        .store(home, StoreClass::Permanent)
        .store(mirror_a, StoreClass::Permanent)
        .store(mirror_b, StoreClass::Permanent)
        .create(&mut sim)
        .unwrap();
    sim.add_store(object, joiner, StoreClass::Permanent, doc())
        .unwrap();
    sim.run_for(Duration::from_secs(2));
    for node in [home, mirror_a, mirror_b] {
        let peers = sim.store_peers(object, node).unwrap();
        assert!(
            peers.contains(&joiner),
            "replica at {node} missed the membership refresh for {joiner}: {peers:?}"
        );
    }
    // And the joiner knows the full membership too.
    let peers = sim.store_peers(object, joiner).unwrap();
    for node in [home, mirror_a, mirror_b] {
        assert!(peers.contains(&node), "joiner missing {node}: {peers:?}");
    }
}
